"""Exact group element arithmetic for free groups and 2-generator-type
free products of cyclic groups, plus product-set enumeration and seeded
random reduced words.

Elements are stored in canonical normal form as run-length syllable lists,
so structural equality coincides with equality in the group and hashing is
O(1) amortized.  Serialization uses compact letter strings: generators are
``a..z``, inverses ``A..Z`` ("abA" = a * b * a^-1).
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

FREE = "free"
FREE_PRODUCT = "free_product"

_LOWER = string.ascii_lowercase
_UPPER = string.ascii_uppercase


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would outgrow its configured cap."""


@dataclass(frozen=True)
class PresentationContext:
    """A free group of given rank, or a free product of cyclic factors.

    ``orders`` entries are the factor orders (>= 2) or None for an infinite
    cyclic factor.  Factor i is generated by the single letter chr('a'+i).
    """

    kind: str
    rank: int = 0
    orders: tuple[Optional[int], ...] = ()

    def __post_init__(self):
        if self.kind == FREE:
            if not 1 <= self.rank <= 26:
                raise ValueError("free group rank must be in 1..26")
        elif self.kind == FREE_PRODUCT:
            if not 1 <= len(self.orders) <= 26:
                raise ValueError("need 1..26 free product factors")
            for n in self.orders:
                if n is not None and n < 2:
                    raise ValueError("factor orders must be >= 2 or None")
        else:
            raise ValueError(f"unknown context kind {self.kind!r}")

    @property
    def num_generators(self) -> int:
        return self.rank if self.kind == FREE else len(self.orders)

    def order_of(self, gen: int) -> Optional[int]:
        return None if self.kind == FREE else self.orders[gen]

    def identity(self) -> "GroupElement":
        return GroupElement(self, ())

    def generator(self, i: int) -> "GroupElement":
        if not 0 <= i < self.num_generators:
            raise ValueError(f"no generator {i}")
        return GroupElement(self, ((i, 1),))

    def generators(self) -> list["GroupElement"]:
        return [self.generator(i) for i in range(self.num_generators)]

    def __str__(self) -> str:
        if self.kind == FREE:
            return f"F_{self.rank}"
        return " * ".join("Z" if n is None else f"Z/{n}" for n in self.orders)


def free_group(rank: int) -> PresentationContext:
    return PresentationContext(FREE, rank=rank)


def free_product(*orders: Optional[int]) -> PresentationContext:
    return PresentationContext(FREE_PRODUCT, orders=tuple(orders))


def _norm_exp(ctx: PresentationContext, gen: int, exp: int) -> int:
    """Canonical exponent: mod the factor order (representative 1..n-1)."""
    n = ctx.order_of(gen)
    if n is not None:
        exp %= n
    return exp


def _push(ctx: PresentationContext, stack: list[list[int]], gen: int, exp: int) -> None:
    exp = _norm_exp(ctx, gen, exp)
    if exp == 0:
        return
    while True:
        if not stack or stack[-1][0] != gen:
            stack.append([gen, exp])
            return
        merged = _norm_exp(ctx, gen, stack[-1][1] + exp)
        stack.pop()
        if merged == 0:
            if not stack:
                return
            gen, exp = stack.pop()
            continue
        stack.append([gen, merged])
        return


@dataclass(frozen=True)
class GroupElement:
    """A group element in canonical normal form.

    Do not build directly; use context constructors, `parse`, or the
    arithmetic operations, which maintain the normal form invariant.
    """

    context: PresentationContext
    syllables: tuple[tuple[int, int], ...]

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.context != other.context:
            raise ValueError("context mismatch")
        stack: list[list[int]] = [list(s) for s in self.syllables]
        for gen, exp in other.syllables:
            _push(self.context, stack, gen, exp)
        return GroupElement(self.context, tuple((g, e) for g, e in stack))

    def inverse(self) -> "GroupElement":
        ctx = self.context
        syl = tuple(
            (g, _norm_exp(ctx, g, -e)) for g, e in reversed(self.syllables)
        )
        return GroupElement(ctx, syl)

    def __pow__(self, k: int) -> "GroupElement":
        if k < 0:
            return self.inverse() ** (-k)
        result = self.context.identity()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate_by(self, h: "GroupElement") -> "GroupElement":
        """h * self * h^-1."""
        return h * self * h.inverse()

    # -- structure ----------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    @property
    def syllable_count(self) -> int:
        return len(self.syllables)

    def word_length(self) -> int:
        """Letter count in the printed normal form.

        For a free group this is the Cayley-tree distance to the identity.
        For a free product the tree-relevant size is `syllable_count`.
        """
        return sum(abs(e) for _, e in self.syllables)

    def letters(self) -> list[tuple[int, int]]:
        """Expansion into single letters (gen, +1/-1)."""
        out = []
        for g, e in self.syllables:
            step = 1 if e > 0 else -1
            out.extend([(g, step)] * abs(e))
        return out

    def first_factor(self) -> Optional[int]:
        return self.syllables[0][0] if self.syllables else None

    def last_factor(self) -> Optional[int]:
        return self.syllables[-1][0] if self.syllables else None

    # -- ordering / serialization ------------------------------------------

    def sort_key(self) -> tuple:
        return (self.word_length(), str(self))

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        parts = []
        for g, e in self.syllables:
            ch = _LOWER[g] if e > 0 else _UPPER[g]
            parts.append(ch * abs(e))
        return "".join(parts)

    def __repr__(self) -> str:
        return f"<{self} in {self.context}>"


def parse(ctx: PresentationContext, text: str) -> GroupElement:
    """Parse a compact letter string ("abA" = a * b * a^-1; "1" = identity)."""
    text = text.strip()
    if text in ("", "1"):
        return ctx.identity()
    stack: list[list[int]] = []
    for ch in text:
        if ch in _LOWER:
            gen, exp = _LOWER.index(ch), 1
        elif ch in _UPPER:
            gen, exp = _UPPER.index(ch), -1
        else:
            raise ValueError(f"bad character {ch!r} in element string")
        if gen >= ctx.num_generators:
            raise ValueError(f"letter {ch!r} outside context {ctx}")
        _push(ctx, stack, gen, exp)
    return GroupElement(ctx, tuple((g, e) for g, e in stack))


def random_reduced_word(
    rng: random.Random, ctx: PresentationContext, length: int
) -> GroupElement:
    """A uniformly random reduced word of exactly `length` letters in a free
    group.  Each letter is drawn as rng.randrange(rank), rng.choice((1, -1))
    and redrawn while it would cancel the previous letter, so a seed fixes
    the word."""
    stack: list[list[int]] = []
    prev = None
    for _ in range(length):
        while True:
            g = rng.randrange(ctx.rank)
            s = rng.choice((1, -1))
            if prev != (g, -s):
                break
        _push(ctx, stack, g, s)
        prev = (g, s)
    return GroupElement(ctx, tuple((g, e) for g, e in stack))


def cyclic_reduce(a: GroupElement) -> tuple[GroupElement, GroupElement]:
    """Write a = c * core * c^-1 with core of minimal length in the
    conjugacy class.

    Free groups: the core's first and last letters are not inverse.
    Free products: the core's first and last syllables lie in different
    factors (or the core is a single syllable / trivial).
    """
    ctx = a.context
    syl = [list(s) for s in a.syllables]
    conj: list[list[int]] = []

    if ctx.kind == FREE:
        while len(syl) >= 2:
            g1, e1 = syl[0]
            g2, e2 = syl[-1]
            if g1 != g2 or (e1 > 0) == (e2 > 0):
                break
            t = min(abs(e1), abs(e2))
            sgn = 1 if e1 > 0 else -1
            _push(ctx, conj, g1, sgn * t)
            e1 -= sgn * t
            e2 += sgn * t
            if e1 == 0:
                syl.pop(0)
            else:
                syl[0][1] = e1
            if e2 == 0:
                syl.pop()
            else:
                syl[-1][1] = e2
    else:
        while len(syl) >= 2 and syl[0][0] == syl[-1][0]:
            g, e_last = syl[-1]
            _push(ctx, conj, g, -e_last)
            syl.pop()
            merged = _norm_exp(ctx, g, syl[0][1] + e_last)
            if merged == 0:
                syl.pop(0)
            else:
                syl[0][1] = merged

    core = GroupElement(ctx, tuple((g, e) for g, e in syl))
    conj_el = GroupElement(ctx, tuple((g, e) for g, e in conj))
    return core, conj_el


def primitive_root(a: GroupElement) -> tuple[GroupElement, int]:
    """Largest k with a = root**k; the root is not a proper power.

    For free products, torsion elements (single-syllable cores) are
    returned as their own root with power 1.
    """
    if a.is_identity:
        raise ValueError("identity has no primitive root")
    core, conj = cyclic_reduce(a)
    ctx = a.context

    if ctx.kind == FREE:
        items = core.letters()
    else:
        if core.syllable_count <= 1:
            return a, 1
        items = list(core.syllables)

    n = len(items)
    for d in range(1, n + 1):
        if n % d:
            continue
        if items[:d] * (n // d) == items:
            if ctx.kind == FREE:
                stack: list[list[int]] = []
                for g, e in items[:d]:
                    _push(ctx, stack, g, e)
                root_core = GroupElement(ctx, tuple((g, e) for g, e in stack))
            else:
                root_core = GroupElement(ctx, tuple(items[:d]))
            root = conj * root_core * conj.inverse()
            return root, n // d
    raise AssertionError("unreachable: d = n always matches")


def power_of(a: GroupElement, root: GroupElement) -> Optional[int]:
    """The integer k with a = root**k, or None if there is none."""
    if a.is_identity:
        return 0
    if root.is_identity:
        return None
    ra, ka = primitive_root(a)
    rr, kr = primitive_root(root)
    if ra == rr:
        pass
    elif ra == rr.inverse():
        ka = -ka
    else:
        return None
    if ka % kr:
        return None
    k = ka // kr
    return k if root ** k == a else None


class ElementSet:
    """A deduplicated, immutable set of group elements over one context.

    Iteration order is canonical (shortlex), so reports built from an
    ElementSet are reproducible.
    """

    def __init__(self, context: PresentationContext, members: Iterable[GroupElement]):
        members = frozenset(members)
        for m in members:
            if m.context != context:
                raise ValueError("element context mismatch")
        self.context = context
        self._members = members
        self._sorted: Optional[list[GroupElement]] = None

    def _ordered(self) -> list[GroupElement]:
        if self._sorted is None:
            self._sorted = sorted(self._members, key=GroupElement.sort_key)
        return self._sorted

    def __iter__(self) -> Iterator[GroupElement]:
        return iter(self._ordered())

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, el: GroupElement) -> bool:
        return el in self._members

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.context == other.context
            and self._members == other._members
        )

    def __hash__(self) -> int:
        return hash((self.context, self._members))

    def __repr__(self) -> str:
        return f"ElementSet({len(self)} elements in {self.context})"

    def to_strings(self) -> list[str]:
        return [str(m) for m in self._ordered()]

    @classmethod
    def from_strings(cls, ctx: PresentationContext, texts: Iterable[str]) -> "ElementSet":
        return cls(ctx, (parse(ctx, t) for t in texts))


def product_level(
    current: Iterable[GroupElement], factors: Sequence[GroupElement], budget: int
) -> set[GroupElement]:
    """The distinct products x * y for x in `current` and y in `factors`.

    This is the package's one product-set loop: every level of every
    enumeration goes through it.  Raises BudgetExceededError once there are
    more than `budget` distinct products.
    """
    out: set[GroupElement] = set()
    for x in current:
        for y in factors:
            out.add(x * y)
            if len(out) > budget:
                raise BudgetExceededError(
                    f"product set exceeded budget of {budget} elements"
                )
    return out


def product_set(U: ElementSet, n: int, budget: int = 10_000_000) -> ElementSet:
    """The set of all products of exactly n elements of U, deduplicated.

    Computed level by level with `product_level`; raises
    BudgetExceededError if an intermediate level would exceed `budget`
    canonical forms.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(U) == 0:
        raise ValueError("U must be nonempty")
    factors = list(U)
    current = set(factors)
    for _ in range(n - 1):
        current = product_level(current, factors, budget)
    return ElementSet(U.context, current)


def safin_family(ctx: PresentationContext, N: int) -> ElementSet:
    """The optimality family {g^-N, ..., 1, ..., g^N, h} over the first two
    generators.

    As a set this has 2N+2 elements; the powers-plus-identity block alone
    has 2N+1 (both counts are reported by `safin_counts`).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if ctx.num_generators < 2:
        raise ValueError("need at least two generators")
    g, h = ctx.generator(0), ctx.generator(1)
    members = [g ** k for k in range(-N, N + 1)]
    members.append(h)
    return ElementSet(ctx, members)


def safin_counts(N: int) -> dict[str, int]:
    """Both cardinality conventions for the optimality family."""
    return {"powers_block": 2 * N + 1, "with_extra_generator": 2 * N + 2}

"""Exact group element arithmetic for free groups and 2-generator-type
free products of cyclic groups, plus product-set enumeration and seeded
random reduced words.

Elements are stored in canonical normal form as run-length syllable tuples,
so structural equality coincides with equality in the group.  A product
cancels and merges only where its two normal forms meet and splices the
rest, sharing the factors' syllable tuples.  Product sets U_1 U_2 ... U_m
of ElementSets are made level by level by one lazy driver, `product` for
the set and `product_sizes` for the level sizes; its levels are sets of
syllable tuples, which no other module sees.  Serialization uses compact
letter strings: generators are ``a..z``, inverses ``A..Z``
("abA" = a * b * a^-1).
"""

from __future__ import annotations

import math
import random
import string
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Optional, Sequence

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


def _push(ctx: PresentationContext, stack: list[tuple[int, int]], gen: int, exp: int) -> None:
    """Append one syllable to a normal-form stack, merging it with the top.

    A cancelled top exposes a syllable of another factor, so one merge is
    all a push can cause."""
    n = ctx.order_of(gen)
    if stack and stack[-1][0] == gen:
        exp += stack.pop()[1]
    if n is not None:
        exp %= n
    if exp:
        stack.append((gen, exp))


@dataclass(frozen=True, slots=True)
class GroupElement:
    """A group element in canonical normal form.

    Do not build directly; use context constructors, `parse`, or the
    arithmetic operations, which maintain the normal form invariant.
    Elements hash by their syllables alone and compare equal only within
    one context.
    """

    context: PresentationContext
    syllables: tuple[tuple[int, int], ...]

    def __eq__(self, other) -> bool:
        if other.__class__ is not GroupElement:
            return NotImplemented
        return self.syllables == other.syllables and (
            self.context is other.context or self.context == other.context
        )

    def __hash__(self) -> int:
        return hash(self.syllables)

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        ctx = self.context
        if other.context is not ctx and other.context != ctx:
            raise ValueError("context mismatch")
        return _element(ctx, _join(ctx.orders, self.syllables, other.syllables))

    def inverse(self) -> "GroupElement":
        ctx = self.context
        if ctx.kind == FREE:
            syl = tuple((g, -e) for g, e in reversed(self.syllables))
        else:
            orders = ctx.orders
            syl = tuple(
                (g, -e if orders[g] is None else orders[g] - e)
                for g, e in reversed(self.syllables)
            )
        return _element(ctx, syl)

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
        return _shortlex(self.syllables)

    def __str__(self) -> str:
        return _word(self.syllables)

    def __repr__(self) -> str:
        return f"<{self} in {self.context}>"


_new_element = object.__new__
_set_context = GroupElement.context.__set__
_set_syllables = GroupElement.syllables.__set__


def _element(ctx: PresentationContext, syllables: tuple) -> GroupElement:
    """A GroupElement from syllables already in normal form, without the
    dataclass `__init__`."""
    el = _new_element(GroupElement)
    _set_context(el, ctx)
    _set_syllables(el, syllables)
    return el


def _word(syllables: tuple) -> str:
    """The compact letter string of a normal form ("1" for the identity)."""
    if not syllables:
        return "1"
    parts = []
    for g, e in syllables:
        ch = _LOWER[g] if e > 0 else _UPPER[g]
        parts.append(ch * abs(e))
    return "".join(parts)


def _shortlex(syllables: tuple) -> tuple:
    """The canonical order of normal forms: word length, then the string."""
    return (sum(abs(e) for _, e in syllables), _word(syllables))


def _join(orders: tuple, a: tuple, b: tuple) -> tuple:
    """The syllables of the product of the normal forms `a` and `b`.

    This is the package's one cancellation rule: it cancels and merges only
    where the two normal forms meet and splices the rest, sharing their
    syllables.  `orders` are the context's factor orders; a free group has
    none, and its exponents never wrap."""
    if not a:
        return b
    if not b:
        return a
    # cancel across the junction: a[i] meets b[j]
    i, j = len(a) - 1, 0
    while True:
        gen, exp = a[i]
        if gen != b[j][0]:
            return a[: i + 1] + b[j:]
        exp += b[j][1]
        if orders:
            n = orders[gen]
            if n is not None:
                exp %= n
        if exp:
            return a[:i] + ((gen, exp),) + b[j + 1 :]
        i -= 1
        j += 1
        if i < 0:
            return b[j:]
        if j == len(b):
            return a[: i + 1]


def parse(ctx: PresentationContext, text: str) -> GroupElement:
    """Parse a compact letter string ("abA" = a * b * a^-1; "1" = identity)."""
    text = text.strip()
    if text in ("", "1"):
        return ctx.identity()
    stack: list[tuple[int, int]] = []
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
    return _element(ctx, tuple(stack))


def random_reduced_word(
    rng: random.Random, ctx: PresentationContext, length: int
) -> GroupElement:
    """A uniformly random reduced word of exactly `length` letters in a free
    group.  Each letter is drawn as rng.randrange(rank), rng.choice((1, -1))
    and redrawn while it would cancel the previous letter, so a seed fixes
    the word."""
    stack: list[tuple[int, int]] = []
    prev = None
    for _ in range(length):
        while True:
            g = rng.randrange(ctx.rank)
            s = rng.choice((1, -1))
            if prev != (g, -s):
                break
        _push(ctx, stack, g, s)
        prev = (g, s)
    return _element(ctx, tuple(stack))


def cyclic_reduce(a: GroupElement) -> tuple[GroupElement, GroupElement]:
    """Write a = c * core * c^-1 with core of minimal length in the
    conjugacy class.

    The core's first and last syllables lie in different factors, or the
    core is a single syllable or trivial.  A free group is the free product
    of its infinite cyclic factors, so there the core is also cyclically
    reduced letter by letter."""
    ctx = a.context
    syl = [list(s) for s in a.syllables]
    conj: list[tuple[int, int]] = []
    while len(syl) >= 2 and syl[0][0] == syl[-1][0]:
        g, e_last = syl[-1]
        _push(ctx, conj, g, -e_last)
        syl.pop()
        merged = syl[0][1] + e_last
        n = ctx.order_of(g)
        if n is not None:
            merged %= n
        if merged == 0:
            syl.pop(0)
        else:
            syl[0][1] = merged
    return _element(ctx, tuple(map(tuple, syl))), _element(ctx, tuple(conj))


def primitive_root(a: GroupElement) -> tuple[GroupElement, int]:
    """Largest k with a = root**k; the root is not a proper power.

    A core of one syllable g^e of an infinite factor has root g or g^-1 and
    power |e|.  Torsion elements (a core of one syllable of a finite
    factor) are returned as their own root with power 1.  Otherwise the
    root core is the shortest syllable period of the core: its two ends lie
    in different factors, so its powers repeat its syllables with no merge.
    """
    if a.is_identity:
        raise ValueError("identity has no primitive root")
    core, conj = cyclic_reduce(a)
    ctx = a.context

    if core.syllable_count == 1:
        (g, e), = core.syllables
        if ctx.order_of(g) is not None:
            return a, 1
        root_core = _element(ctx, ((g, 1 if e > 0 else -1),))
        return conj * root_core * conj.inverse(), abs(e)
    items = core.syllables
    n = len(items)
    for d in range(1, n + 1):
        if n % d == 0 and items[:d] * (n // d) == items:
            return conj * _element(ctx, items[:d]) * conj.inverse(), n // d
    raise RuntimeError("unreachable: d = n always matches")


def power_of(a: GroupElement, root: GroupElement) -> Optional[int]:
    """The integer k with a = root**k, or None if there is none.

    For a root of finite order the least such k >= 0 is returned."""
    if a.is_identity:
        return 0
    if root.is_identity:
        return None
    core, conj = cyclic_reduce(root)
    n = root.context.order_of(core.first_factor()) if core.syllable_count == 1 else None
    if n is not None:
        # root = conj g^e conj^-1 and root**k = conj g^(k e mod n) conj^-1:
        # solve k e = f mod n, which needs gcd(e, n) | f
        (g, e), = core.syllables
        d = math.gcd(e, n)
        target = (conj.inverse() * a * conj).syllables
        if len(target) != 1 or target[0][0] != g or target[0][1] % d:
            return None
        return target[0][1] // d * pow(e // d, -1, n // d) % (n // d)
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

    The set is stored as the normal-form syllable tuples of its members, so
    size, membership, equality and hashing never touch an element object.
    Iteration order is canonical (shortlex), so reports built from an
    ElementSet are reproducible; its elements are made from the syllables
    on the first iteration and kept.
    """

    def __init__(self, context: PresentationContext, members: Iterable[GroupElement]):
        syllables = set()
        for m in members:
            if m.context is not context and m.context != context:
                raise ValueError("element context mismatch")
            syllables.add(m.syllables)
        self.context = context
        self._members = frozenset(syllables)
        self._sorted: Optional[list[GroupElement]] = None

    @classmethod
    def _from_syllables(
        cls, context: PresentationContext, syllables: Collection[tuple]
    ) -> "ElementSet":
        """The set of the normal forms `syllables`, trusted to be in normal
        form over `context`.  The set (or frozenset) is kept, not copied,
        so no caller may change it later."""
        self = object.__new__(cls)
        self.context = context
        self._members = syllables
        self._sorted = None
        return self

    def _ordered(self) -> list[GroupElement]:
        if self._sorted is None:
            ctx = self.context
            self._sorted = [_element(ctx, s) for s in sorted(self._members, key=_shortlex)]
        return self._sorted

    def __iter__(self) -> Iterator[GroupElement]:
        return iter(self._ordered())

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, el: GroupElement) -> bool:
        return (
            el.__class__ is GroupElement
            and el.syllables in self._members
            and (el.context is self.context or el.context == self.context)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.context == other.context
            and self._members == other._members
        )

    def __hash__(self) -> int:
        # every set holds syllable tuples; one kept by `_from_syllables`
        # is frozen the first time it is hashed
        if not isinstance(self._members, frozenset):
            self._members = frozenset(self._members)
        return hash((self.context, self._members))

    def __repr__(self) -> str:
        return f"ElementSet({len(self)} elements in {self.context})"

    def to_strings(self) -> list[str]:
        return [word for _, word in sorted(map(_shortlex, self._members))]

    @classmethod
    def from_strings(cls, ctx: PresentationContext, texts: Iterable[str]) -> "ElementSet":
        return cls(ctx, (parse(ctx, t) for t in texts))


def _levels(sets: Sequence[ElementSet], budget: int) -> Iterator[Collection[tuple]]:
    """The levels U_1, U_1 U_2, ..., U_1 ... U_m of `sets`, as sets of
    normal-form syllable tuples, each made only when asked for.

    This is the package's one product-set loop.  The first level is U_1
    itself, never held to `budget`; each later level joins every a in the
    last one to every b in the next set.  A b whose first generator differs
    from a's last one is spliced on as a + b.  The rest meet a's last
    syllable s: each is joined to s alone once per level, by `_join`.  A
    merge still begins with s's generator and is spliced onto a[:-1]; a b
    that cancels s leaves a rest, which meets a[:-1] in `_join`.  Raises
    BudgetExceededError once a level has more than `budget` elements.
    """
    first, *later = sets
    orders = first.context.orders
    current = first._members
    yield current
    for U in later:
        if U.context != first.context:
            raise ValueError("element set context mismatch")
        factors = U._members
        # per last generator of a: the factors spliced on, and those that meet it
        gens = {b[0][0] for b in factors if b}
        splice = {g: [b for b in factors if not b or b[0][0] != g] for g in gens}
        meet = {g: [b for b in factors if b and b[0][0] == g] for g in gens}
        # per last syllable of a: the merged tails and the rests of the
        # factors that meet it
        junction: dict[tuple, tuple[list, list]] = {}
        out: set[tuple] = set()
        for a in current:
            g = a[-1][0] if a else None
            if g in meet:
                last = a[-1]
                table = junction.get(last)
                if table is None:
                    joined = [_join(orders, (last,), b) for b in meet[g]]
                    table = junction[last] = (
                        [t for t in joined if t and t[0][0] == g],
                        [t for t in joined if not t or t[0][0] != g],
                    )
                merged, rests = table
                head = a[:-1]
                out.update(map(a.__add__, splice[g]))
                out.update(map(head.__add__, merged))
                for rest in rests:
                    out.add(_join(orders, head, rest))
            else:
                out.update(map(a.__add__, factors))
            if len(out) > budget:
                raise BudgetExceededError(f"product set exceeded budget of {budget} elements")
        current = out
        yield current


def product_sizes(sets: Sequence[ElementSet], budget: int) -> Iterator[int]:
    """|U_1|, |U_1 U_2|, ..., |U_1 ... U_m| for element sets over one
    context; a caller that stops early never makes the next level."""
    return map(len, _levels(sets, budget))


def product(sets: Sequence[ElementSet], budget: int) -> ElementSet:
    """The product set U_1 U_2 ... U_m of element sets over one context, or
    BudgetExceededError once a level after the first has more than `budget`
    elements.  It holds syllables; its elements are built only if iterated."""
    for level in _levels(sets, budget):
        pass
    return ElementSet._from_syllables(sets[0].context, level)


def product_set(U: ElementSet, n: int, budget: int = 10_000_000) -> ElementSet:
    """The set of all products of exactly n elements of U, deduplicated:
    `product` of n copies of U."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(U) == 0:
        raise ValueError("U must be nonempty")
    return product([U] * n, budget)


def safin_family(ctx: PresentationContext, N: int) -> ElementSet:
    """The optimality family {g^-N, ..., 1, ..., g^N, h} over the first two
    generators.

    As a set this has 2N+2 elements; the powers-plus-identity block alone
    has 2N+1 (both counts are reported by `safin_counts`).  The first
    generator must have infinite order, or the powers repeat.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if ctx.num_generators < 2:
        raise ValueError("need at least two generators")
    if ctx.order_of(0) is not None:
        raise ValueError(f"the first generator has order {ctx.order_of(0)}, so g^-N..g^N repeat")
    g, h = ctx.generator(0), ctx.generator(1)
    members = [g ** k for k in range(-N, N + 1)]
    members.append(h)
    return ElementSet(ctx, members)


def safin_counts(N: int) -> dict[str, int]:
    """Both cardinality conventions for the optimality family."""
    return {"powers_block": 2 * N + 1, "with_extra_generator": 2 * N + 2}

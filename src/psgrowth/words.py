"""Exact group element arithmetic for free groups and 2-generator-type
free products of cyclic groups, plus product-set enumeration and seeded
random reduced words.

Elements are stored in canonical normal form as run-length syllable tuples,
so structural equality coincides with equality in the group.  A product
cancels and merges only where its two normal forms meet and splices the
rest, sharing the factors' syllable tuples.  Product sets U_1 U_2 ... U_m
of ElementSets have one engine: each level is a minimal acyclic automaton
over the reversed normal forms, whose states are shared by all levels and
count their words as they are made, so a level costs memory for its
automaton, not for its elements.  `product_sizes` reads the counts and
stores no word; `product` stores the words of the last level alone.  No
other module sees the automaton or the syllable tuples.
Serialization uses compact letter strings: generators are ``a..z``,
inverses ``A..Z`` ("abA" = a * b * a^-1).
"""

from __future__ import annotations

import itertools
import math
import random
import string
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

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
        return _element(ctx, _over(_orders(ctx), self.syllables, ()))

    def _forked(self, other: "GroupElement") -> tuple[tuple, tuple]:
        """The remainders r and s of the two normal forms past their common
        prefix (`_fork`), so that self^-1 * other = r^-1 s (`_over`)."""
        ctx = self.context
        if other.context is not ctx and other.context != ctx:
            raise ValueError("context mismatch")
        return _fork(self.syllables, other.syllables)

    def offset(self, other: "GroupElement") -> "GroupElement":
        """self^-1 * other, the element that carries self to other, read
        from the two normal forms past their common prefix (`_fork`)."""
        r, s = self._forked(other)
        return _element(self.context, _over(_orders(self.context), r, s))

    def offset_length(self, other: "GroupElement") -> int:
        """In a free group, the letter count of self^-1 * other (`_span`),
        with no letter spelled and no offset built."""
        return _span(*self._forked(other))

    def head(self, m: int) -> tuple[int, tuple, tuple]:
        """The syllable count with the first m syllables of self and of
        self^-1, the latter read from the last m syllables alone (`_over`).
        For a conjugate w^-1 g w they label the paths in a tree from w's
        vertex to its image under g and back, one syllable at a time."""
        s = self.syllables
        return len(s), s[:m], _over(_orders(self.context), s, (), m)

    def letters_head(self, k: int) -> tuple[int, tuple, tuple]:
        """In a free group, the letter count (`_span`) with the first k
        letters (gen, +1/-1) of self and of self^-1: for x^-1 g x, the
        length of the paths from x to g x and back in the Cayley tree, and
        the first k edge labels of each.  At k = 1 the two letters are the
        signs of the first and the last syllable; other k spell the first k
        syllables of each (`_over`, `_letters`)."""
        s = self.syllables
        if k == 1 and s:
            (g, e), (h, f) = s[0], s[-1]
            return _span(s, ()), _RISE[g] if e > 0 else _FALL[g], _FALL[h] if f > 0 else _RISE[h]
        back = _over(_orders(self.context), s, (), k)
        return _span(s, ()), _letters(s[:k])[:k], _letters(back)[:k]

    def conjugate_step(self, d: "GroupElement") -> "GroupElement":
        """d^-1 * self * d by two junctions (`_join`) with no element built
        between them: it carries a conjugate w^-1 g w to (w d)^-1 g (w d), in
        a tree across the one-syllable d of an edge, whose inverse is the
        one syllable of d's exponent negated in its factor.  A longer d is
        inverted by `_over`."""
        ctx = self.context
        if d.context is not ctx and d.context != ctx:
            raise ValueError("context mismatch")
        orders, ds = ctx.orders, d.syllables
        if len(ds) == 1:
            g, e = ds[0]
            n = orders[g] if orders else None
            inverse = ((g, -e if n is None else n - e),)
        else:
            inverse = _over(_orders(ctx), ds, ())
        return _element(ctx, _join(orders, _join(orders, inverse, self.syllables), ds))

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
        return sum([abs(e) for _, e in self.syllables])

    def letters(self) -> tuple[tuple[int, int], ...]:
        """Expansion into single letters (gen, +1/-1)."""
        return _letters(self.syllables)

    def first_factor(self) -> Optional[int]:
        return self.syllables[0][0] if self.syllables else None

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


def _orders(ctx: PresentationContext) -> tuple:
    """One order per factor, None for an infinite one: a free group is the
    free product of its infinite cyclic factors."""
    return ctx.orders or (None,) * ctx.rank


def _fork(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """The normal forms `a` and `b` past their longest common syllable
    prefix.

    In a tree the path from a to b leaves a where the two normal forms
    first differ, so with these remainders r and s, a^-1 b = r^-1 s
    (`_over`)."""
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    return a[k:], b[k:]


def _over(orders: tuple, r: tuple, s: tuple, m: int = sys.maxsize) -> tuple:
    """The first m syllables (all by default) of r^-1 s, for two `_fork`
    remainders r and s or for s = () (r^-1 alone); with no bound m, for
    any two normal forms, since `_join` then cancels all it has to.

    This is the package's one inverse rule: r's syllables from the last,
    each inverted in its factor (`orders` is `_orders` of the context).
    Two `_fork` remainders begin with different syllables, so `_join` then
    merges at most r's first syllable into s's first and cancels nothing:
    the first m syllables read only the last m syllables of r and the
    first m + 1 - len(r) of s."""
    out: list = []
    for g, e in reversed(r):
        if len(out) == m:
            return tuple(out)
        n = orders[g]
        out.append((g, -e if n is None else n - e))
    return _join(orders, tuple(out), s[: m - len(out) + 1])[:m]


def _span(r: tuple, s: tuple) -> int:
    """The letter count of r^-1 s for two `_fork` remainders in a free
    group: their letters, less twice the overlap of their first syllables
    when these are powers of one generator with the same sign, which is
    all that `_over` cancels."""
    n = 0
    for _, e in r:
        n += e if e > 0 else -e
    for _, e in s:
        n += e if e > 0 else -e
    if r and s:
        (g, e), (h, f) = r[0], s[0]
        if g == h and (e > 0) == (f > 0):
            n -= 2 * min(abs(e), abs(f))
    return n


# the one-letter runs ((g, 1),) and ((g, -1),) of each generator, shared by
# every letter expansion
_RISE = tuple(((g, 1),) for g in range(26))
_FALL = tuple(((g, -1),) for g in range(26))


def _letters(syllables: tuple) -> tuple:
    """The normal form spelled one letter (gen, +1/-1) at a time, each
    syllable expanded as one run."""
    out: list = []
    for g, e in syllables:
        out += _RISE[g] * e if e > 0 else _FALL[g] * -e
    return tuple(out)


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
        cls, context: PresentationContext, syllables: frozenset
    ) -> "ElementSet":
        """The set of the normal forms `syllables`, trusted to be in normal
        form over `context`."""
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
        return hash((self.context, self._members))

    def __repr__(self) -> str:
        return f"ElementSet({len(self)} elements in {self.context})"

    def to_strings(self) -> list[str]:
        return [word for _, word in sorted(map(_shortlex, self._members))]

    @classmethod
    def from_strings(cls, ctx: PresentationContext, texts: Iterable[str]) -> "ElementSet":
        return cls(ctx, (parse(ctx, t) for t in texts))


class _Automaton:
    """Product-set levels as minimal acyclic automata sharing one state table.

    A level is the set of its normal forms read from the right end, one
    digit at a time: a digit is one whole syllable (g, e), of a finite or an
    infinite factor alike, so normal forms and digit strings are in
    bijection and cancellation at a product's junction is a prefix question.
    A state maps each digit it reads to the state after it.  States are
    hash-consed in one table all levels share, so a language is one state
    (bottom-up minimisation of acyclic automata), and each state's word
    count is summed as it is made.

    The items of a subset construction are a state (an int >= 0) or an
    emission node (an int < 0) of the level being made.
    """

    def __init__(self, context: PresentationContext):
        self.orders = _orders(context)
        self.out: list[dict] = []  # state -> {digit: state after it}
        self.accept: list[bool] = []
        self.count: list[int] = []
        self.state_ids: dict[tuple, int] = {}
        self.words: dict[int, list] = {}  # id of a set multiplied -> its digit strings
        self.dead = self._state(False, {})
        self.leaf = self._state(True, {})  # the language of the empty word

    # The digit of the syllable (g, e) is e * k + g for k factors: no table
    # grows with an order or an exponent.

    def digits(self, syllables: tuple) -> tuple:
        k = len(self.orders)
        return tuple(e * k + g for g, e in syllables)

    def _inverse(self, digit: int) -> int:
        k = len(self.orders)
        g, e = digit % k, digit // k
        n = self.orders[g]
        return (-e if n is None else n - e) * k + g

    def _state(self, accept: bool, out: dict) -> int:
        """The state that reads the digits of `out`, given in increasing
        order, into their states."""
        key = (accept, *out.items())
        state = self.state_ids.get(key)
        if state is None:
            state = self.state_ids[key] = len(self.count)
            self.out.append(out)
            self.accept.append(accept)
            count = self.count
            count.append(accept + sum(count[s] for s in out.values()))
        return state

    def _restrict(self, state: int, junction: int) -> Optional[int]:
        """`state` without the words whose first digit lies in the factor of
        the digit `junction` read before it, which would cancel or merge
        with it, or None if no word is left."""
        k = len(self.orders)
        g = junction % k
        out = self.out[state]
        kept = {d: s for d, s in out.items() if d % k != g}
        if len(kept) == len(out):
            return state
        if not kept and not self.accept[state]:
            return None
        return self._state(self.accept[state], kept)

    def times(self, root: int, U: ElementSet, budget: Optional[int]) -> int:
        """The root of the level (language of `root`) * U, or
        BudgetExceededError once a state it makes accepts more than
        `budget` words (no budget if None)."""
        out, inverse = self.out, self._inverse
        emit: list[tuple] = []  # emission node ~i: (digit, items after it, q[j] or None)
        start: list = []
        words = self.words.get(id(U))
        if words is None:
            words = self.words[id(U)] = [self.digits(s) for s in U._members]
        for u in words:
            m = len(u)
            # q[j]: the old state after reading u_1^-1 ... u_j^-1, the last
            # j digits of an old word that u's first j digits cancel
            q = [root]
            while len(q) <= m:
                nxt = out[q[-1]].get(inverse(u[len(q) - 1]))
                if nxt is None:
                    break
                q.append(nxt)
            # u's words read u_m ... u_{j+1}, then go on in q[j] with no
            # first digit of u_{j+1}'s factor; merging u_{j+1} into such an
            # old digit d reads the merged digit, then goes on after d.  Each
            # syllable has a node that reads it; with no q[j] it has no old
            # state, since no old word ends in u_1^-1 ... u_j^-1.
            if m:
                start.append(~len(emit))
            for j in reversed(range(m)):
                items = [~(len(emit) + 1)] if j else []
                old = q[j] if j < len(q) else None
                if old is not None:
                    rest = self._restrict(old, u[j])
                    if rest is not None:
                        items.append(rest)
                emit.append((u[j], items, old))
            if len(q) > m:
                start.append(q[m])
        stop = self._determinize(frozenset(start), emit, budget)
        if budget is not None and self.count[stop] > budget:
            raise BudgetExceededError(f"product set exceeded budget of {budget} elements")
        return stop

    def language(self, root: int) -> Iterator[tuple]:
        """The words accepted at `root`, as normal-form syllable tuples: a
        depth-first walk that decodes each digit once into its syllable and
        puts it before the tail read after it."""
        k = len(self.orders)
        out, accept = self.out, self.accept
        syllable: dict[int, tuple] = {}
        stack = [(root, ())]
        while stack:
            state, tail = stack.pop()
            if accept[state]:
                yield tail
            for d, nxt in out[state].items():
                head = syllable.get(d)
                if head is None:
                    head = syllable[d] = ((d % k, d // k),)
                stack.append((nxt, head + tail))

    def _determinize(self, first: frozenset, emit: list, budget: Optional[int]) -> int:
        """The state of the subset `first`.  An iterative depth-first subset
        construction makes each state after its children; a run of subsets
        with one move and no accepting item is walked in a loop, and once
        its end is known it becomes one state per digit."""
        out, accept, count = self.out, self.accept, self.count
        orders, k = self.orders, len(self.orders)
        made: dict[frozenset, int] = {}
        # the subsets recorded are the first and the children of frames,
        # each the start of a run; the subsets inside a run are walked, not
        # recorded.  A level of N words has at most 2N - 1 prefixes that
        # accept or branch, and the run of a live recorded subset ends at
        # one that no other reaches, unless it is the one live child of a
        # frame that branches only on dead items.  Each emission node lies
        # on one path, so at most one subset per node is dead, such a frame
        # or such a child.  Past 2 budget + 3 nodes + 1 subsets the level is
        # over budget, even before its count is known.
        cap = math.inf if budget is None else 2 * budget + 3 * len(emit) + 1
        budget = math.inf if budget is None else budget

        def known(subset):
            """The state of `subset`, or the subset to make first."""
            if len(subset) == 1:
                for x in subset:
                    if x >= 0:
                        return x
            return made.get(subset, subset)

        def expand(subset):
            """Whether `subset` accepts, its digits in order and the subset
            after each."""
            moves: dict[int, set] = {}
            final = False
            for x in subset:
                if x < 0:
                    digit, items, old = emit[~x]
                    if items:
                        moves.setdefault(digit, set()).update(items)
                    if old is None:
                        continue
                    # the emitted syllable merges into an old one of its factor
                    g, f = digit % k, digit // k
                    n = orders[g]
                    for d, y in out[old].items():
                        if d % k == g:
                            e = d // k + f if n is None else (d // k + f) % n
                            if e:
                                moves.setdefault(e * k + g, set()).add(y)
                    continue
                if accept[x]:
                    final = True
                for d, y in out[x].items():
                    if d in moves:
                        moves[d].add(y)
                    else:
                        moves[d] = {y}
            digits = sorted(moves)
            return final, digits, [frozenset(moves[d]) for d in digits]

        def chain(run, state):
            """The state that reads the digits of `run`, then goes on in
            `state`."""
            if not count[state]:
                return self.dead
            for d in reversed(run):
                state = self._state(False, {d: state})
            return state

        stack: list[list] = []

        def open_frame(subset):
            """Push the frame that ends the run from `subset`, or record the
            state of `subset` when the run reaches a state already made."""
            origin, run = subset, []
            while True:
                final, digits, targets = expand(subset)
                if final or len(digits) != 1:
                    stack.append([origin, run, final, digits, targets, []])
                    return
                run.append(digits[0])
                subset = targets[0]
                tail = known(subset)
                if tail.__class__ is int:
                    made[origin] = chain(run, tail)
                    return

        result = known(first)
        while result.__class__ is frozenset:
            open_frame(result)
            while stack:
                origin, run, final, digits, targets, kids = stack[-1]
                for target in targets[len(kids):]:
                    tail = known(target)
                    if tail.__class__ is frozenset:
                        open_frame(tail)
                        break
                    kids.append(tail)
                else:
                    stack.pop()
                    state = self._state(final, {d: s for d, s in zip(digits, kids) if count[s]})
                    state = made[origin] = chain(run, state)
                    if count[state] > budget or len(made) > cap:
                        raise BudgetExceededError(f"product set exceeded budget of {budget} elements")
            result = known(first)
        return result


def _roots(
    dfa: _Automaton, first: ElementSet, later: Iterable[ElementSet], budget: int
) -> Iterator[int]:
    """The roots in `dfa` of the levels U_1, U_1 U_2, ..., U_1 ... U_m of
    element sets over one context, for U_1 = `first` and the sets of
    `later` after it, each level made only when asked for and each later
    set drawn only then.  The first level is U_1 itself, never held to
    `budget`; a later level raises BudgetExceededError once it has more
    than `budget` elements."""
    root = dfa.times(dfa.leaf, first, None)
    yield root
    for U in later:
        if U.context != first.context:
            raise ValueError("element set context mismatch")
        root = dfa.times(root, U, budget)
        yield root


def product_sizes(sets: Iterable[ElementSet], budget: int) -> Iterator[int]:
    """|U_1|, |U_1 U_2|, ..., |U_1 ... U_m| for element sets over one
    context, counted on each level's automaton; a caller that stops early
    never makes the next level, and `sets` may be any iterable, drawn one
    set a level (`itertools.repeat(U, n)` holds no list of n sets).
    Raises BudgetExceededError once a level after the first has more than
    `budget` elements."""
    sets = iter(sets)
    first = next(sets)
    dfa = _Automaton(first.context)
    for root in _roots(dfa, first, sets, budget):
        yield dfa.count[root]


def product(sets: Iterable[ElementSet], budget: int) -> ElementSet:
    """The product set U_1 U_2 ... U_m of element sets over one context, or
    BudgetExceededError once a level after the first has more than `budget`
    elements, before any word of it is stored.  `sets` may be any iterable,
    as for `product_sizes`.  It holds the syllables of the last level's
    words; its elements are built only if iterated."""
    sets = iter(sets)
    first = next(sets)
    second = next(sets, None)
    if second is None:
        return first
    dfa = _Automaton(first.context)
    for root in _roots(dfa, first, itertools.chain((second,), sets), budget):
        pass
    return ElementSet._from_syllables(first.context, frozenset(dfa.language(root)))


def product_set(U: ElementSet, n: int, budget: int = 10_000_000) -> ElementSet:
    """The set of all products of exactly n elements of U, deduplicated:
    `product` of n copies of U."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(U) == 0:
        raise ValueError("U must be nonempty")
    return product(itertools.repeat(U, n), budget)


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

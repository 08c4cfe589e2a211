import itertools
import random
import string
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psgrowth import words
from psgrowth.growth import growth_report
from psgrowth.spaces import FreeGroupTree, FreeProductTree
from psgrowth.words import (
    BudgetExceededError,
    ElementSet,
    GroupElement,
    _join,
    cyclic_reduce,
    free_group,
    free_product,
    parse,
    power_of,
    primitive_root,
    product,
    product_set,
    product_sizes,
    random_reduced_word,
    safin_counts,
    safin_family,
)

F2 = free_group(2)
Z2Z3 = free_product(2, 3)
Z5Z7 = free_product(5, 7)


# ---------------------------------------------------------------------------
# oracle: independent letter-by-letter reduction, used to derive expectations


def letter_reduce(letters):
    out = []
    for l in letters:
        if out and out[-1][0] == l[0] and out[-1][1] == -l[1]:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def oracle_mul(a, b):
    return letter_reduce(a + b)


def to_letters(s):
    return letter_reduce(
        tuple(
            (ord(c) - 97, 1) if c.islower() else (ord(c.lower()) - 97, -1)
            for c in s
            if c != "1"
        )
    )


def random_word(rng, max_len=8):
    s = ""
    for _ in range(rng.randint(0, max_len)):
        s += rng.choice("abAB")
    return parse(F2, s)


# ---------------------------------------------------------------------------
# multiply / inverse


def test_multiply_examples():
    a, b = F2.generator(0), F2.generator(1)
    assert (a * a.inverse()).is_identity
    # (ab)(b^-1 a) -> a^2, from the letter-cancellation oracle
    assert oracle_mul(to_letters("ab"), to_letters("Ba")) == to_letters("aa")
    assert parse(F2, "ab") * parse(F2, "Ba") == parse(F2, "aa")
    assert str(a * b * a.inverse()) == "abA"


def test_multiply_free_product_mod_orders():
    s, t = Z2Z3.generator(0), Z2Z3.generator(1)
    # (st)(t^2 s) = s t^3 s = s s = 1 in Z/2 * Z/3
    assert ((s * t) * (t * t * s)).is_identity
    assert (t * t * t).is_identity
    assert t * t == t.inverse()
    assert str(t.inverse()) == "bb"


def test_multiply_context_mismatch():
    with pytest.raises(ValueError):
        F2.generator(0) * Z2Z3.generator(0)


def test_inverse_examples():
    assert F2.identity().inverse().is_identity
    assert parse(F2, "aB").inverse() == parse(F2, "bA")
    assert parse(F2, "aaabb").inverse() == parse(F2, "BBAAA")


@given(st.text(alphabet="abAB", max_size=12), st.text(alphabet="abAB", max_size=12))
def test_multiply_matches_letter_oracle(x, y):
    assert to_letters(str(parse(F2, x) * parse(F2, y))) == oracle_mul(
        to_letters(x), to_letters(y)
    )


@settings(max_examples=60)
@given(
    st.text(alphabet="abAB", max_size=10),
    st.text(alphabet="abAB", max_size=10),
    st.text(alphabet="abAB", max_size=10),
)
def test_associativity(x, y, z):
    gx, gy, gz = parse(F2, x), parse(F2, y), parse(F2, z)
    assert (gx * gy) * gz == gx * (gy * gz)


@given(st.text(alphabet="abAB", max_size=12))
def test_inverse_involution_and_cancellation(x):
    g = parse(F2, x)
    assert g.inverse().inverse() == g
    assert (g * g.inverse()).is_identity


# ---------------------------------------------------------------------------
# free products: a letter-by-letter reducer as the oracle


def fp_reduce(orders, letters):
    """Syllables of a letter sequence in the free product of cyclic groups of
    the given orders, one letter at a time: a finite factor's exponent wraps
    mod its order, an infinite factor's (order None) never wraps."""
    out = []
    for g, s in letters:
        n = orders[g]
        if out and out[-1][0] == g:
            e = out[-1][1] + s
            if n is not None:
                e %= n
            if e:
                out[-1][1] = e
            else:
                out.pop()
        else:
            out.append([g, s % n if n is not None else s])
    return tuple((g, e) for g, e in out)


def raw_letters(text):
    return [(ord(c.lower()) - 97, 1 if c.islower() else -1) for c in text]


def inverse_letters(letters):
    return [(g, -s) for g, s in reversed(letters)]


ZZ3 = free_product(None, 3)
FREE_PRODUCTS = {"Z/2*Z/3": Z2Z3, "Z/5*Z/7": Z5Z7, "Z*Z/3": ZZ3}
fp_contexts = st.sampled_from(sorted(FREE_PRODUCTS))
fp_texts = st.text(alphabet="abAB", max_size=14)


@given(fp_contexts, fp_texts, fp_texts)
def test_free_product_multiply_matches_letter_oracle(name, x, y):
    ctx = FREE_PRODUCTS[name]
    prod = parse(ctx, x) * parse(ctx, y)
    assert prod.syllables == fp_reduce(ctx.orders, raw_letters(x + y))


@given(fp_contexts, fp_texts)
def test_free_product_inverse_matches_letter_oracle(name, x):
    ctx = FREE_PRODUCTS[name]
    inv = parse(ctx, x).inverse()
    assert inv.syllables == fp_reduce(ctx.orders, inverse_letters(raw_letters(x)))


@settings(max_examples=60)
@given(fp_contexts, st.text(alphabet="abAB", max_size=8), st.integers(-4, 6))
def test_free_product_power_matches_letter_oracle(name, x, k):
    ctx = FREE_PRODUCTS[name]
    letters = raw_letters(x) if k >= 0 else inverse_letters(raw_letters(x))
    assert (parse(ctx, x) ** k).syllables == fp_reduce(ctx.orders, letters * abs(k))


def test_letter_oracle_wraps_finite_factors_only():
    # b^3 = 1 in Z/3, a^-2 stays a^-2 in Z
    assert fp_reduce(ZZ3.orders, raw_letters("AAbbb")) == ((0, -2),)
    assert fp_reduce(Z5Z7.orders, raw_letters("A")) == ((0, 4),)
    assert fp_reduce(Z2Z3.orders, raw_letters("abBA")) == ()


# ---------------------------------------------------------------------------
# normal form and identity


def assert_normal_form(x):
    ctx = x.context
    for (g, _), (h, _) in zip(x.syllables, x.syllables[1:]):
        assert g != h
    for g, e in x.syllables:
        n = ctx.order_of(g)
        assert 1 <= e < n if n is not None else e != 0
    again = parse(ctx, str(x))
    assert again == x and hash(again) == hash(x)


ALL_CONTEXTS = dict(FREE_PRODUCTS, F2=F2)


@given(st.sampled_from(sorted(ALL_CONTEXTS)), fp_texts, fp_texts)
def test_products_and_inverses_are_in_normal_form(name, x, y):
    ctx = ALL_CONTEXTS[name]
    gx, gy = parse(ctx, x), parse(ctx, y)
    for el in (gx * gy, gx.inverse(), gx * gy.inverse(), gx ** 3):
        assert_normal_form(el)


@settings(derandomize=True, max_examples=200)
@given(st.sampled_from(sorted(ALL_CONTEXTS)), fp_texts, fp_texts, st.integers(0, 4))
@example("Z/5*Z/7", "abab", "abaab", 1)  # remainders a^1 and a^2 merge
@example("F2", "abA", "abB", 2)
@example("F2", "ab", "ab", 0)
def test_fork_reads_are_heads_of_the_offsets(name, x, y, m):
    # x^-1 y and y^-1 x read past the common prefix of x and y, whole and
    # cut to their first m syllables (first m letters in a free group),
    # against the products of inverses
    ctx = ALL_CONTEXTS[name]
    gx, gy = parse(ctx, x), parse(ctx, y)
    there, back = gx.inverse() * gy, gy.inverse() * gx
    assert gx.offset(gy) == there
    assert gx.fork_head(gy, m) == (there.syllable_count, there.syllables[:m], back.syllables[:m])
    if ctx.kind == "free":
        assert gx.offset_length(gy) == there.word_length()
        assert gx.fork_letters_head(gy, m) == (
            there.word_length(), there.letters()[:m], back.letters()[:m])


def test_equal_syllables_in_two_contexts_stay_apart():
    x, y = parse(F2, "ab"), parse(Z5Z7, "ab")
    assert x.syllables == y.syllables
    assert x != y and y != x
    assert len({x, y}) == 2
    assert {x, y} == {parse(F2, "ab"), parse(Z5Z7, "ab")}


def test_public_constructor_equals_arithmetic():
    # GroupElement(ctx, syllables) stays the public way to build a normal form
    built = GroupElement(Z5Z7, ((0, 2), (1, 6)))
    assert built == parse(Z5Z7, "aaB") and hash(built) == hash(parse(Z5Z7, "aaB"))
    assert built.context is Z5Z7 and built.syllables == ((0, 2), (1, 6))


def test_identity_neutral_random():
    rng = random.Random(11)
    e = F2.identity()
    for _ in range(50):
        g = random_word(rng)
        assert g * e == g and e * g == g


# ---------------------------------------------------------------------------
# cyclic reduction


def test_cyclic_reduce_examples():
    core, conj = cyclic_reduce(parse(F2, "abA"))
    assert (core, conj) == (parse(F2, "b"), parse(F2, "a"))
    core, conj = cyclic_reduce(parse(F2, "abab"))
    assert (core, conj) == (parse(F2, "abab"), F2.identity())
    core, conj = cyclic_reduce(parse(F2, "aabAA"))
    assert (core, conj) == (parse(F2, "b"), parse(F2, "aa"))


def test_cyclic_reduce_free_product():
    g = parse(Z2Z3, "bab")  # t s t, conjugate of (t^2 s t t^-2)... reduce ends
    core, conj = cyclic_reduce(g)
    assert conj * core * conj.inverse() == g
    assert core.first_factor() != core.last_factor() or core.syllable_count <= 1


@given(st.text(alphabet="abAB", min_size=1, max_size=14))
def test_cyclic_reduce_recomposes(x):
    g = parse(F2, x)
    core, conj = cyclic_reduce(g)
    assert conj * core * conj.inverse() == g
    if core.syllable_count >= 2:
        first = core.letters()[0]
        last = core.letters()[-1]
        assert not (first[0] == last[0] and first[1] == -last[1])


@given(st.sampled_from(sorted(ALL_CONTEXTS)), st.text(alphabet="abAB", min_size=1, max_size=14))
def test_cyclic_reduce_recomposes_in_every_context(name, x):
    g = parse(ALL_CONTEXTS[name], x)
    core, conj = cyclic_reduce(g)
    assert_normal_form(core)
    assert_normal_form(conj)
    assert conj * core * conj.inverse() == g
    assert core.syllable_count <= 1 or core.first_factor() != core.last_factor()


# ---------------------------------------------------------------------------
# primitive roots


def test_primitive_root_examples():
    ab = parse(F2, "ab")
    assert primitive_root(ab * ab * ab) == (ab, 3)
    assert primitive_root(parse(F2, "a")) == (parse(F2, "a"), 1)
    assert primitive_root(parse(F2, "abababab")) == (ab, 4)


def test_primitive_root_conjugated_power():
    g = parse(F2, "ba") * (parse(F2, "ab") ** 5) * parse(F2, "ba").inverse()
    root, k = primitive_root(g)
    assert k == 5
    assert root ** 5 == g
    assert primitive_root(root)[1] == 1


def test_primitive_root_identity_error():
    with pytest.raises(ValueError):
        primitive_root(F2.identity())


def test_primitive_root_free_product():
    st_ = parse(Z2Z3, "ab")
    root, k = primitive_root(st_ ** 4)
    assert (root, k) == (st_, 4)


@settings(max_examples=40)
@given(st.text(alphabet="abAB", min_size=1, max_size=8), st.integers(1, 4))
def test_primitive_root_roundtrip(x, k):
    g = parse(F2, x)
    if g.is_identity:
        return
    root, power = primitive_root(g ** k)
    assert root ** power == g ** k
    assert primitive_root(root)[1] == 1


@settings(max_examples=60)
@given(
    st.sampled_from(sorted(ALL_CONTEXTS)),
    st.text(alphabet="abAB", min_size=1, max_size=8),
    st.integers(1, 4),
)
def test_primitive_root_roundtrip_in_every_context(name, x, k):
    g = parse(ALL_CONTEXTS[name], x) ** k
    if g.is_identity:
        return
    root, power = primitive_root(g)
    assert_normal_form(root)
    assert root ** power == g


def letter_word(letters):
    return "".join(chr(97 + g) if s > 0 else chr(65 + g) for g, s in letters) or "1"


def letter_root(text):
    """The free-group oracle from letters alone, for a nontrivial word: strip
    inverse end letters, then take the shortest letter period of what is
    left.  Returns the stripped prefix, the cyclic core, its period and the
    power."""
    core = list(to_letters(text))
    conj = []
    while len(core) >= 2 and core[0][0] == core[-1][0] and core[0][1] == -core[-1][1]:
        conj.append(core[0])
        core = core[1:-1]
    n = len(core)
    d = next(d for d in range(1, n + 1) if n % d == 0 and core[:d] * (n // d) == core)
    return conj, core, core[:d], n // d


@settings(deadline=None, max_examples=150)
@given(st.one_of(
    st.tuples(st.just(2), st.text(alphabet="abAB", min_size=1, max_size=16)),
    st.tuples(st.just(3), st.text(alphabet="abcABC", min_size=1, max_size=16)),
))
@example((2, "aba"))
@example((2, "bAAbb"))
@example((2, "bbbABBBB"))
@example((2, "aabAA"))
@example((2, "abaaba"))  # a square whose end letters agree
def test_free_group_reduction_matches_the_letter_oracle(case):
    rank, text = case
    ctx = free_group(rank)
    g = parse(ctx, text)
    core, _ = cyclic_reduce(g)
    if g.is_identity:
        assert core.is_identity
        return
    conj, core_letters, period, k = letter_root(text)
    assert core.word_length() == len(core_letters)
    assert core.syllable_count <= 1 or core.first_factor() != core.last_factor()
    length = FreeGroupTree(rank).translation_length(g).translation_length
    assert length == len(core_letters)
    c = parse(ctx, letter_word(conj))
    assert primitive_root(g) == (c * parse(ctx, letter_word(period)) * c.inverse(), k)


def test_power_of():
    ab = parse(F2, "ab")
    assert power_of(ab ** 7, ab) == 7
    assert power_of(ab ** -3, ab) == -3
    assert power_of(parse(F2, "ba"), ab) is None
    assert power_of(F2.identity(), ab) == 0


ZZ = free_product(None, None)


def test_single_syllable_roots():
    # a syllable of an infinite factor has the generator as its root, as in
    # F_2; a finite-order root reaches every power of itself
    a, x = Z5Z7.generator(0), ZZ.generator(0)
    assert power_of(a**2, a) == 2
    assert power_of(a**2, a**3) == 4
    assert power_of(a**2, Z5Z7.generator(1)) is None
    assert primitive_root(x**4) == (x, 4)
    assert primitive_root(x**-4) == (x.inverse(), 4)
    assert power_of(x**4, x) == 4 and power_of(x**-4, x**2) == -2
    assert power_of(x**3, x**2) is None
    f = F2.generator(0)
    assert primitive_root(f**4) == (f, 4) and power_of(f**4, f) == 4


ROOT_CONTEXTS = {"F2": F2, "Z/5*Z/7": Z5Z7, "Z*Z": ZZ, "Z*Z/3": ZZ3}


@settings(max_examples=150)
@given(st.sampled_from(sorted(ROOT_CONTEXTS)), st.text(alphabet="abAB", max_size=8))
def test_power_of_finds_every_power(name, x):
    r = parse(ROOT_CONTEXTS[name], x)
    for j in range(-4, 5):
        assert r ** power_of(r**j, r) == r**j


# ---------------------------------------------------------------------------
# product sets


def test_product_set_examples():
    U = ElementSet.from_strings(F2, ["a", "b"])
    sq = product_set(U, 2)
    assert sq.to_strings() == sorted(["aa", "ab", "ba", "bb"], key=lambda s: (len(s), s))
    assert len(sq) == 4

    U2 = ElementSet.from_strings(F2, ["a", "A"])
    assert len(product_set(U2, 2)) == 3

    U3 = ElementSet(F2, [F2.identity()])
    for n in (1, 2, 5):
        assert len(product_set(U3, n)) == 1


def test_product_set_is_exactly_n_fold():
    # oracle: literal n-tuple enumeration, in F_2 and in Z/5 * Z/7
    cases = [
        (F2, ["a", "b", "AB"]),
        (Z5Z7, ["a", "b", "ab"]),
        (Z5Z7, ["aa", "bbb", "ba", "abbbbbb"]),
    ]
    for ctx, texts in cases:
        U = ElementSet.from_strings(ctx, texts)
        for n in (1, 2, 3):
            expect = set()
            for tup in itertools.product(list(U), repeat=n):
                prod = ctx.identity()
                for t in tup:
                    prod = prod * t
                expect.add(prod)
            assert set(product_set(U, n)) == expect


def test_product_set_budget():
    U = ElementSet.from_strings(F2, ["a", "b", "A", "B"])
    with pytest.raises(BudgetExceededError):
        product_set(U, 6, budget=100)


# the tuple levels against the letter-by-letter oracle, on every backend
# context: F_k has no finite factor, so its oracle orders are all None
LEVEL_SPACES = {
    "F2": FreeGroupTree(2),
    "F3": FreeGroupTree(3),
    "Z/2*Z/3": FreeProductTree((2, 3)),
    "Z/5*Z/7": FreeProductTree((5, 7)),
    "Z*Z/3": FreeProductTree((None, 3)),
}


def oracle_product(sets):
    """U_1 ... U_m as syllables, by reducing every m-tuple's letters at once."""
    ctx = sets[0].context
    orders = ctx.orders or (None,) * ctx.rank
    words = [[raw_letters(str(u)) if not u.is_identity else [] for u in S] for S in sets]
    return {fp_reduce(orders, sum(tup, [])) for tup in itertools.product(*words)}


def oracle_levels(U, n):
    """U^k for k = 1..n, as syllables."""
    return [oracle_product([U] * k) for k in range(1, n + 1)]


@st.composite
def level_inputs(draw):
    name = draw(st.sampled_from(sorted(LEVEL_SPACES)))
    ctx = LEVEL_SPACES[name].context
    k = ctx.num_generators
    alphabet = string.ascii_lowercase[:k] + string.ascii_uppercase[:k]
    texts = draw(st.lists(st.text(alphabet=alphabet, max_size=5), min_size=1, max_size=5))
    members = [parse(ctx, t) for t in texts]
    if draw(st.booleans()):
        members.append(ctx.identity())
    if draw(st.booleans()):
        members.append(members[0].inverse())
    return name, ElementSet(ctx, members), draw(st.integers(1, 3))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(level_inputs())
def test_tuple_levels_match_letter_oracle(case):
    name, U, n = case
    space = LEVEL_SPACES[name]
    levels = oracle_levels(U, n)
    got = product_set(U, n)
    assert got.context is U.context
    assert {el.syllables for el in got} == levels[-1]
    assert growth_report(space, U, n).sizes == {k + 1: len(lv) for k, lv in enumerate(levels)}


@st.composite
def mixed_inputs(draw):
    """[U1, U2, U1] or [U, V]: sets of short words over one context (the
    empty word is the identity), with an inverse among them now and then."""
    name = draw(st.sampled_from(sorted(LEVEL_SPACES)))
    ctx = LEVEL_SPACES[name].context
    k = ctx.num_generators
    alphabet = string.ascii_lowercase[:k] + string.ascii_uppercase[:k]

    def element_set():
        texts = draw(st.lists(st.text(alphabet=alphabet, max_size=4), min_size=1, max_size=4))
        members = [parse(ctx, t) for t in texts]
        if draw(st.booleans()):
            members.append(members[0].inverse())
        return ElementSet(ctx, members)

    U, V = element_set(), element_set()
    return draw(st.sampled_from([[U, V, U], [U, V]]))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(mixed_inputs())
def test_mixed_products_match_letter_oracle(sets):
    want = [oracle_product(sets[:k]) for k in range(1, len(sets) + 1)]
    got = product(sets, 10**6)
    assert got.context is sets[0].context
    assert {el.syllables for el in got} == want[-1]
    sizes = list(product_sizes(sets, 10**6))
    assert sizes == [len(w) for w in want]
    assert sizes == [len(product(sets[:k], 10**6)) for k in range(1, len(sets) + 1)]


def test_a_product_of_one_set_is_that_set(monkeypatch):
    # the first level is U_1 itself, never held to the budget: no automaton
    def refused(context):
        raise AssertionError("one set needs no automaton")

    monkeypatch.setattr(words, "_Automaton", refused)
    U = ElementSet.from_strings(F2, ["ab", "A", "1", "bbA"])
    assert product([U], 1) == U


def test_levels_are_drawn_from_any_iterable():
    # the level driver draws one set a level, so n copies of U need no list
    # of n sets: a caller passes `itertools.repeat` or a generator
    U = ElementSet.from_strings(F2, ["a", "b"])
    endless = product_sizes(itertools.repeat(U, 10**12), 100)
    assert list(itertools.islice(endless, 5)) == [2, 4, 8, 16, 32]
    with pytest.raises(BudgetExceededError):
        list(product_sizes(itertools.repeat(U, 10**12), 100))
    assert product((U for _ in range(3)), 100) == product([U, U, U], 100)
    assert product(iter([U]), 1) is U


def test_product_refuses_sets_over_two_contexts():
    with pytest.raises(ValueError, match="context mismatch"):
        product([ElementSet.from_strings(F2, ["a"]), ElementSet.from_strings(Z5Z7, ["a"])], 10)


@st.composite
def junction_inputs(draw):
    """A level and its factors as ElementSets: short words, the identity,
    inverse pairs, and power families w^-N..w^N of a word w, whose products
    cancel through several syllables."""
    name = draw(st.sampled_from(sorted(LEVEL_SPACES)))
    ctx = LEVEL_SPACES[name].context
    k = ctx.num_generators
    alphabet = string.ascii_lowercase[:k] + string.ascii_uppercase[:k]
    word = st.text(alphabet=alphabet, max_size=6)

    def members():
        out = [parse(ctx, t) for t in draw(st.lists(word, max_size=4))]
        if draw(st.booleans()):
            out.append(ctx.identity())
        if out and draw(st.booleans()):
            out.append(draw(st.sampled_from(out)).inverse())
        if draw(st.booleans()):
            w = parse(ctx, draw(word))
            n_big = draw(st.integers(1, 4))
            out.extend(w**i for i in range(-n_big, n_big + 1))
        return ElementSet(ctx, out)

    return ctx, members(), members()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(junction_inputs())
def test_level_is_the_set_of_pairwise_joins(case):
    ctx, current, factors = case
    want = {_join(ctx.orders, a.syllables, b.syllables) for a in current for b in factors}
    got = product([current, factors], max(len(want), 1))
    assert {el.syllables for el in got} == want


def test_budget_boundary_is_the_level_size():
    space = LEVEL_SPACES["Z/5*Z/7"]
    U = ElementSet.from_strings(space.context, ["1", "a", "A", "ab", "bbb"])
    size = len(oracle_levels(U, 3)[-1])
    assert len(product_set(U, 3, budget=size)) == size
    with pytest.raises(BudgetExceededError):
        product_set(U, 3, budget=size - 1)
    assert not growth_report(space, U, 3, budget=size).truncated
    short = growth_report(space, U, 3, budget=size - 1)
    assert short.truncated and sorted(short.sizes) == [1, 2]


def test_a_product_set_stores_syllables_not_elements():
    # one seeded F_2 level: the returned set holds one tuple per element and
    # no element objects until it is iterated; an element per product would
    # cost about 50 bytes more for each one stored
    rng = random.Random(3)
    U = ElementSet(F2, [random_reduced_word(rng, F2, rng.randint(4, 8)) for _ in range(50)])
    tracemalloc.start()
    try:
        level3 = product_set(U, 3)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / len(level3) < 200


def test_a_product_set_peaks_at_its_last_level():
    # 60 seeded F_2 words, n = 3 (214,903 elements): the last level's words
    # are stored once, as the set returned, so making it peaks little above
    # what that set holds; a copy of the set would peak about 1.25 times as
    # high
    rng = random.Random(3)
    U = ElementSet(F2, [random_reduced_word(rng, F2, rng.randint(4, 8)) for _ in range(60)])
    tracemalloc.start()
    try:
        level3 = product_set(U, 3)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(level3) == 214_903
    assert peak <= 1.15 * held


def test_an_over_budget_product_set_stops_at_the_count():
    # the same 60 seeded F_2 words, n = 3: level 3 counts 214,903 elements,
    # past the budget, so it is refused before any of its words is stored
    rng = random.Random(3)
    U = ElementSet(F2, [random_reduced_word(rng, F2, rng.randint(4, 8)) for _ in range(60)])

    def over_budget():
        with pytest.raises(BudgetExceededError):
            product_set(U, 3, budget=200_000)

    assert traced_peak(over_budget) < 8_000_000


def traced_peak(make) -> int:
    tracemalloc.start()
    try:
        made = make()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        del made


def test_counting_a_level_peaks_below_a_quarter_of_its_set():
    # the same 60 seeded F_2 words, n = 3: the count path holds automata,
    # not the 214,903 elements of the last level
    rng = random.Random(3)
    U = ElementSet(F2, [random_reduced_word(rng, F2, rng.randint(4, 8)) for _ in range(60)])
    assert list(product_sizes([U] * 3, 10**7))[-1] == 214_903
    counted = traced_peak(lambda: list(product_sizes([U] * 3, 10**7)))
    stored = traced_peak(lambda: product_set(U, 3))
    assert counted < stored / 4


# every context the count oracle runs in: F_1..F_3 and free products with
# finite factors only, with an infinite factor, and with both; a config may
# ask for any order, so one is far larger than any table of syllables
COUNT_CONTEXTS = {
    "Z/1000003*Z/3": free_product(1_000_003, 3),
    "F1": free_group(1),
    "F2": F2,
    "F3": free_group(3),
    "Z/5*Z/7": Z5Z7,
    "Z/2*Z/3": Z2Z3,
    "Z/2*Z/2": free_product(2, 2),
    "Z*Z/5": free_product(None, 5),
    "Z/2*Z*Z/3": free_product(2, None, 3),
}


@st.composite
def count_inputs(draw):
    """A sequence of one to four sets over one context, repeated or
    different: short words, the identity, inverse pairs and power families
    w^-N..w^N, whose products cancel and merge through several syllables."""
    ctx = COUNT_CONTEXTS[draw(st.sampled_from(sorted(COUNT_CONTEXTS)))]
    k = ctx.num_generators
    alphabet = string.ascii_lowercase[:k] + string.ascii_uppercase[:k]
    word = st.text(alphabet=alphabet, max_size=6)

    def element_set():
        out = [parse(ctx, t) for t in draw(st.lists(word, min_size=1, max_size=4))]
        if draw(st.booleans()):
            out.append(ctx.identity())
        if draw(st.booleans()):
            out.append(draw(st.sampled_from(out)).inverse())
        if draw(st.booleans()):
            w = parse(ctx, draw(word))
            n_big = draw(st.integers(1, 4))
            out.extend(w**i for i in range(-n_big, n_big + 1))
        return ElementSet(ctx, out)

    if draw(st.booleans()):
        return [element_set()] * draw(st.integers(1, 4))
    return [element_set() for _ in range(draw(st.integers(2, 4)))]


def join_levels(sets):
    """U_1, U_1 U_2, ..., U_1 ... U_m as sets of syllable tuples, each level
    the pairwise joins of the last one with the next set."""
    orders = sets[0].context.orders
    level = sets[0]._members
    levels = [level]
    for U in sets[1:]:
        level = {_join(orders, a, b) for a in level for b in U._members}
        levels.append(level)
    return levels


@settings(derandomize=True, deadline=None, max_examples=300)
@given(count_inputs())
@example([ElementSet(F2, [])] * 2)
@example([ElementSet.from_strings(Z5Z7, ["a", "ab"]), ElementSet(Z5Z7, []), ElementSet.from_strings(Z5Z7, ["b"])])
# chains whose words share runs of 20 or more syllables, read by several
# items at once: level 3 has 27 words, so budget 27 passes and 26 raises
@example([ElementSet.from_strings(F2, ["ab" * k + "b" for k in (10, 20, 30)])] * 3)
@example([ElementSet.from_strings(Z5Z7, ["ab" * k + "aa" for k in (10, 20, 30)])] * 3)
# after reading a, two old states read (ba)^30 together before they branch
# on c and C: 60 subsets, against a cap of 2*4 + 3*4 + 1 = 21 at budget 4,
# so a level of 4 words is within budget only if the run is walked
@example([
    ElementSet.from_strings(free_group(3), ["c" + "ab" * 30 + "c", "C" + "ab" * 30 + "C"]),
    ElementSet.from_strings(free_group(3), ["Ca", "ca"]),
])
def test_counted_levels_match_the_set_levels(sets):
    want = [len(level) for level in join_levels(sets)]
    assert list(product_sizes(sets, 10**9)) == want
    assert len(product(sets, 10**9)) == want[-1]
    # the budget holds each level after the first to the same count
    assert list(product_sizes(sets, max(want[1:], default=0))) == want
    if len(sets) > 1 and want[-1] > 0 and max(want[1:]) > 0:
        stop = max(want[1:]) - 1
        over = next(k for k in range(1, len(want)) if want[k] > stop)
        sizes = product_sizes(sets, stop)
        assert [next(sizes) for _ in range(over)] == want[:over]
        with pytest.raises(BudgetExceededError):
            next(sizes)


def test_powers_of_one_generator_count_in_linear_memory():
    # g^k is one digit, so the Safin family {g^-N..g^N, h} makes one
    # emission node per element, and a node's merges are read off the old
    # level when it is expanded; a digit per letter would hold N^2 of them.
    # Storing the level adds only its 1,203 words
    U = safin_family(F2, 150)
    assert list(product_sizes([U] * 2, 10**7)) == [302, 1203]
    assert traced_peak(lambda: list(product_sizes([U] * 2, 10**7))) < 2_000_000
    assert len(product_set(U, 2)) == 1203
    assert traced_peak(lambda: product_set(U, 2)) < 2_000_000


def test_counted_levels_refuse_sets_over_two_contexts():
    sizes = product_sizes([ElementSet.from_strings(F2, ["a"]), ElementSet.from_strings(Z5Z7, ["a"])], 10)
    assert next(sizes) == 1
    with pytest.raises(ValueError, match="context mismatch"):
        next(sizes)


def test_a_long_word_is_counted_without_recursion():
    # one 5,000-letter word: U^3 is its cube, three copies of its syllables
    limit = sys.getrecursionlimit()
    w = random_reduced_word(random.Random(11), F2, 5_000)
    assert list(product_sizes([ElementSet(F2, [w])] * 3, 10)) == [1, 1, 1]
    U = ElementSet(F2, [w, w.inverse(), F2.identity()])
    assert list(product_sizes([U] * 3, 100)) == [3, 5, 7]
    assert sys.getrecursionlimit() == limit


def test_product_set_submultiplicative():
    rng = random.Random(5)
    for _ in range(10):
        U = ElementSet(F2, {random_word(rng, 4) for _ in range(4)} | {F2.generator(0)})
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        assert len(product_set(U, m + n)) <= len(product_set(U, m)) * len(
            product_set(U, n)
        )


def test_product_set_order_independent():
    U = ElementSet.from_strings(F2, ["ab", "ba", "A"])
    V = ElementSet(F2, list(reversed(list(U))))
    assert product_set(U, 3) == product_set(V, 3)


# ---------------------------------------------------------------------------
# the optimality family


def test_safin_family_small():
    fam = safin_family(F2, 1)
    assert fam.to_strings() == ["1", "A", "a", "b"]
    assert len(safin_family(F2, 5)) == 12
    assert safin_counts(5) == {"powers_block": 11, "with_extra_generator": 12}


def test_safin_family_needs_an_infinite_first_generator():
    # g^-N..g^N repeat when g has finite order: on Z/5 * Z/7 every N gave 6
    assert len(safin_family(free_product(None, 7), 2)) == 6
    for orders in ((5, 7), (2, 3)):
        with pytest.raises(ValueError, match="first generator has order"):
            safin_family(free_product(*orders), 2)
    with pytest.raises(ValueError, match="two generators"):
        safin_family(free_group(1), 2)


def test_safin_family_cube():
    # frozen from the independent letter-reduction oracle (triple brute force)
    assert len(product_set(safin_family(F2, 3), 3)) == 100
    assert len(product_set(safin_family(F2, 2), 3)) == 60


# ---------------------------------------------------------------------------
# parsing / printing round trip


def test_parse_print_roundtrip():
    rng = random.Random(3)
    for _ in range(100):
        g = random_word(rng, 10)
        assert parse(F2, str(g)) == g
    assert str(F2.identity()) == "1"
    assert parse(F2, "1").is_identity


def test_parse_rejects_bad_letters():
    with pytest.raises(ValueError):
        parse(F2, "xyz")
    with pytest.raises(ValueError):
        parse(F2, "a b")


def test_element_set_dedup_and_strings():
    U = ElementSet.from_strings(F2, ["ab", "ab", "aB"])
    assert len(U) == 2
    assert U.to_strings() == ["aB", "ab"]


# ---------------------------------------------------------------------------
# ElementSet: syllable tuples inside, elements on iteration


def test_tuple_built_and_element_built_sets_agree():
    U = ElementSet.from_strings(Z5Z7, ["1", "a", "aab", "B", "ba"])
    built = product_set(U, 2)
    given = ElementSet(Z5Z7, [x * y for x in U for y in U])
    assert built == given and given == built
    assert hash(built) == hash(given)
    assert built.to_strings() == given.to_strings() == [str(x) for x in given]
    assert list(built) == list(given)
    assert [str(x) for x in built] == built.to_strings()


def test_membership_needs_the_same_context():
    x, y = parse(F2, "ab"), parse(Z5Z7, "ab")
    for U in (ElementSet(F2, [x]), product_set(ElementSet(F2, [x]), 1)):
        assert x in U
        assert y not in U
    assert x not in ElementSet(Z5Z7, [y])


def test_iteration_is_shortlex_and_keeps_its_elements():
    members = [parse(F2, t) for t in ("ab", "A", "1", "bbA", "ab")]
    U = ElementSet(F2, members)
    assert list(U) == [parse(F2, t) for t in ("1", "A", "ab", "bbA")]
    assert all(x is y for x, y in zip(U, U))


def test_product_set_builds_no_element(monkeypatch):
    made = []
    element = words._element

    def counted(ctx, syllables):
        made.append(syllables)
        return element(ctx, syllables)

    monkeypatch.setattr(words, "_element", counted)
    U = safin_family(F2, 3)
    made.clear()
    size = len(product_set(U, 3))
    assert size == 100 and made == []
    # the count does see elements: iterating builds each one, once
    P = product_set(U, 3)
    list(P)
    list(P)
    assert len(made) == size

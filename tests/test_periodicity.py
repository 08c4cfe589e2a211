import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psgrowth.hypgeom import translation_length
from psgrowth.periodicity import (
    BiPeriodicWitness,
    PeriodCertificate,
    Refusal,
    e_reduce,
    extract_period_from_equations,
    is_biperiodic,
    is_periodic,
    pingpong_certify,
    separate,
)
from psgrowth.spaces import FiniteHypGraph, cycle_graph, random_connected_graph
from psgrowth.words import (
    BudgetExceededError,
    ElementSet,
    power_of,
    primitive_root,
    random_reduced_word,
)

from conftest import digest, w


# ---------------------------------------------------------------------------
# is_periodic


def test_is_periodic_spec_examples(f2_tree):
    one = f2_tree.basepoint()
    ab = w(f2_tree, "ab")
    v = ab**13 * w(f2_tree, "a")  # length 27 > 3*4*[ab] = 24
    cert = is_periodic(f2_tree, v, ab, one)
    assert isinstance(cert, PeriodCertificate)
    assert cert.threshold == 24 and cert.slack == 3
    assert cert.period_root in (ab, ab.inverse())

    v_short = ab**11 * w(f2_tree, "a")  # length 23 <= 24
    ref = is_periodic(f2_tree, v_short, ab, one)
    assert isinstance(ref, Refusal)
    assert any(c.name == "translation_exceeds_threshold" and not c.ok for c in ref.checks)

    v_off = w(f2_tree, "b") * ab**13  # v x0 off the axis
    ref2 = is_periodic(f2_tree, v_off, ab, one)
    assert isinstance(ref2, Refusal)
    assert any(c.name == "vx0_in_cylinder" and not c.ok for c in ref2.checks)


def test_is_periodic_elliptic_root_rejected(f2_tree):
    with pytest.raises(ValueError):
        is_periodic(f2_tree, w(f2_tree, "ab"), f2_tree.context.identity(), f2_tree.basepoint())


def test_is_periodic_free_group_characterization(f2_tree):
    # u cyclically reduced, v = u^k u_1 with u = u_1 u_2: periodic iff the
    # translation exceeds the threshold; check a família of powers
    one = f2_tree.basepoint()
    u = w(f2_tree, "aab")
    for k in range(1, 15):
        v = u**k * w(f2_tree, "a")
        res = is_periodic(f2_tree, v, u, one)
        expect = (3 * k + 1) > 3 * 4 * 3  # |v| vs 3 nu [u]
        assert isinstance(res, PeriodCertificate) == expect


def test_period_uniqueness_on_certificates(f2_tree):
    # certificates issued for v at the same x0 carry the same maximal cyclic
    # subgroup regardless of which generator of E was passed in
    one = f2_tree.basepoint()
    ab = w(f2_tree, "ab")
    v = ab**20
    c1 = is_periodic(f2_tree, v, ab, one)
    c2 = is_periodic(f2_tree, v, ab**3, one)
    c3 = is_periodic(f2_tree, v, ab.inverse(), one)
    roots = {c.period_root for c in (c1, c2, c3) if isinstance(c, PeriodCertificate)}
    assert len(roots) <= 2
    base = next(iter(roots))
    assert all(r in (base, base.inverse()) for r in roots)


# ---------------------------------------------------------------------------
# equations


def build_equations(f2_tree, root_text, exps, v_power, g_power):
    """u_i = root^exps[i], v = root^v_power, w_i = v^-1 u_i^-1 g with
    g = root^g_power: all products equal g and all junctions reduced."""
    root = w(f2_tree, root_text)
    g = root**g_power
    v = root**v_power
    eqs = []
    for k in exps:
        u = root**k
        w_ = v.inverse() * u.inverse() * g
        assert u * v * w_ == g
        eqs.append((u, v, w_))
    return eqs, root, v


def test_extract_period_recovers_root(f2_tree):
    eqs, root, v = build_equations(f2_tree, "ab", [1, 2, 3, 4], 200, 300)
    cert = extract_period_from_equations(f2_tree, eqs, f2_tree.basepoint())
    assert isinstance(cert, PeriodCertificate)
    assert cert.period_root in (root, root.inverse())
    assert cert.element == v
    # tree junction bounds are exactly zero
    for name in ("junction_24delta", "junction_66delta", "junction_138delta"):
        assert all(c.lhs == 0 for c in cert.checks if c.name == name)


def test_extract_period_symmetry_violation(f2_tree):
    # |v x0 - x0| smaller than the u-spread: refusal citing the symmetry bound
    eqs, _, _ = build_equations(f2_tree, "ab", [1, 30], 3, 40)
    res = extract_period_from_equations(f2_tree, eqs, f2_tree.basepoint())
    assert isinstance(res, Refusal)
    assert res.reason == "SymmetryBoundViolated"


def test_extract_period_not_reduced(f2_tree):
    # u ending with the inverse of v's first letter: junction not reduced
    one = f2_tree.basepoint()
    v = w(f2_tree, "ab") ** 50
    u1 = w(f2_tree, "bA")  # ends with a^-1, v starts with a
    u2 = w(f2_tree, "bb")
    g = w(f2_tree, "bb") * v * v
    eqs = [(u1, v, v.inverse() * u1.inverse() * g), (u2, v, v.inverse() * u2.inverse() * g)]
    res = extract_period_from_equations(f2_tree, eqs, one)
    assert isinstance(res, Refusal)
    assert res.reason == "ProductsNotReduced"


def test_extract_period_unequal_products(f2_tree):
    v = w(f2_tree, "ab") ** 30
    eqs = [
        (w(f2_tree, "a"), v, w(f2_tree, "b")),
        (w(f2_tree, "b"), v, w(f2_tree, "b")),
    ]
    res = extract_period_from_equations(f2_tree, eqs, f2_tree.basepoint())
    assert isinstance(res, Refusal)
    assert res.reason == "ProductsNotEqual"


def test_extract_period_paper_mode_needs_many_equations(f2_tree):
    eqs, _, _ = build_equations(f2_tree, "ab", [1, 2, 3, 4], 200, 300)
    res = extract_period_from_equations(
        f2_tree, eqs, f2_tree.basepoint(), paper_mode=True
    )
    assert isinstance(res, Refusal)
    assert res.reason == "PaperHypothesesUnmet"
    eqs20, root, _ = build_equations(f2_tree, "ab", list(range(1, 21)), 400, 600)
    res20 = extract_period_from_equations(
        f2_tree, eqs20, f2_tree.basepoint(), paper_mode=True
    )
    assert isinstance(res20, PeriodCertificate)


def test_extract_period_random_instances(f2_tree):
    rng = random.Random(71)
    one = f2_tree.basepoint()
    built = 0
    while built < 25:
        root = random_reduced_word(rng, f2_tree.context, rng.randint(2, 4))
        core, _ = __import__("psgrowth.words", fromlist=["cyclic_reduce"]).cyclic_reduce(root)
        if core.word_length() != root.word_length() or root.is_identity:
            continue  # want cyclically reduced roots so x0 = 1 is on the axis
        exps = sorted(rng.sample(range(1, 12), rng.randint(2, 4)))
        vp = rng.randint(60, 90)
        eqs, root_, v = build_equations(f2_tree, str(root), exps, vp, vp + 20)
        res = extract_period_from_equations(f2_tree, eqs, one)
        assert isinstance(res, PeriodCertificate), getattr(res, "reason", None)
        assert res.period_root in (primitive_root(root)[0], primitive_root(root)[0].inverse())
        built += 1


def path_with_reflection(n):
    """P_n with its reflection as the one generator."""
    return FiniteHypGraph(n, [(i, i + 1) for i in range(n - 1)], [[n - 1 - i for i in range(n)]])


def outer_equations(space, outers, v_text, g_text):
    """(u, v, v^-1 u^-1 g) for each outer element u: all products equal g."""
    v, g = w(space, v_text), w(space, g_text)
    return [(w(space, u), v, v.inverse() * w(space, u).inverse() * g) for u in outers]


def extraction_case(f2_tree, case):
    """space, equations, base point and keyword arguments of one exit."""
    ab, one = w(f2_tree, "ab"), f2_tree.basepoint()
    if case == "ConnectorNotHyperbolic":
        # aa acts trivially on the path, so its connector fixes every vertex
        space = path_with_reflection(6)
        return space, outer_equations(space, ["aa", ""], "a", "a"), 0, {}
    if case == "ConnectorNotHyperbolic_on_C9":
        # delta(C_9) = 3/2, and the rotation a moves 0 by 1: a bound with a
        # delta term (the paper's 26 delta = 39) would refuse v as too short;
        # the junctions are reduced, and the connector a has order 9
        space = CYCLES[9]
        return space, outer_equations(space, ["", "a"], "a", "aa"), 0, {}
    built = {
        "TooFewEquations": ([1], 200, 300),
        "SymmetryBoundViolated": ([1, 30], 3, 40),
        "DuplicateOuterElements": ([1, 1], 200, 300),
        "PaperHypothesesUnmet": ([1, 2, 3, 4], 200, 300),
        # |v x0| = 10 against the paper threshold 3 nu [ab] = 24
        "PeriodicityThresholdFailed": ([1, 2], 5, 10),
        "certified": ([1, 2, 3, 4], 200, 300),
    }
    if case in built:
        eqs, _, _ = build_equations(f2_tree, "ab", *built[case])
        return f2_tree, eqs, one, {"paper_mode": case == "PaperHypothesesUnmet"}
    a, b = w(f2_tree, "a"), w(f2_tree, "b")
    if case == "DifferentMiddleElements":
        eqs = [(a, ab**30, b), (a, ab**31, b)]
    elif case == "ProductsNotEqual":
        eqs = [(a, ab**30, b), (b, ab**30, b)]
    elif case == "MiddleTooShort":
        eqs = outer_equations(f2_tree, ["a", "b"], "", "ab")
    else:  # ProductsNotReduced: bA ends with the inverse of v's first letter
        v = ab**50
        g = w(f2_tree, "bb") * v * v
        eqs = [(u, v, v.inverse() * u.inverse() * g) for u in (w(f2_tree, "bA"), w(f2_tree, "bb"))]
    return f2_tree, eqs, one, {}


# every refusal that an input reaches, and a certified result, pinned by a
# digest of as_dict(); no input reaches the two rechecks that raise (see
# test_extraction_rechecks_raise)
EXTRACTION_EXITS = {
    "TooFewEquations": "128e5737263a55f8",
    "DifferentMiddleElements": "6a149d42e3ee1a46",
    "ProductsNotEqual": "c769885a6e1c89cd",
    "MiddleTooShort": "fdd385feebf5fce4",
    "ProductsNotReduced": "93164b0885670f1f",
    "SymmetryBoundViolated": "a65efb2052cc1805",
    "DuplicateOuterElements": "7766c79b4f218590",
    "PaperHypothesesUnmet": "c545799c8523fae4",
    "ConnectorNotHyperbolic": "5e2b265c4821e328",
    "ConnectorNotHyperbolic_on_C9": "d846b9c1c21eccae",
    "PeriodicityThresholdFailed": "e72358787e8f514d",
    "certified": "2408c8885a627848",
}


@pytest.mark.parametrize("case", sorted(EXTRACTION_EXITS))
def test_every_extraction_exit(f2_tree, case):
    space, eqs, x0, kwargs = extraction_case(f2_tree, case)
    res = extract_period_from_equations(space, eqs, x0, **kwargs)
    if case == "certified":
        assert isinstance(res, PeriodCertificate)
    else:
        assert isinstance(res, Refusal) and res.reason == case.split("_")[0]
    assert digest(res.as_dict()) == EXTRACTION_EXITS[case]


@pytest.mark.parametrize(
    "patched, value, message",
    [
        ("primitive_root", lambda h: (h, 1), "different roots"),
        ("axis_distance", lambda space, ax, x: 1, "reduced-product bounds failed"),
    ],
    ids=["common_root", "reduced_product_bounds"],
)
def test_extraction_rechecks_raise(f2_tree, monkeypatch, patched, value, message):
    # on a tree the connectors share a root and the reduced-product bounds
    # hold, so only a broken helper can fail either recheck, which then
    # raises instead of refusing or certifying
    eqs, _, _ = build_equations(f2_tree, "ab", [1, 2, 4], 200, 300)
    monkeypatch.setattr(f"psgrowth.periodicity.{patched}", value)
    with pytest.raises(RuntimeError, match=message):
        extract_period_from_equations(f2_tree, eqs, f2_tree.basepoint())


# ---------------------------------------------------------------------------
# bi-periodic sets


def test_biperiodic_witness_spec_example(f2_tree):
    one = f2_tree.basepoint()
    ab = w(f2_tree, "ab")
    a = w(f2_tree, "a")
    V = ElementSet(f2_tree.context, [ab**13 * a, ab**14 * a, ab**15 * a])
    res = is_biperiodic(f2_tree, V, one)
    assert isinstance(res, BiPeriodicWitness)
    assert res.coset_root in (ab, ab.inverse())
    assert res.coset_rep == ab**13 * a
    for va, vb in itertools.combinations(V, 2):
        assert power_of(va * vb.inverse(), res.coset_root) is not None


def test_biperiodic_period_mismatch(f2_tree):
    one = f2_tree.basepoint()
    V = ElementSet(
        f2_tree.context, [w(f2_tree, "b") ** 30, w(f2_tree, "ab") ** 13 * w(f2_tree, "a")]
    )
    res = is_biperiodic(f2_tree, V, one)
    assert isinstance(res, Refusal)


def test_biperiodic_singleton(f2_tree):
    V = ElementSet(f2_tree.context, [w(f2_tree, "ab") ** 13])
    res = is_biperiodic(f2_tree, V, f2_tree.basepoint())
    assert isinstance(res, Refusal) and res.reason == "TooSmall"


@pytest.mark.parametrize("texts", [("a", "aa"), ("ab", "aab")], ids="-".join)
def test_biperiodic_elliptic_quotient_is_refused(z5z7_tree, texts):
    # v1 v2^-1 = a^-1 fixes a vertex, so V is not bi-periodic; it is
    # refused before any member is checked against a root with no axis
    V = ElementSet(z5z7_tree.context, [w(z5z7_tree, t) for t in texts])
    res = is_biperiodic(z5z7_tree, V, z5z7_tree.basepoint())
    assert isinstance(res, Refusal) and res.reason == "QuotientNotHyperbolic"


# ---------------------------------------------------------------------------
# e_reduce


def test_e_reduce_examples(f2_tree):
    one = f2_tree.basepoint()
    a = w(f2_tree, "a")
    t = w(f2_tree, "aaabaa")  # a^3 b a^2
    e, t_prime, f = e_reduce(f2_tree, t, a, one)
    assert t_prime == w(f2_tree, "b")
    assert e == a**3 and f == a**2

    t2 = w(f2_tree, "bab")
    e2, tp2, f2 = e_reduce(f2_tree, t2, a, one)
    assert e2.is_identity and f2.is_identity and tp2 == t2

    res = e_reduce(f2_tree, a**5, a, one)
    assert isinstance(res, Refusal) and res.reason == "InE"


def test_e_reduce_window_check_raises(f2_tree, monkeypatch):
    # displacement is unimodal in each power on a tree, so only a broken
    # metric makes the window boundary decrease, and e_reduce then raises
    one, a, b = f2_tree.basepoint(), w(f2_tree, "a"), w(f2_tree, "b")
    tree_dist = f2_tree.dist

    def dist(x, y):  # 2 short at every word that starts with a^-3
        return tree_dist(x, y) - 2 * (y.syllables[:1] == ((0, -3),))

    monkeypatch.setattr(f2_tree, "dist", dist)
    # the window is |p|, |q| <= 3, the minimum |b| = 1 lies inside it, and
    # the boundary point a^-3 b (2) is closer than a^-2 b (3)
    with pytest.raises(RuntimeError, match="window certified insufficient"):
        e_reduce(f2_tree, b, a, one)


def test_e_reduce_minimality_random(f2_tree):
    rng = random.Random(72)
    one = f2_tree.basepoint()
    a = w(f2_tree, "a")
    for _ in range(20):
        t = random_reduced_word(rng, f2_tree.context, rng.randint(1, 8))
        if power_of(t, a) is not None:
            continue
        e, tp, f = e_reduce(f2_tree, t, a, one)
        base = f2_tree.dist(one, f2_tree.act(tp, one))
        for p in range(-6, 7):
            for q in range(-6, 7):
                cand = a**-p * t * a**-q
                assert f2_tree.dist(one, f2_tree.act(cand, one)) >= base


def test_e_reduce_lemma_products(f2_tree):
    # E-reduction lemma: for E-reduced t and v in <root>,
    # (t^{+-1} x0, v x0)_{x0} <= [E]/2 (trees)
    rng = random.Random(73)
    one = f2_tree.basepoint()
    for root_text in ("a", "ab", "abb"):
        root = w(f2_tree, root_text)
        e_len = translation_length(f2_tree, root).translation_length
        for _ in range(15):
            t = random_reduced_word(rng, f2_tree.context, rng.randint(1, 7))
            if power_of(t, root) is not None:
                continue
            _, tp, _ = e_reduce(f2_tree, t, root, one)
            for k in (-9, -3, 1, 4, 11):
                v = root**k
                for tt in (tp, tp.inverse()):
                    assert (
                        f2_tree.gromov_product(
                            f2_tree.act(tt, one), f2_tree.act(v, one), one
                        )
                        <= e_len / 2
                    )


def automorphisms(space):
    """Every vertex permutation of a small graph that preserves adjacency."""
    edges = set(space.edges)
    return [
        p
        for p in itertools.permutations(range(space.n))
        if all((min(p[i], p[j]), max(p[i], p[j])) in edges for i, j in space.edges)
    ]


CYCLES = {n: cycle_graph(n) for n in range(3, 13)}


@st.composite
def graphs_with_an_action(draw):
    """C_3..C_12 with the rotation, or a random connected graph on at most
    6 vertices with one or two of its automorphisms (often only the
    identity) as generators."""
    if draw(st.booleans()):
        return CYCLES[draw(st.integers(3, 12))]
    g = random_connected_graph(random.Random(draw(st.integers(0, 10**6))), n_max=6)
    gens = draw(st.lists(st.sampled_from(automorphisms(g)), min_size=1, max_size=2))
    return FiniteHypGraph(g.n, g.edges, gens)


LETTERS = st.lists(st.tuples(st.integers(0, 1), st.sampled_from((1, -1))), max_size=12)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(space=graphs_with_an_action(), root_letters=LETTERS, t_letters=LETTERS, x0=st.integers(0, 2))
def test_no_graph_element_is_hyperbolic(space, root_letters, t_letters, x0):
    # every element permutes finitely many vertices, so it has finite order;
    # the periodicity tools refuse any graph element as a root
    ctx = space.context

    def word(letters):
        gens = (ctx.generator(i % ctx.rank) ** s for i, s in letters)
        return math.prod(gens, start=ctx.identity())

    root, t = word(root_letters), word(t_letters)
    assert not translation_length(space, root).is_hyperbolic
    assert not translation_length(space, t).is_hyperbolic
    assume(not root.is_identity)
    V = ElementSet(ctx, [root, root * root])
    for refused in (
        lambda: is_periodic(space, t, root, x0),
        lambda: e_reduce(space, t, root, x0),
        lambda: pingpong_certify(space, V, root, t, 2, x0),
    ):
        with pytest.raises(ValueError, match="E_root must be hyperbolic"):
            refused()
    # period extraction and bi-periodicity refuse every graph input: equal
    # products u v w_u over the outer elements 1, root and t, and the sets
    # {root, root^2} and {root, t}
    g = t * root
    eqs = [(u, root, root.inverse() * u.inverse() * g) for u in (ctx.identity(), root, t)]
    for paper_mode in (False, True):
        assert isinstance(extract_period_from_equations(space, eqs, x0, paper_mode=paper_mode),
                          Refusal)
    for members in ([root, root * root], [root, t]):
        assert isinstance(is_biperiodic(space, ElementSet(ctx, members), x0), Refusal)


# ---------------------------------------------------------------------------
# ping pong


def test_pingpong_spec_example(f2_tree):
    one = f2_tree.basepoint()
    ab = w(f2_tree, "ab")
    V = ElementSet(f2_tree.context, [ab**20, ab**40, ab**60])
    t = w(f2_tree, "b")
    cert = pingpong_certify(f2_tree, V, ab, t, 3, one, a_value=4)
    assert cert.certified
    assert cert.counts == {1: 3, 2: 9, 3: 27}


@pytest.mark.parametrize("budget", [26, 27])
def test_pingpong_counts_raise_over_the_budget(f2_tree, budget):
    # |(Vt)^3| = 27: every level is counted, and one over the budget raises
    ab = w(f2_tree, "ab")
    V = ElementSet(f2_tree.context, [ab**10, ab**20, ab**30])
    args = (f2_tree, V, ab, w(f2_tree, "b"), 3, f2_tree.basepoint())
    if budget < 27:
        with pytest.raises(BudgetExceededError):
            pingpong_certify(*args, a_value=2, budget=budget)
    else:
        assert pingpong_certify(*args, a_value=2, budget=budget).counts == {1: 3, 2: 9, 3: 27}


def test_pingpong_close_spacing_fails(f2_tree):
    one = f2_tree.basepoint()
    ab = w(f2_tree, "ab")
    V = ElementSet(f2_tree.context, [ab, ab**2])
    cert = pingpong_certify(f2_tree, V, ab, w(f2_tree, "b"), 2, one, a_value=4)
    assert not cert.certified
    assert cert.reason == "spacing"


def test_pingpong_singleton(f2_tree):
    one = f2_tree.basepoint()
    ab = w(f2_tree, "ab")
    V = ElementSet(f2_tree.context, [ab**20])
    cert = pingpong_certify(f2_tree, V, ab, w(f2_tree, "b"), 3, one)
    assert cert.certified
    assert set(cert.counts.values()) == {1}


def test_pingpong_free_product(z5z7_tree):
    tr = z5z7_tree
    base = tr.basepoint()
    st = w(tr, "ab")
    V = ElementSet(tr.context, [st**10, st**20, st**30])
    t = w(tr, "aa")
    cert = pingpong_certify(tr, V, st, t, 3, base, a_value=2)
    assert cert.certified
    assert cert.counts == {1: 3, 2: 9, 3: 27}


def test_pingpong_t_not_reduced_reported(f2_tree):
    one = f2_tree.basepoint()
    ab = w(f2_tree, "ab")
    V = ElementSet(f2_tree.context, [ab**20, ab**40])
    t = ab**3 * w(f2_tree, "b")  # absorbs into E: not E-reduced
    cert = pingpong_certify(f2_tree, V, ab, t, 2, one, a_value=4)
    assert not cert.certified
    assert cert.reason == "t_not_e_reduced"


def test_pingpong_paper_mode_spacing(f2_tree):
    one = f2_tree.basepoint()
    ab = w(f2_tree, "ab")
    # paper a = 3*4*2 = 24 on trees: need spacing >= 240
    V = ElementSet(f2_tree.context, [ab**120, ab**240, ab**360])
    cert = pingpong_certify(f2_tree, V, ab, w(f2_tree, "b"), 2, one)
    assert cert.certified


# V as (base, power) pairs, root, t, a_value -> reason, certified, pinned
# digest of as_dict()
PINGPONG_EXITS = {
    "singleton": ((("ab", 10),), "ab", "b", None, "singleton", True, "32016faa10ac99fe"),
    "x0_off_axis": ((("baB", 10), ("baB", 20)), "baB", "a", 1, "x0_off_axis", False,
                    "3454de3a27333855"),
    "outside_root": ((("ab", 10), ("b", 1)), "ab", "b", 1, "element b outside <root>", False,
                     "10a5d29d122c45af"),
    "t_not_e_reduced": ((("ab", 10), ("ab", 20)), "ab", "abb", 1, "t_not_e_reduced", False,
                        "b3d1a9fb29960844"),
    "spacing": ((("ab", 1), ("ab", 2)), "ab", "b", 2, "spacing", False, "39363e56664b1660"),
    # max product 1 against min step 2: alpha = 0 is refused
    "chain_margin": ((("ab", 1), ("ab", 2)), "ab", "a", 0, "chain_margin", False,
                     "ec6b1527deeff928"),
    "certified": ((("ab", 10), ("ab", 20), ("ab", 30)), "ab", "b", 2, "", True,
                  "2b5ba4623a605177"),
}


@pytest.mark.parametrize("case", sorted(PINGPONG_EXITS))
def test_every_pingpong_exit(f2_tree, case):
    pairs, root, t, a_value, reason, certified, pinned = PINGPONG_EXITS[case]
    V = ElementSet(f2_tree.context, [w(f2_tree, base) ** k for base, k in pairs])
    cert = pingpong_certify(
        f2_tree, V, w(f2_tree, root), w(f2_tree, t), 3, f2_tree.basepoint(), a_value=a_value
    )
    assert (cert.reason, cert.certified) == (reason, certified)
    assert digest(cert.as_dict()) == pinned


def _four_loop_chain(space, members, t, x0):
    """Reference for the chain data: the proof's four families of pairs,
    each point acted on afresh, and the three families of steps."""
    gamma_all = members + [va * vb.inverse() for va, vb in itertools.permutations(members, 2)]
    gamma_inv = [v.inverse() for v in members]
    t_inv = t.inverse()

    def prod(left, right):
        return space.gromov_product(space.act(left, x0), space.act(right, x0), x0)

    pairs = (
        [(v.inverse(), t * g) for v in members for g in gamma_all]
        + [(g1.inverse() * t_inv, t * g2) for g1 in gamma_all for g2 in gamma_all]
        + [(g1.inverse() * t_inv, t_inv * g2) for g1 in gamma_all for g2 in gamma_inv]
        + [(g1.inverse() * t, t_inv * g2) for g1 in gamma_inv for g2 in gamma_inv]
    )
    steps = members + [t * g for g in gamma_all] + [t_inv * g for g in gamma_inv]
    return (
        max(prod(left, right) for left, right in pairs),
        min(space.dist(x0, space.act(g, x0)) for g in steps),
    )


def test_pingpong_chain_matches_four_loop_reference(f2_tree, z5z7_tree):
    rng = random.Random(12)
    reached = 0
    for _ in range(300):
        space = rng.choice([f2_tree, z5z7_tree])
        if space is f2_tree:
            root = w(space, rng.choice(["ab", "aab", "abB", "bbaB", "aBab"]))
            t = random_reduced_word(rng, space.context, rng.randint(1, 4))
        else:
            root = w(space, rng.choice(["ab", "aab", "abbb", "aaabb"]))
            t = w(space, rng.choice(["a", "aa", "b", "bbb", "aab", "ba", "abbb"]))
        V = ElementSet(space.context, [root**k for k in rng.sample(range(1, 7), 2)])
        x0 = space.act(root ** rng.randint(-2, 2), space.basepoint())
        cert = pingpong_certify(space, V, root, t, 2, x0, a_value=0)
        if cert.reason not in ("", "chain_margin"):
            continue
        reached += 1
        reference = _four_loop_chain(space, list(V), t, x0)
        assert (cert.max_chain_product, cert.min_step) == reference
    assert reached >= 50


# ---------------------------------------------------------------------------
# separation


def test_separate_spec_example(f2_tree):
    one = f2_tree.basepoint()
    ab = w(f2_tree, "ab")
    V = ElementSet(f2_tree.context, [ab**k for k in range(1, 21)])
    V0 = separate(f2_tree, V, 2, one, ab)
    ks = sorted(power_of(v, ab) for v in V0)
    assert ks == [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]
    assert len(V0) >= len(V) // (2 * 2 + 1)


def test_separate_singleton_and_empty(f2_tree):
    one = f2_tree.basepoint()
    ab = w(f2_tree, "ab")
    V = ElementSet(f2_tree.context, [ab**7])
    out = separate(f2_tree, V, 3, one, ab)
    assert list(out) == [ab**7]
    low = ElementSet(f2_tree.context, [ab, ab**2])
    res = separate(f2_tree, low, 5, one, ab)
    assert isinstance(res, Refusal) and res.reason == "EmptyAfterFilter"


def test_separate_majority_direction(f2_tree):
    one = f2_tree.basepoint()
    ab = w(f2_tree, "ab")
    V = ElementSet(
        f2_tree.context, [ab**k for k in (2, 4, 6)] + [ab**-10]
    )
    V0 = separate(f2_tree, V, 2, one, ab)
    assert all(power_of(v, ab) > 0 for v in V0)


# ---------------------------------------------------------------------------
# right-period uniqueness


def right_period_segment(space, u, root, x0):
    """Vertices of [u^-1 x0, x0] lying on the axis of the root."""
    from psgrowth.hypgeom import axis_distance, translation_length

    ax = translation_length(space, root)
    path = space.geodesic(x0, space.act(u.inverse(), x0))
    return [p for p in path if axis_distance(space, ax, p) == 0]


def test_right_period_uniqueness(f2_tree):
    # two elements right-periodic for both <ba^12> and <a>: at delta = 0
    # their <a>-right-periods must coincide exactly (240 delta = 0)
    one = f2_tree.basepoint()
    big = w(f2_tree, "ba") * w(f2_tree, "a") ** 11  # b a^12
    u1 = w(f2_tree, "bba") * big**12
    u2 = big**12
    a = w(f2_tree, "a")
    seg1 = right_period_segment(f2_tree, u1, a, one)
    seg2 = right_period_segment(f2_tree, u2, a, one)
    # both segments run from 1 down the a^-1 ray for 12 edges
    assert seg1 == seg2
    assert len(seg1) == 13
    # and both really are right-periodic for both subgroups at a practical
    # threshold below the 12-edge overlap
    for u in (u1, u2):
        for root in (big, a):
            seg = right_period_segment(f2_tree, u, root, one)
            assert (len(seg) - 1) * f2_tree.rho0 > 8

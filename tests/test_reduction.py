import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psgrowth.energy import minimize_energy
from psgrowth.reduction import (
    certify_cross_products,
    median_split,
    reduce_graph,
    reduce_tree,
    reduce_via_tree_approx,
    reduced_at,
)
from psgrowth.spaces import FiniteHypGraph
from psgrowth.words import ElementSet, safin_family

from conftest import TREES, random_reduced_word, w


def eset(space, *texts):
    return ElementSet.from_strings(space.context, texts)


def random_diffuse_set(rng, ctx, size, min_len=4, max_len=10):
    out = set()
    while len(out) < size:
        out.add(random_reduced_word(rng, ctx, rng.randint(min_len, max_len)))
    return ElementSet(ctx, out)


# ---------------------------------------------------------------------------
# reduced_at


def test_reduced_at_examples(f2_tree):
    one = f2_tree.basepoint()
    assert reduced_at(f2_tree, w(f2_tree, "a"), w(f2_tree, "b"), one, 0)
    assert not reduced_at(f2_tree, w(f2_tree, "a"), w(f2_tree, "Ab"), one, 0)
    assert reduced_at(f2_tree, f2_tree.context.identity(), w(f2_tree, "bab"), one, 0)


# ---------------------------------------------------------------------------
# reduce_tree


def test_reduce_tree_two_directions(f2_tree):
    # words spreading over distinct first letters split cleanly
    U = eset(
        f2_tree,
        "aaaa", "aaab", "aaba", "aabb",
        "baaa", "baab", "bbaa", "bbab",
    )
    res = reduce_tree(f2_tree, U, f2_tree.basepoint(), 1)
    assert not res.failed
    assert res.certified
    assert all(v <= 1 for v in res.max_products.values())


def test_reduce_tree_safin(f2_tree):
    fam = safin_family(f2_tree.context, 6)
    res = reduce_tree(f2_tree, fam, f2_tree.basepoint(), 1)
    # the family is dominated by powers of a: 3/4 displacement precheck
    # fails at small N... with N=6: 13 powers of displacement >= 4 needs
    # |k| >= 4: 6 of 14 qualify -> Failed(ConcentratedOrBelow)
    assert res.failed
    assert res.reason == "ConcentratedOrBelow"


def test_reduce_tree_safin_large_r1(f2_tree):
    # bigger family: all powers a^k with |k| >= 4 qualify; peeling certifies
    fam = safin_family(f2_tree.context, 40)
    res = reduce_tree(f2_tree, fam, f2_tree.basepoint(), 1)
    assert not res.failed
    assert res.certified


def test_reduce_tree_concentrated_failure_and_minimizer_moves(f2_tree):
    # every word starts with a and ends with a^-1: single sphere point both
    # sides; the minimal-energy bound is violated, and indeed x0 = 1 is not
    # a minimizer (descent moves it)
    rng = random.Random(61)
    members = set()
    while len(members) < 30:
        mid = random_reduced_word(rng, f2_tree.context, rng.randint(2, 5))
        cand = w(f2_tree, "a") * mid * w(f2_tree, "A")
        s = str(cand)
        if cand.word_length() >= 4 and s.startswith("a") and s.endswith("A"):
            members.add(cand)
    U = ElementSet(f2_tree.context, members)
    res = reduce_tree(f2_tree, U, f2_tree.basepoint(), 1)
    assert res.failed
    assert res.reason == "MinimalEnergyViolated"
    prof = minimize_energy(f2_tree, U)
    assert prof.base_point != f2_tree.basepoint()
    at_min = reduce_tree(f2_tree, U, prof.base_point, 1)
    assert at_min.failed is False or at_min.reason != "MinimalEnergyViolated"


def test_reduce_tree_random_diffuse_guarantee(f2_tree):
    rng = random.Random(62)
    for _ in range(6):
        U = random_diffuse_set(rng, f2_tree.context, rng.randint(60, 150))
        x0 = minimize_energy(f2_tree, U).base_point
        res = reduce_tree(f2_tree, U, x0, 1)
        assert not res.failed, res.reason
        assert res.certified
        assert res.cardinality_ok
        ok, maxima = certify_cross_products(f2_tree, res.u1, res.u2, x0, res.tolerance)
        assert ok


def test_reduce_tree_rejects_bad_r(f2_tree):
    U = eset(f2_tree, "aaaa", "bbbb")
    with pytest.raises(ValueError):
        reduce_tree(f2_tree, U, f2_tree.basepoint(), Fraction(1, 2))
    with pytest.raises(ValueError):
        reduce_tree(f2_tree, U, f2_tree.basepoint(), 1, enforce_quarter_kappa=True)


def test_reduce_tree_free_product(z5z7_tree):
    t = z5z7_tree
    rng = random.Random(63)
    members = set()
    while len(members) < 40:
        word = ""
        for i in range(rng.randint(2, 4)):
            word += rng.choice("a" * rng.randint(1, 4)) * rng.randint(1, 4)
            word += "b" * rng.randint(1, 6)
        members.add(w(t, word))
    U = ElementSet(t.context, members)
    x0 = minimize_energy(t, U).base_point
    res = reduce_tree(t, U, x0, t.rho0)
    if not res.failed:
        assert res.certified


# ---------------------------------------------------------------------------
# reduce_graph


def ball_graph_f2(radius=4):
    """The ball of radius `radius` in the F2 Cayley tree, as a finite graph
    with the two generator translations... translations do not preserve a
    ball, so no group action: used for metric-only paths."""
    from psgrowth.spaces import FreeGroupTree

    tree = FreeGroupTree(2)
    verts = [tree.basepoint()]
    for r in range(1, radius + 1):
        verts.extend(tree.sphere(tree.basepoint(), r))
    index = {tree.point_key(v): i for i, v in enumerate(verts)}
    edges = []
    for v in verts:
        for s in tree.sphere(v, 1):
            if tree.point_key(s) in index:
                i, j = index[tree.point_key(v)], index[tree.point_key(s)]
                if i < j:
                    edges.append((i, j))
    return FiniteHypGraph(len(verts), edges), verts, index, tree


def test_reduce_graph_tree_as_graph_agrees(f2_tree):
    # permutation action on a ball is impossible; instead compare the two
    # code paths on the same tree: reduce_tree on F2 vs reduce_graph on a
    # 6-cycle-free tree graph with a genuine automorphism action
    edges = [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]
    # automorphism swapping the three arms cyclically: 1->3->5->1 etc
    perm = [0, 3, 4, 5, 6, 1, 2]
    g = FiniteHypGraph(7, edges, [perm])
    assert g.delta == 0
    U = ElementSet(g.context, [g.context.generator(0), g.context.generator(0) ** 2])
    res = reduce_graph(g, U, 1)  # base at a leaf-ish vertex: displacements > 0
    # tiny U: whatever branch, the result must be either certified or Failed
    assert res.failed or res.certified


def test_reduce_graph_too_small(f2_tree):
    edges = [(0, 1)]
    g = FiniteHypGraph(2, edges, [[1, 0]])
    U = ElementSet(g.context, [g.context.generator(0)])
    assert reduce_graph(g, U, 0).reason == "TooSmall"


def test_reduce_graph_on_free_group_tree(f2_tree):
    # the Cayley tree is itself a bounded-geometry graph: the pair search
    # certifies with b = |B(x0, 1)| = 5, and agrees with the peeling route
    # on the same diffuse set at the same tolerance
    rng = random.Random(68)
    U = random_diffuse_set(rng, f2_tree.context, 120)
    x0 = minimize_energy(f2_tree, U).base_point
    via_pairs = reduce_graph(f2_tree, U, x0)
    assert not via_pairs.failed, via_pairs.reason
    assert via_pairs.certified
    assert via_pairs.counts["b"] == 5
    assert 100 * 25 * len(via_pairs.u1) >= len(U)  # >= |U| / (100 b^2)
    via_peel = reduce_tree(f2_tree, U, x0, 1)
    assert via_peel.certified
    assert via_pairs.tolerance == via_peel.tolerance == f2_tree.rho0


def test_reduce_graph_on_free_product_tree(z2z3_tree):
    t = z2z3_tree
    # base is a Z/2-coset vertex (degree 2); its neighbors have degree 3
    assert t.ball_size(t.basepoint(), 2) == 1 + 2 + 2 * 2
    rng = random.Random(69)
    members = set()
    while len(members) < 40:
        word = ""
        for _ in range(rng.randint(2, 5)):
            word += "a" + "b" * rng.randint(1, 2)
        members.add(w(t, word))
    U = ElementSet(t.context, members)
    x0 = minimize_energy(t, U).base_point
    res = reduce_graph(t, U, x0)
    assert res.failed or res.certified


# ---------------------------------------------------------------------------
# reduce_via_tree_approx


def test_reduce_via_tree_approx_degenerates_on_trees(f2_tree):
    rng = random.Random(64)
    U = random_diffuse_set(rng, f2_tree.context, 80)
    x0 = minimize_energy(f2_tree, U).base_point
    res_tree = reduce_tree(f2_tree, U, x0, 1)
    res_approx = reduce_via_tree_approx(f2_tree, U, x0)
    assert not res_approx.failed
    assert res_approx.certified
    assert not res_tree.failed


def test_reduce_via_tree_approx_single_element(f2_tree):
    U = eset(f2_tree, "abab")
    assert reduce_via_tree_approx(f2_tree, U, f2_tree.basepoint()).reason == "TooSmall"


# ---------------------------------------------------------------------------
# median split


def test_median_split_ordering(f2_tree):
    U1 = eset(f2_tree, "aa", "aaaa", "aaaaaa")        # displacements 2, 4, 6
    U2 = eset(f2_tree, "bbb", "bbbbb", "bbbbbbb")     # displacements 3, 5, 7
    out1, out2 = median_split(f2_tree, U1, U2, f2_tree.basepoint())
    assert {str(u) for u in out1} == {"aa", "aaaa"}
    assert {str(u) for u in out2} == {"bbbbb", "bbbbbbb"}


def test_median_split_singletons(f2_tree):
    U1 = eset(f2_tree, "ab")
    U2 = eset(f2_tree, "ba")
    out1, out2 = median_split(f2_tree, U1, U2, f2_tree.basepoint())
    assert list(out1) == list(U1) and list(out2) == list(U2)


def test_median_split_second_branch_from_u1(f2_tree):
    U1 = eset(f2_tree, "aaaa", "aaaaaa", "aaaaaaaa")   # median 6
    U2 = eset(f2_tree, "bb", "bbb")                    # median 2 < 6
    out1, out2 = median_split(f2_tree, U1, U2, f2_tree.basepoint())
    assert all(str(u).startswith("a") for u in out1)
    assert all(str(u).startswith("a") for u in out2)
    d = lambda u: f2_tree.dist(f2_tree.basepoint(), f2_tree.act(u, f2_tree.basepoint()))
    assert max(d(u) for u in out1) <= min(d(u) for u in out2)


def test_median_split_half_sizes(f2_tree):
    rng = random.Random(65)
    for _ in range(10):
        U1 = random_diffuse_set(rng, f2_tree.context, rng.randint(3, 12))
        U2 = random_diffuse_set(rng, f2_tree.context, rng.randint(3, 12))
        out1, out2 = median_split(f2_tree, U1, U2, f2_tree.basepoint())
        assert 2 * len(out1) + 1 >= len(U1)
        assert 2 * len(out2) + 1 >= min(len(U2), len(U1))
        d = lambda u: f2_tree.dist(
            f2_tree.basepoint(), f2_tree.act(u, f2_tree.basepoint())
        )
        assert max(d(u) for u in out1) <= min(d(u) for u in out2)


def test_median_split_empty_rejected(f2_tree):
    U = eset(f2_tree, "a")
    with pytest.raises(ValueError):
        median_split(f2_tree, ElementSet(f2_tree.context, ()), U, f2_tree.basepoint())


def test_minimal_energy_lemma_property(f2_tree):
    # at a vertex produced by minimize_energy, no single sphere point
    # carries more than 2/3 of U on both the outgoing and incoming side
    # (among elements with displacement >= 4r); a violation would indict
    # the minimizer, not the lemma
    rng = random.Random(67)
    for _ in range(8):
        U = random_diffuse_set(rng, f2_tree.context, rng.randint(30, 80))
        x0 = minimize_energy(f2_tree, U).base_point
        r = f2_tree.rho0
        per_point = {}
        for u in U:
            ux = f2_tree.act(u, x0)
            vx = f2_tree.act(u.inverse(), x0)
            if f2_tree.dist(x0, ux) < 4 * r:
                continue
            y = f2_tree.geodesic(x0, ux)[1]
            z = f2_tree.geodesic(x0, vx)[1]
            if y == z:
                per_point[f2_tree.point_key(y)] = per_point.get(f2_tree.point_key(y), 0) + 1
        for mass in per_point.values():
            assert 3 * mass <= 2 * len(U)


WORD = st.text(alphabet="abAB", max_size=7)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    tree=st.sampled_from(sorted(TREES)),
    texts_1=st.lists(WORD, min_size=1, max_size=7),
    texts_2=st.lists(WORD, min_size=1, max_size=7),
    base=WORD,
    same=st.booleans(),
    chain_pairs=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 6)), max_size=4),
    cut=st.integers(0, 4),
)
@example(tree="F2", texts_1=["ab"], texts_2=["Ba"], base="", same=False, chain_pairs=[], cut=0)
@example(
    tree="Z5*Z7", texts_1=["ab", "ba", "aabb", "abab"], texts_2=["bbba", "babab", "aab", "ab"],
    base="", same=False, chain_pairs=[], cut=0,
)
@example(tree="Z5*Z7", texts_1=["ab"], texts_2=["ab"], base="b", same=True, chain_pairs=[], cut=0)
@example(
    tree="Z5*Z7", texts_1=["b"], texts_2=["a"], base="ab", same=False,
    chain_pairs=[(1, 2), (3, 1), (2, 5)], cut=2,
)
@example(
    tree="F2", texts_1=["b"], texts_2=["a"], base="Ba", same=False,
    chain_pairs=[(1, 2), (2, 1)], cut=1,
)
def test_certify_fast_path_matches_generic_oracle(
    tree, texts_1, texts_2, base, same, chain_pairs, cut
):
    # the sorted-neighbour maxima on trees must equal the all-pairs maxima
    # of the three-distance Gromov product formula
    space = TREES[tree]
    ctx = space.context
    h = w(space, base)
    x0 = space.act(h, space.basepoint())
    U1 = [w(space, t) for t in texts_1]
    U2 = [w(space, t) for t in texts_2]
    if chain_pairs:
        # a^i b^j ... is a geodesic word from the base vertex on both trees,
        # so the translate by a prefix of it has a prefix of its geodesic
        whole = ctx.identity()
        for i, j in chain_pairs:
            whole = whole * ctx.generator(0) ** i * ctx.generator(1) ** j
        part = ctx.identity()
        for i, j in chain_pairs[:cut]:
            part = part * ctx.generator(0) ** i * ctx.generator(1) ** j
        U1.append(whole.conjugate_by(h).inverse())
        U2 += [whole.conjugate_by(h), part.conjugate_by(h)]
    U1 = ElementSet(ctx, U1)
    U2 = U1 if same else ElementSet(ctx, U2)
    _, maxima = certify_cross_products(space, U1, U2, x0, 0)
    expect_1 = max(
        space.gromov_product(space.act(u.inverse(), x0), space.act(v, x0), x0)
        for u in U1
        for v in U2
    )
    expect_2 = max(
        space.gromov_product(space.act(v.inverse(), x0), space.act(u, x0), x0)
        for u in U1
        for v in U2
    )
    assert maxima["u1_inv_vs_u2"] == expect_1
    assert maxima["u2_inv_vs_u1"] == expect_2

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psgrowth.energy import minimize_energy
from psgrowth.periodicity import pingpong_certify
from psgrowth.reduction import certify_cross_products, median_split, reduce_tree, reduced_at
from psgrowth.spaces import FreeGroupTree
from psgrowth.words import ElementSet, random_reduced_word, safin_family

from conftest import TREES, ball, w


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


@pytest.mark.parametrize("floor", ["7/2", "5", "13/2", "29/4", "19/2"])
def test_reduce_tree_filters_round_floors_up_to_whole_edges(floor):
    # at rho0 = 3/2 none of these floors is a whole number of edges; the
    # gate and the 4r filter count edges, and agree with exact lengths
    space = FreeGroupTree(2, rho0=Fraction(3, 2))
    U = random_diffuse_set(random.Random(8), space.context, 40, 2, 8)
    x0, r, floor = space.basepoint(), space.rho0, Fraction(floor)
    moved = [u.word_length() * space.rho0 for u in U]  # u moves x0 = 1 by |u| edges
    above = sum(1 for d in moved if d >= floor)
    qualifying = sum(1 for d in moved if d >= 4 * r)
    res = reduce_tree(space, U, x0, r, hypothesis_displacement=floor)
    if 4 * above < 3 * len(U):
        assert (res.reason, res.counts) == (
            "ConcentratedOrBelow", {"above_floor": above, "total": len(U)}
        )
    else:
        assert res.certified
        assert res.counts["qualifying"] == qualifying
        assert res.discarded_mass == len(U) - qualifying


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


# ---------------------------------------------------------------------------
# every exit of the tree peel, pinned on one small input each

F2 = TREES["F2"]
ONE = F2.basepoint()
# 99 words of lengths 2..4 and one of length 8: at r = 2 only the long one
# moves 1 at least 4r, and one element never carries more than |U| / 100
SHORT = [str(v) for v in ball(F2, 4) if v.word_length() >= 2][:99]


def failed(reason, tolerance="1", **counts):
    return {
        "branch": "Failed", "certified": False, "reason": reason, "tolerance": tolerance,
        "u1_size": 0, "u2_size": 0, "max_products": {}, "counts": counts,
        "discarded_mass": 0, "cardinality_ok": None, "peel_rounds": 0, "peel_trace": [],
    }


def certified(branch, reason, u1_size, u2_size, counts, trace, tolerance="1"):
    return {
        "branch": branch, "certified": True, "reason": reason, "tolerance": tolerance,
        "u1_size": u1_size, "u2_size": u2_size,
        "max_products": {"u1_inv_vs_u2": "0", "u2_inv_vs_u1": "0"}, "counts": counts,
        "discarded_mass": 0, "cardinality_ok": True, "peel_rounds": len(trace),
        "peel_trace": trace,
    }


def peeled(key, ab, ba, bb):
    return {"peeled": key, "U_AB": ab, "U_BA": ba, "U_BB": bb}


# Several inputs move 1 exactly four edges, the least that passes the 4r
# filters at one edge.
EXITS = {
    # at r = 2 the sphere points of "aaaaaaab" and "abbbbbbb" differ, though
    # both geodesics leave 1 along a
    "tree-cross_AB": (
        lambda: reduce_tree(
            F2, eset(F2, "aaaaaaab", "abbbbbbb", "baaaaaaa", "bbbbbbba"), ONE, 2
        ),
        certified("TreeRecursion", "cross_AB", 1, 1, {"qualifying": 4, "u1": 1, "u2": 1},
                  [peeled("(2, 'AA')", 1, 0, 0)], tolerance="2"),
        ["baaaaaaa"], ["baaaaaaa"],
    ),
    "tree-cross_BA": (
        lambda: reduce_tree(F2, eset(F2, "Abbb"), ONE, 1),
        certified("TreeRecursion", "cross_BA", 1, 1, {"qualifying": 1, "u1": 1, "u2": 1},
                  [peeled("(1, 'A')", 0, 1, 0)]),
        ["Abbb"], ["Abbb"],
    ),
    "tree-split_AA_BB": (
        lambda: reduce_tree(F2, eset(F2, "Abbba", "aBBBA", "bAAAB"), ONE, 1),
        certified("TreeRecursion", "split_AA_BB", 2, 1, {"qualifying": 3, "u1": 2, "u2": 1},
                  [peeled("(1, 'A')", 0, 0, 1)]),
        ["aBBBA", "bAAAB"], ["Abbba"],
    ),
    "tree-ConcentratedOrBelow": (
        lambda: reduce_tree(F2, eset(F2, "ab", "ba", "aab"), ONE, 1),
        failed("ConcentratedOrBelow", above_floor=0, total=3), [], [],
    ),
    "tree-NothingAboveFourR": (
        lambda: reduce_tree(F2, eset(F2, "ab", "ba"), ONE, 1, hypothesis_displacement=1),
        failed("NothingAboveFourR", total=2), [], [],
    ),
    "tree-MinimalEnergyViolated": (
        lambda: reduce_tree(F2, eset(F2, "abbA", "abbbA"), ONE, 1),
        failed("MinimalEnergyViolated", mass=2, total=2, witness_point="(1, 'a')"), [], [],
    ),
    "tree-PeelingExhausted": (
        lambda: reduce_tree(F2, eset(F2, *SHORT, "aaaaaaaa"), ONE, 2, hypothesis_displacement=1),
        failed("PeelingExhausted", tolerance="2", rounds=2), [], [],
    ),
    "tree-TooSmall": (
        lambda: reduce_tree(F2, eset(F2), ONE, 1), failed("TooSmall"), [], [],
    ),
}


@pytest.mark.parametrize("case", sorted(EXITS))
def test_every_reduction_exit(case):
    run, expected, u1, u2 = EXITS[case]
    res = run()
    assert res.as_dict() == expected
    assert (res.u1.to_strings(), res.u2.to_strings()) == (u1, u2)


# ---------------------------------------------------------------------------
# what the tree certificates read


def counting(monkeypatch, cls, names) -> Counter:
    """Count the calls of the named methods of a backend class."""
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _method=getattr(cls, name), **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("tree", sorted(TREES))
def test_tree_certificates_read_prefixes_not_whole_paths(tree, monkeypatch):
    # the descent reads one `orbit_prefix` per element a pass, the peel one
    # per element; only `certify_cross_products` spells whole label paths,
    # once per element of U1 and U2; ping-pong's chain maximum reads the
    # labels of its 15 steps and forms no Gromov product.  Each
    # `orbit_labels` is one `orbit_prefix` with no bound on k
    space = TREES[tree]
    ctx = space.context
    rng = random.Random(64)
    if tree == "F2":
        drawn = random_diffuse_set(rng, ctx, 80)
    else:
        drawn = {w(space, "".join(rng.choice(["a", "aa", "b", "bbb"]) for _ in range(8)))
                 for _ in range(80)}
    conjugator = w(space, "aab")  # moves the minimiser off the basepoint
    U = ElementSet(ctx, [u.conjugate_by(conjugator) for u in drawn])
    calls = counting(monkeypatch, type(space), ("orbit_labels", "orbit_prefix", "gromov_product"))

    prof = minimize_energy(space, U)
    assert prof.descent_steps > 0
    assert calls == {"orbit_prefix": len(U) * (prof.descent_steps + 1)}

    calls.clear()
    res = reduce_tree(space, U, prof.base_point, space.rho0)
    assert res.certified
    whole = len(set(res.u1) | set(res.u2))
    assert calls == {"orbit_prefix": len(U) + whole, "orbit_labels": whole}

    calls.clear()
    root = w(space, "ab")
    V = ElementSet(ctx, [root**10, root**20, root**30])
    t = w(space, "b" if tree == "F2" else "aa")
    cert = pingpong_certify(space, V, root, t, 3, space.basepoint(), a_value=2)
    assert cert.certified
    assert calls == {"orbit_labels": 15, "orbit_prefix": 15}

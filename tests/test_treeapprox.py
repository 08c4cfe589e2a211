import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psgrowth.exactmath import within_log_bound
from psgrowth.treeapprox import approximate_tree, distortion_report
from psgrowth.spaces import (
    FiniteHypGraph,
    FreeGroupTree,
    FreeProductTree,
    cycle_graph,
    random_connected_graph,
)
from psgrowth.words import random_reduced_word

from conftest import TREES, digest, tree_vertex, w


def test_tree_input_zero_distortion(f2_tree):
    targets = [w(f2_tree, s) for s in ("aab", "aB", "ba", "bbb")]
    approx = approximate_tree(f2_tree, f2_tree.basepoint(), targets)
    rep = distortion_report(approx)
    assert rep.max_shrink == 0
    assert not rep.expansion_found
    assert rep.ok


def test_single_target_is_segment(f2_tree):
    target = w(f2_tree, "abab")
    approx = approximate_tree(f2_tree, f2_tree.basepoint(), [target])
    assert approx.n_leaves == 1
    rep = distortion_report(approx)
    assert rep.ok and rep.max_shrink == 0
    data = approx.export()
    assert data["vertices"][data["f_images"][f2_tree.encode_point(target)]] == [0, "4"]


def test_six_cycle_two_legs():
    c6 = cycle_graph(6)
    approx = approximate_tree(c6, 0, [2, 4])
    rep = distortion_report(approx)
    # glue depth = (v2, v4)_{v0} = (2 + 2 - 2)/2 = 1, or 2 doubled hops
    assert approx.div2[0][1] == 2
    assert not rep.expansion_found
    assert rep.ok  # delta = 1, bound = 2*(log2 2 + 1) = 4


def test_leg_isometry_to_root(f2_tree):
    rng = random.Random(51)
    targets = [random_reduced_word(rng, f2_tree.context, rng.randint(1, 7)) for _ in range(6)]
    approx = approximate_tree(f2_tree, f2_tree.basepoint(), targets)
    for p, _, depth in approx.samples:
        assert Fraction(depth, 2) == f2_tree.dist(approx.x0, p)


def test_monotone_gluing_trees(f2_tree):
    # on trees the maximin closure equals the raw products, so the glue
    # depth of each leg is exactly the max Gromov product to earlier legs
    rng = random.Random(52)
    targets = [random_reduced_word(rng, f2_tree.context, rng.randint(1, 7)) for _ in range(5)]
    targets = list(dict.fromkeys(targets))
    approx = approximate_tree(f2_tree, f2_tree.basepoint(), targets)
    for i in range(1, len(targets)):
        expected = max(
            f2_tree.gromov_product(targets[i], targets[j], f2_tree.basepoint())
            for j in range(i)
        )
        assert approx.glue_depth(i) == 2 * expected


def test_monotone_gluing_graphs_lower_bound():
    rng = random.Random(53)
    g = random_connected_graph(rng, n_max=14)
    targets = [v for v in range(1, g.n)][:6]
    approx = approximate_tree(g, 0, targets)
    for i in range(1, len(targets)):
        raw = max(g.gromov_product(targets[i], targets[j], 0) for j in range(i))
        assert approx.glue_depth(i) >= 2 * raw


def test_random_graphs_within_bound():
    rng = random.Random(54)
    for _ in range(25):
        g = random_connected_graph(rng, n_max=16)
        x0 = rng.randrange(g.n)
        k = rng.randint(1, min(8, g.n - 1))
        targets = rng.sample([v for v in range(g.n) if v != x0], k)
        approx = approximate_tree(g, x0, targets)
        rep = distortion_report(approx)
        assert not rep.expansion_found, (g.edges, x0, targets)
        assert rep.ok, (g.edges, x0, targets, rep)


def test_shared_point_maps_once(f2_tree):
    # two targets with a long common prefix: shared vertices appear once
    targets = [w(f2_tree, "aaab"), w(f2_tree, "aaB")]
    approx = approximate_tree(f2_tree, f2_tree.basepoint(), targets)
    keys = [f2_tree.point_key(p) for p, _, _ in approx.samples]
    assert len(keys) == len(set(keys))
    assert approx.div2[0][1] == 4


def test_export_structure():
    cases = (case for rho0 in (Fraction(1),) + RHO0S for case in export_cases(rho0))
    for space, x0, targets in cases:
        data = approximate_tree(space, x0, targets).export()
        n = len(data["vertices"])
        assert len(data["parent"]) == n and len(data["edge_length"]) == n
        assert data["parent"].count(-1) == 1  # single root
        # every vertex of every geodesic [x0, t] has an image node
        points = {space.encode_point(p): p for t in targets for p in space.geodesic(x0, t)}
        assert set(data["f_images"]) == set(points)
        # the edge lengths from the root to each image sum to the distance
        depth = {}

        def depth_of(i):
            if i not in depth:
                p = data["parent"][i]
                depth[i] = (
                    Fraction(0) if p == -1 else depth_of(p) + Fraction(data["edge_length"][i])
                )
            return depth[i]

        for key, node in data["f_images"].items():
            assert depth_of(node) == space.dist(x0, points[key])

        # and the tree distance between any two images is the oracle's
        def ancestors(i):
            while i != -1:
                yield i
                i = data["parent"][i]

        samples, tree_distance = oracle_tree(space, x0, targets)
        for a, b in itertools.combinations(samples, 2):
            na, nb = (data["f_images"][space.encode_point(p)] for p, _, _ in (a, b))
            above_b = set(ancestors(nb))
            meet = next(i for i in ancestors(na) if i in above_b)
            got = depth_of(na) + depth_of(nb) - 2 * depth_of(meet)
            assert got == tree_distance(a, b)


def test_no_targets_rejected(f2_tree):
    with pytest.raises(ValueError):
        approximate_tree(f2_tree, f2_tree.basepoint(), [])


# ---------------------------------------------------------------------------
# the maximin closure and the distortion check against Fraction loops


def oracle_closure(space, x0, targets) -> list:
    """Widest-path closure of the Gromov products (t_i, t_j)_{x0}, by the
    triple loop over Fractions, with infinity on the diagonal."""
    n = len(targets)
    div = [[space.gromov_product(s, t, x0) for t in targets] for s in targets]
    for i in range(n):
        div[i][i] = math.inf
    for k in range(n):
        for i in range(n):
            for j in range(n):
                div[i][j] = max(div[i][j], min(div[i][k], div[k][j]))
    return div


def oracle_tree(space, x0, targets) -> tuple:
    """The samples, each geodesic vertex as (point, first leg through it,
    Fraction depth), and the tree distance between two samples, from
    `oracle_closure`."""
    div = oracle_closure(space, x0, targets)
    samples = {}
    for i, t in enumerate(targets):
        for k, p in enumerate(space.geodesic(x0, t)):
            samples.setdefault(space.point_key(p), (p, i, k * space.rho0))

    def tree_distance(a, b):
        (_, i, s), (_, j, t) = a, b
        return abs(s - t) if i == j else s + t - 2 * min(s, t, div[i][j])

    return list(samples.values()), tree_distance


def oracle_distortion(space, x0, targets) -> tuple:
    """(max_shrink, expansion_found, leg_isometry_ok, ok, n_pairs) by the
    all-pairs loop over Fraction distances and `oracle_tree`."""
    samples, tree_distance = oracle_tree(space, x0, targets)
    max_shrink = Fraction(0)
    expansion = False
    pairs = 0
    for a, b in itertools.combinations(samples, 2):
        real = space.dist(a[0], b[0])
        tree = tree_distance(a, b)
        pairs += 1
        if tree > real:
            expansion = True
        elif real - tree > max_shrink:
            max_shrink = real - tree
    # the root is at tree distance s from a sample at depth s
    leg_iso = all(s == space.dist(x0, p) for p, _, s in samples)
    ok = within_log_bound(max_shrink, space.delta, len(targets)) and not expansion and leg_iso
    return max_shrink, expansion, leg_iso, ok, pairs


def doubled(space, div, top) -> list:
    """A Fraction closure in doubled hops, with `top` on the diagonal."""
    out = [[top] * len(div) for _ in div]
    for i, row in enumerate(div):
        for j, d in enumerate(row):
            if i != j:
                g = 2 * d / space.rho0
                assert g.denominator == 1
                out[i][j] = int(g)
    return out


def assert_matches_oracles(space, x0, targets):
    """The closure in doubled hops, the glue depths and the distortion
    report against the Fraction oracles."""
    approx = approximate_tree(space, x0, targets)
    want = oracle_closure(space, x0, targets)
    top = approx.div2[0][0]
    assert approx.div2 == doubled(space, want, top)
    assert top > 2 * max(space.hops(x0, t) for t in targets)
    glue = [Fraction(approx.glue_depth(i), 2) * space.rho0 for i in range(len(targets))]
    assert glue == [max(row[:i], default=0) for i, row in enumerate(want)]
    rep = distortion_report(approx)
    got = (rep.max_shrink, rep.expansion_found, rep.leg_isometry_ok, rep.ok, rep.n_pairs)
    assert got == oracle_distortion(space, x0, targets)
    assert type(rep.max_shrink) is Fraction
    return approx


def graph_cases():
    """Seeded graphs, base points and targets; repeated targets and the
    base point among them give tied and zero products."""
    rng = random.Random(55)
    for _ in range(20):
        g = random_connected_graph(rng, n_max=16)
        x0 = rng.randrange(g.n)
        targets = [rng.randrange(g.n) for _ in range(rng.randint(1, 10))]
        yield g, x0, targets + [x0, targets[0]]


def test_graph_closure_matches_oracle():
    for g, x0, targets in graph_cases():
        assert_matches_oracles(g, x0, targets)


# edge lengths at which a doubled hop is not an integer length
RHO0S = (Fraction(3, 2), Fraction(2, 3))


@pytest.mark.parametrize("rho0", RHO0S, ids=str)
def test_graph_oracles_hold_at_non_unit_rho0(rho0):
    for g, x0, targets in graph_cases():
        scaled = FiniteHypGraph(g.n, g.edges, rho0=rho0)
        assert scaled.delta == g.delta * rho0
        approx = assert_matches_oracles(scaled, x0, targets)
        rep, unit = distortion_report(approx), distortion_report(approximate_tree(g, x0, targets))
        assert rep.max_shrink == unit.max_shrink * rho0
        assert (rep.ok, rep.n_pairs) == (unit.ok, unit.n_pairs)


def test_distortion_matches_oracle_on_more_graphs():
    # a wider seeded draw than `graph_cases`: it holds pairs on two legs
    # whose shallower point is nearer x0 than the legs' divergence depth
    rng = random.Random(57)
    for _ in range(80):
        g = random_connected_graph(rng, n_max=16)
        x0 = rng.randrange(g.n)
        targets = [rng.randrange(g.n) for _ in range(rng.randint(1, 10))]
        approx = approximate_tree(g, x0, targets)
        rep = distortion_report(approx)
        got = (rep.max_shrink, rep.expansion_found, rep.leg_isometry_ok, rep.ok, rep.n_pairs)
        assert got == oracle_distortion(g, x0, targets), (g.edges, x0, targets)


@pytest.mark.parametrize("rho0", (Fraction(1),) + RHO0S, ids=str)
def test_canonical_leg_matches_the_fraction_rule(rho0):
    # at every doubled depth up to the diagonal sentinel: the lowest leg
    # whose Fraction closure with `leg` reaches that depth
    for g, x0, targets in graph_cases():
        space = FiniteHypGraph(g.n, g.edges, rho0=rho0)
        approx = approximate_tree(space, x0, targets)
        div = oracle_closure(space, x0, targets)
        n = len(targets)
        top = 2 * max(space.hops(x0, t) for t in targets)
        for leg in range(n):
            for depth in range(top + 2):
                length = Fraction(depth, 2) * rho0
                want = min(j for j in range(n) if j == leg or div[leg][j] >= length)
                assert approx.canonical_leg(leg, depth) == want


POINT = st.tuples(st.text(alphabet="abAB", max_size=7), st.integers(0, 1))

# the two tree backends at every tested edge length
SCALED_TREES = {
    (name, rho0): make(rho0)
    for name, make in (
        ("F2", lambda r: FreeGroupTree(2, rho0=r)),
        ("Z5*Z7", lambda r: FreeProductTree((5, 7), rho0=r)),
    )
    for rho0 in (Fraction(1),) + RHO0S
}


@settings(max_examples=40, deadline=None)
@given(
    tree=st.sampled_from(sorted(TREES)),
    rho0=st.sampled_from((Fraction(1),) + RHO0S),
    x0=POINT,
    targets=st.lists(POINT, min_size=1, max_size=8),
)
# a repeated target (tied products) and targets through x0 (zero products)
@example(
    tree="F2",
    rho0=Fraction(1),
    x0=("", 0),
    targets=[("ab", 0), ("ab", 0), ("aB", 0), ("b", 0), ("", 0)],
)
@example(
    tree="Z5*Z7", rho0=Fraction(1), x0=("a", 1), targets=[("ab", 0), ("ab", 1), ("b", 1), ("a", 1)]
)
@example(tree="Z5*Z7", rho0=Fraction(2, 3), x0=("", 0), targets=[("ab", 1), ("aab", 0)])
def test_tree_closure_matches_oracle(tree, rho0, x0, targets):
    space = SCALED_TREES[tree, rho0]
    assert_matches_oracles(
        space, tree_vertex(space, *x0), [tree_vertex(space, *t) for t in targets]
    )


def export_cases(rho0):
    """`graph_cases` and seeded tree stars, at edge length rho0."""
    for g, x0, targets in graph_cases():
        yield FiniteHypGraph(g.n, g.edges, rho0=rho0), x0, targets
    rng = random.Random(56)
    for tree in sorted(TREES):
        space = SCALED_TREES[tree, rho0]
        for _ in range(5):
            texts = [
                "".join(rng.choice("abAB") for _ in range(rng.randint(0, 6)))
                for _ in range(6)
            ]
            points = [tree_vertex(space, t, rng.randint(0, 1)) for t in texts]
            yield space, points[0], points[1:]


def pinned_exports(rho0) -> list:
    return [approximate_tree(*case).export() for case in export_cases(rho0)]


def test_exports_are_pinned():
    # the trees exported for fixed graph and tree inputs, pinned in full
    assert digest({"exports": pinned_exports(Fraction(1))}) == "980f2275a1a4b646"


def test_exports_are_pinned_at_non_unit_rho0():
    # where a doubled hop is not an integer length
    exports = {str(rho0): pinned_exports(rho0) for rho0 in RHO0S}
    assert digest(exports) == "3d3d2872a9e8f01d"

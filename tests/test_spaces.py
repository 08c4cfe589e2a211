import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psgrowth.spaces import (
    FiniteHypGraph,
    FreeGroupTree,
    FreeProductTree,
    cycle_graph,
    estimate_delta,
    load_graph,
)

from conftest import TREES, make_random_connected_graph, random_reduced_word, w


# ---------------------------------------------------------------------------
# FreeGroupTree


def test_free_tree_dist_examples(f2_tree):
    one = f2_tree.basepoint()
    assert f2_tree.dist(one, w(f2_tree, "abA")) == 3
    assert f2_tree.dist(w(f2_tree, "ab"), w(f2_tree, "ab")) == 0


def test_free_tree_geodesic(f2_tree):
    one = f2_tree.basepoint()
    path = f2_tree.geodesic(one, w(f2_tree, "ab"))
    assert [str(p) for p in path] == ["1", "a", "ab"]
    assert f2_tree.geodesic(one, one) == [one]


def test_free_tree_act(f2_tree):
    x = w(f2_tree, "A")
    assert f2_tree.act(w(f2_tree, "ab"), x) == w(f2_tree, "abA")
    assert f2_tree.act(f2_tree.context.identity(), x) == x


def test_free_tree_sphere(f2_tree):
    one = f2_tree.basepoint()
    s1 = f2_tree.sphere(one, 1)
    assert sorted(str(p) for p in s1) == ["A", "B", "a", "b"]
    assert f2_tree.sphere(one, 0) == [one]
    assert len(f2_tree.sphere(one, 3)) == 4 * 9
    scoped = f2_tree.sphere(one, 2, scope=[w(f2_tree, "ab"), w(f2_tree, "ba")])
    assert sorted(str(p) for p in scoped) == ["ab", "ba"]


def test_free_tree_metric_axioms(f2_tree):
    rng = random.Random(1)
    pts = [random_reduced_word(rng, f2_tree.context, rng.randint(0, 7)) for _ in range(12)]
    for x, y, z in itertools.combinations(pts, 3):
        assert f2_tree.dist(x, y) == f2_tree.dist(y, x)
        assert f2_tree.dist(x, z) <= f2_tree.dist(x, y) + f2_tree.dist(y, z)
    for x, y in itertools.combinations(pts, 2):
        assert (f2_tree.dist(x, y) == 0) == (x == y)


def test_free_tree_isometric_action(f2_tree):
    rng = random.Random(2)
    for _ in range(40):
        g = random_reduced_word(rng, f2_tree.context, rng.randint(0, 6))
        h = random_reduced_word(rng, f2_tree.context, rng.randint(0, 6))
        x = random_reduced_word(rng, f2_tree.context, rng.randint(0, 6))
        y = random_reduced_word(rng, f2_tree.context, rng.randint(0, 6))
        assert f2_tree.dist(f2_tree.act(g, x), f2_tree.act(g, y)) == f2_tree.dist(x, y)
        assert f2_tree.act(g * h, x) == f2_tree.act(g, f2_tree.act(h, x))


def test_free_tree_four_point_zero(f2_tree):
    rng = random.Random(3)
    for _ in range(60):
        p, q, r, x = (
            random_reduced_word(rng, f2_tree.context, rng.randint(0, 6))
            for _ in range(4)
        )
        assert f2_tree.gromov_product(p, r, x) >= min(
            f2_tree.gromov_product(p, q, x), f2_tree.gromov_product(q, r, x)
        )


def test_free_tree_geodesic_telescopes(f2_tree):
    rng = random.Random(4)
    for _ in range(20):
        x = random_reduced_word(rng, f2_tree.context, rng.randint(0, 5))
        y = random_reduced_word(rng, f2_tree.context, rng.randint(0, 8))
        path = f2_tree.geodesic(x, y)
        for i in range(len(path)):
            for j in range(i, len(path)):
                assert f2_tree.dist(path[i], path[j]) == (j - i) * f2_tree.rho0


# ---------------------------------------------------------------------------
# FreeProductTree: BFS oracle over the materialized ball


def neighbors(tree: FreeProductTree, v):
    """All tree neighbors of a vertex, from the edge structure: edges through
    the elements of the coset v."""
    word, tag = v
    order = tree.context.orders[tag]
    if order is None:
        raise ValueError("oracle only materializes finite factors")
    out = []
    for e in range(order):
        g = word if e == 0 else word * (tree.context.generator(tag) ** e)
        out.append(tree.vertex(g, 1 - tag))
    return out


def bfs_ball(tree, root, depth):
    dist = {tree.point_key(root): (root, 0)}
    frontier = [root]
    for d in range(1, depth + 1):
        nxt = []
        for u in frontier:
            for v in neighbors(tree, u):
                k = tree.point_key(v)
                if k not in dist:
                    dist[k] = (v, d)
                    nxt.append(v)
        frontier = nxt
    return dist


@pytest.mark.parametrize("orders", [(2, 3), (5, 7), (3, 4)])
def test_product_tree_dist_matches_bfs_oracle(orders):
    tree = FreeProductTree(orders)
    base = tree.basepoint()
    ball = bfs_ball(tree, base, 5)
    assert len(ball) > 20
    for v, d in ball.values():
        assert tree.dist(base, v) == d * tree.rho0, f"vertex {tree.encode_point(v)}"
        path = tree.geodesic(base, v)
        assert len(path) == d + 1
        for i in range(len(path) - 1):
            assert tree.dist(path[i], path[i + 1]) == tree.rho0


def test_product_tree_dist_translation_invariant(z5z7_tree):
    tree = z5z7_tree
    rng = random.Random(7)
    ball = list(bfs_ball(tree, tree.basepoint(), 4).values())
    els = [w(tree, "ab"), w(tree, "ba"), w(tree, "aabbb"), w(tree, "bbab")]
    for _ in range(60):
        (x, _), (y, _) = rng.choice(ball), rng.choice(ball)
        g = rng.choice(els)
        assert tree.dist(tree.act(g, x), tree.act(g, y)) == tree.dist(x, y)


def test_product_tree_examples(z2z3_tree):
    tree = z2z3_tree
    base = tree.basepoint()
    # s fixes the A-coset vertex at the basepoint
    assert tree.act(w(tree, "a"), base) == base
    # st is hyperbolic: 1*A -> st*A at distance 2
    moved = tree.act(w(tree, "ab"), base)
    assert tree.dist(base, moved) == 2
    # spec example: act(s, vertex gA) is the coset s*g*A
    g = w(tree, "ba")
    v = tree.vertex(g, 0)
    assert tree.act(w(tree, "a"), v) == tree.vertex(w(tree, "a") * g, 0)


def test_product_tree_vertex_canonicalization(z2z3_tree):
    tree = z2z3_tree
    # ba ends in the factor-0 syllable a, so as an A-coset it strips to b
    assert tree.vertex(w(tree, "ba"), 0) == tree.vertex(w(tree, "b"), 0)
    with pytest.raises(ValueError):
        tree.check_point((w(tree, "ba"), 0))
    tree.check_point(tree.vertex(w(tree, "ba"), 0))


def test_product_tree_sphere_scoped(z2z3_tree):
    tree = z2z3_tree
    base = tree.basepoint()
    pts = [tree.act(w(tree, s), base) for s in ("ab", "ba", "abab", "bbabb")]
    sphere = tree.sphere(base, 2, scope=pts)
    assert all(tree.dist(base, v) == 2 for v in sphere)
    assert sphere
    with pytest.raises(ValueError):
        tree.sphere(base, 1)


def test_product_tree_rejects_more_factors():
    with pytest.raises(ValueError):
        FreeProductTree((2, 3, 5))


# ---------------------------------------------------------------------------
# point_at and orbit_labels on both trees

WORD = st.text(alphabet="abAB", max_size=9)


def tree_vertex(tree, text, tag):
    """The vertex of a word (and, on the Bass-Serre tree, a tag)."""
    g = w(tree, text)
    return g if isinstance(tree, FreeGroupTree) else tree.vertex(g, tag)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    tree=st.sampled_from(sorted(TREES)),
    x_text=WORD,
    x_tag=st.integers(0, 1),
    y_text=WORD,
    y_tag=st.integers(0, 1),
)
@example(tree="Z5*Z7", x_text="a", x_tag=1, y_text="", y_tag=0)  # ends on a tag change
@example(tree="Z5*Z7", x_text="ab", x_tag=0, y_text="abbab", y_tag=0)  # starts on one
@example(tree="F2", x_text="aB", x_tag=0, y_text="aBBa", y_tag=0)
def test_point_at_matches_geodesic(tree, x_text, x_tag, y_text, y_tag):
    space = TREES[tree]
    x = tree_vertex(space, x_text, x_tag)
    y = tree_vertex(space, y_text, y_tag)
    path = space.geodesic(x, y)
    for k, vertex in enumerate(path):
        assert space.point_at(x, y, k) == vertex
    for k in (-1, len(path)):
        with pytest.raises(ValueError):
            space.point_at(x, y, k)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    tree=st.sampled_from(sorted(TREES)),
    x_text=WORD,
    x_tag=st.integers(0, 1),
    g_text=WORD,
    h_text=WORD,
)
@example(tree="Z5*Z7", x_text="b", x_tag=0, g_text="ba", h_text="bab")
def test_orbit_labels_count_shared_edges(tree, x_text, x_tag, g_text, h_text):
    # label lengths are displacements, and common label prefixes count the
    # edges that geodesics from x share
    space = TREES[tree]
    x = tree_vertex(space, x_text, x_tag)
    g, h = w(space, g_text), w(space, h_text)
    g_out, g_back = space.orbit_labels(g, x)
    h_out, _ = space.orbit_labels(h, x)
    g_x, g_inv_x, h_x = space.act(g, x), space.act(g.inverse(), x), space.act(h, x)
    assert len(g_out) * space.rho0 == space.dist(x, g_x)
    assert len(g_back) * space.rho0 == space.dist(x, g_inv_x)
    assert (g_back, g_out) == space.orbit_labels(g.inverse(), x)
    for p, labels in ((g_inv_x, g_back), (g_x, g_out)):
        shared = 0
        while shared < min(len(labels), len(h_out)) and labels[shared] == h_out[shared]:
            shared += 1
        assert shared * space.rho0 == space.gromov_product(p, h_x, x)


# ---------------------------------------------------------------------------
# FiniteHypGraph


def oracle_four_point_delta(space: FiniteHypGraph) -> Fraction:
    """Direct scan of the Gromov-product four-point condition."""
    best = Fraction(0)
    V = range(space.n)
    for x in V:
        gp = {}
        for p in V:
            for q in V:
                gp[p, q] = space.gromov_product(p, q, x)
        for p in V:
            for q in V:
                for r in V:
                    defect = min(gp[p, q], gp[q, r]) - gp[p, r]
                    if defect > best:
                        best = defect
    return best


def test_cycle_graph_examples():
    c6 = cycle_graph(6)
    assert c6.dist(0, 3) == 3
    assert c6.geodesic(0, 2) == [0, 1, 2]
    assert c6.sphere(0, 3) == [3]
    assert c6.delta == oracle_four_point_delta(c6) == 1


def test_tree_graph_delta_zero():
    tree = FiniteHypGraph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    assert tree.delta == 0
    edge = FiniteHypGraph(2, [(0, 1)])
    assert edge.delta == 0


def test_random_graph_delta_matches_oracle():
    rng = random.Random(9)
    for _ in range(6):
        g = make_random_connected_graph(rng, n_max=9)
        assert g.delta == oracle_four_point_delta(g)


def test_graph_geodesic_deterministic():
    c6 = cycle_graph(6)
    # 0 -> 3 has two shortest paths; smallest-predecessor BFS picks via 1, 2
    assert c6.geodesic(0, 3) == [0, 1, 2, 3]
    assert c6.geodesic(0, 3) == c6.geodesic(0, 3)


def test_graph_action_permutations():
    c6 = cycle_graph(6)
    g = c6.context.generator(0)
    assert c6.act(g, 0) == 1
    assert c6.act(g ** 6, 0) == 0
    assert c6.act(g ** -1, 0) == 5
    for x in range(6):
        for y in range(6):
            assert c6.dist(c6.act(g, x), c6.act(g, y)) == c6.dist(x, y)


def test_graph_rejects_bad_permutation():
    with pytest.raises(ValueError):
        FiniteHypGraph(3, [(0, 1), (1, 2)], [[1, 0, 2]])  # swaps ends of a path
    with pytest.raises(ValueError):
        FiniteHypGraph(3, [(0, 1), (1, 2)], [[0, 0, 1]])


def test_graph_disconnected_rejected():
    with pytest.raises(ValueError):
        FiniteHypGraph(4, [(0, 1), (2, 3)])


def test_load_graph_schema():
    g = load_graph({"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]})
    assert g.n == 3
    with pytest.raises(ValueError):
        load_graph({"vertices": 3, "edges": [], "bogus": 1})


def test_graph_metric_axioms():
    rng = random.Random(10)
    g = make_random_connected_graph(rng, n_max=15)
    for x in range(g.n):
        for y in range(g.n):
            assert g.dist(x, y) == g.dist(y, x)
            for z in range(g.n):
                assert g.dist(x, z) <= g.dist(x, y) + g.dist(y, z)


def test_estimate_delta_rejects_a_wrong_stored_delta():
    c6 = cycle_graph(6)
    c6.delta = Fraction(2)
    with pytest.raises(RuntimeError, match="stored delta 2"):
        estimate_delta(c6)

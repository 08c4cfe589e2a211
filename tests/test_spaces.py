import ast
import inspect
import itertools
import random
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import psgrowth
from psgrowth.growth import concentrated_pipeline
from psgrowth.hypgeom import small_cancellation_diameter
from psgrowth.spaces import (
    TAG_STEP,
    FiniteHypGraph,
    FreeGroupTree,
    FreeProductTree,
    cycle_graph,
    estimate_delta,
    load_graph,
    random_connected_graph,
)
from psgrowth.words import GroupElement, random_reduced_word

from conftest import TREES, tree_vertex, w


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
# FreeProductTree and FreeGroupTree: BFS oracle over the materialized ball


def neighbors(tree, v):
    """All tree neighbors of a vertex, from the edge structure: on the
    Cayley tree, v times each letter; on the Bass-Serre tree, the edges
    through the elements of the coset v."""
    if isinstance(tree, FreeGroupTree):
        return [v * w(tree, letter) for letter in "abAB"]
    word, tag = v
    order = tree.context.orders[tag]
    if order is None:
        raise ValueError("oracle only materializes finite factors")
    out = []
    for e in range(order):
        g = word if e == 0 else word * (tree.context.generator(tag) ** e)
        out.append(tree.vertex(g, 1 - tag))
    return out


def bfs_tree(tree, root, depth):
    """The ball of radius `depth` about root as a rooted tree:
    point key -> (vertex, depth, parent key)."""
    found = {tree.point_key(root): (root, 0, None)}
    frontier = [root]
    for d in range(1, depth + 1):
        nxt = []
        for u in frontier:
            for v in neighbors(tree, u):
                k = tree.point_key(v)
                if k not in found:
                    found[k] = (v, d, tree.point_key(u))
                    nxt.append(v)
        frontier = nxt
    return found


def bfs_ball(tree, root, depth):
    """point key -> (vertex, distance from root) over the ball."""
    return {k: (v, d) for k, (v, d, _) in bfs_tree(tree, root, depth).items()}


def oracle_path(found, a, b):
    """Point keys of the unique path from a to b in a `bfs_tree`: up from a
    to the deepest common ancestor, then down to b."""

    def to_root(k):
        chain = [k]
        while found[chain[-1]][2] is not None:
            chain.append(found[chain[-1]][2])
        return chain

    up, down = to_root(a), to_root(b)
    while len(up) > 1 and len(down) > 1 and up[-2] == down[-2]:
        up.pop()
        down.pop()
    return up + down[-2::-1]


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


@pytest.mark.parametrize("orders", [(2, 3), (5, 7), (2, 2)])
def test_product_tree_all_pairs_match_bfs_oracle(orders):
    # dist and geodesic between every pair of the ball, both tags included
    tree = FreeProductTree(orders)
    found = bfs_tree(tree, tree.basepoint(), 3)
    for a, b in itertools.product(found, repeat=2):
        x, y = found[a][0], found[b][0]
        path = oracle_path(found, a, b)
        assert tree.dist(x, y) == (len(path) - 1) * tree.rho0
        assert [tree.point_key(v) for v in tree.geodesic(x, y)] == path


SCALES = (1, Fraction(3, 2), Fraction(2, 3))


def assert_hops_match_bfs_oracle(tree, root, depth):
    """hops and dist between every pair of a BFS ball, and Gromov products
    at every third point, against the ball's own paths: (p|q)_x is the
    number of edges [x, p] and [x, q] share."""
    found = bfs_tree(tree, root, depth)
    hop = {}
    for a, b in itertools.product(found, repeat=2):
        x, y = found[a][0], found[b][0]
        hop[a, b] = len(oracle_path(found, a, b)) - 1
        assert tree.hops(x, y) == hop[a, b]
        assert tree.dist(x, y) == hop[a, b] * tree.rho0
    keys = sorted(found)
    rng = random.Random(depth)
    for _ in range(300):
        a, b, c = (rng.choice(keys) for _ in range(3))
        to_a, to_b = oracle_path(found, c, a), oracle_path(found, c, b)
        shared = next(
            (k for k, (u, v) in enumerate(zip(to_a, to_b)) if u != v),
            min(len(to_a), len(to_b)),
        )
        got = tree.gromov_product(found[a][0], found[b][0], found[c][0])
        assert got == (shared - 1) * tree.rho0
    return found


@pytest.mark.parametrize("rho0", SCALES, ids=str)
def test_free_tree_hops_match_bfs_oracle(rho0):
    tree = FreeGroupTree(2, rho0=rho0)
    root = w(tree, "aB")
    found = assert_hops_match_bfs_oracle(tree, root, 3)
    assert len(found) == 53


@pytest.mark.parametrize("rho0", SCALES, ids=str)
@pytest.mark.parametrize("orders", [(2, 3), (3, 4), (2, 2)])
def test_product_tree_hops_match_bfs_oracle(orders, rho0):
    tree = FreeProductTree(orders, rho0=rho0)
    assert_hops_match_bfs_oracle(tree, tree.vertex(w(tree, "ab"), 1), 3)


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


def test_product_tree_rejects_more_factors():
    with pytest.raises(ValueError):
        FreeProductTree((2, 3, 5))


# ---------------------------------------------------------------------------
# point_at and orbit_labels on both trees

WORD = st.text(alphabet="abAB", max_size=9)


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
    x, y = tree_vertex(space, x_text, x_tag), tree_vertex(space, y_text, y_tag)
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
# tree geometry on normal forms, against the element arithmetic it replaced

ORACLE_TREES = {
    (name, rho0): make(rho0)
    for name, make in (
        ("F2", lambda rho0: FreeGroupTree(2, rho0=rho0)),
        ("F3", lambda rho0: FreeGroupTree(3, rho0=rho0)),
        ("Z5*Z7", lambda rho0: FreeProductTree((5, 7), rho0=rho0)),
        ("Z2*Z3", lambda rho0: FreeProductTree((2, 3), rho0=rho0)),
        ("Z*Z5", lambda rho0: FreeProductTree((None, 5), rho0=rho0)),
    )
    for rho0 in (Fraction(1), Fraction(3, 2))
}
LETTERS = st.lists(st.tuples(st.integers(0, 2), st.booleans()), max_size=10)


def drawn(space, letters):
    """The element spelled by drawn (generator, inverted) letters, each
    generator taken modulo the context's."""
    ctx = space.context
    n = ctx.num_generators
    return w(space, "".join("ABC"[g % n] if inv else "abc"[g % n] for g, inv in letters))


def spelled(g):
    """The letters of g's normal form, one syllable letter by letter."""
    return tuple((h, 1 if e > 0 else -1) for h, e in g.syllables for _ in range(abs(e)))


def old_orbit_labels(space, g, x):
    if isinstance(space, FreeGroupTree):
        labels = spelled(x.inverse() * g * x)
        return labels, tuple((h, -s) for h, s in reversed(labels))
    v, tag = x
    c = v.inverse() * g * v
    return space._labels(tag, c.syllables, tag), space._labels(tag, c.inverse().syllables, tag)


def old_path(space, x, y):
    if isinstance(space, FreeGroupTree):
        return spelled(x.inverse() * y)
    return space._labels(x[1], (x[0].inverse() * y[0]).syllables, y[1])


def old_geodesic(space, x, y):
    """The geodesic walked one edge at a time by element products."""
    ctx = space.context
    points = [x]
    if isinstance(space, FreeGroupTree):
        for letter in spelled(x.inverse() * y):
            points.append(points[-1] * GroupElement(ctx, (letter,)))
        return points
    prefix, side = x
    for label in old_path(space, x, y):
        if label != TAG_STEP:
            prefix = prefix * GroupElement(ctx, (label,))
        side = 1 - side
        points.append(space.vertex(prefix, side))
    return points


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    tree=st.sampled_from(sorted(ORACLE_TREES)),
    x_letters=LETTERS,
    x_tag=st.integers(0, 1),
    y_letters=LETTERS,
    y_tag=st.integers(0, 1),
    g_letters=LETTERS,
)
@example(tree=("F3", Fraction(3, 2)), x_letters=[(2, False), (0, True)], x_tag=0,
         y_letters=[(2, False), (0, True)], y_tag=0, g_letters=[])  # x = y, g = 1
@example(tree=("Z2*Z3", Fraction(1)), x_letters=[(0, False), (1, False)], x_tag=0,
         y_letters=[(0, False), (1, False)], y_tag=0, g_letters=[])  # x = y, g = 1
@example(tree=("Z*Z5", Fraction(3, 2)), x_letters=[(0, False), (0, False), (1, True)],
         x_tag=0, y_letters=[(0, False), (1, False)], y_tag=1,
         g_letters=[(0, False), (0, False), (1, True), (0, True)])
def test_tree_geometry_matches_element_arithmetic(tree, x_letters, x_tag, y_letters, y_tag,
                                                  g_letters):
    space = ORACLE_TREES[tree]
    ctx = space.context
    xw, yw, g = drawn(space, x_letters), drawn(space, y_letters), drawn(space, g_letters)
    is_free = isinstance(space, FreeGroupTree)
    x = xw if is_free else space.vertex(xw, x_tag)
    y = yw if is_free else space.vertex(yw, y_tag)
    path = old_path(space, x, y)
    if not is_free:
        assert space._path(x, y) == path
    assert space.hops(x, y) == len(path)
    assert space.dist(x, y) == len(path) * space.rho0
    assert space.hops(x, x) == 0
    geodesic = old_geodesic(space, x, y)
    assert space.geodesic(x, y) == geodesic
    for k, vertex in enumerate(geodesic):
        assert space.point_at(x, y, k) == vertex
    for h in (g, ctx.identity()):
        assert space.orbit_labels(h, x) == old_orbit_labels(space, h, x)
    # an element that fixes x: only 1 on a Cayley tree; on a Bass-Serre
    # tree, the vertex stabiliser of (v, tag) is v G_tag v^-1
    fixer = ctx.identity() if is_free else xw * ctx.generator(x[1]) * xw.inverse()
    assert space.orbit_labels(fixer, x) == old_orbit_labels(space, fixer, x) == ((), ())


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    tree=st.sampled_from(sorted(ORACLE_TREES)),
    x_letters=LETTERS,
    x_tag=st.integers(0, 1),
    g_letters=LETTERS,
)
@example(tree=("Z5*Z7", Fraction(1)), x_letters=[(0, False), (1, False)], x_tag=0,
         g_letters=[])  # g = 1
@example(tree=("Z2*Z3", Fraction(1)), x_letters=[], x_tag=0,
         g_letters=[(1, False), (0, False)])  # g = ba ends in a syllable of the tag
@example(tree=("F2", Fraction(1)), x_letters=[(0, False), (1, False)], x_tag=0,
         g_letters=[(0, False), (0, False), (1, False), (0, True)])  # x, g x open a, aa
def test_orbit_prefix_is_the_head_of_the_orbit_labels(tree, x_letters, x_tag, g_letters):
    # the prefix read is hops(x, g x) with the first k labels of each side
    # of the element-arithmetic orbit labels, for every k up to past the
    # path's end, and for an element that fixes x
    space = ORACLE_TREES[tree]
    ctx = space.context
    xw, g = drawn(space, x_letters), drawn(space, g_letters)
    is_free = isinstance(space, FreeGroupTree)
    x = xw if is_free else space.vertex(xw, x_tag)
    fixer = ctx.identity() if is_free else xw * ctx.generator(x[1]) * xw.inverse()
    for h in (g, g.inverse(), ctx.identity(), fixer):
        out, back = old_orbit_labels(space, h, x)
        assert len(out) == space.hops(x, space.act(h, x))
        for k in range(5):
            assert space.orbit_prefix(h, x, k) == (len(out), out[:k], back[:k])


@pytest.mark.parametrize("tree", ["F2", "Z5*Z7"])
def test_tree_geometry_keeps_its_validation(tree):
    # a context mismatch is a ValueError, as is a vertex that is not in
    # canonical form; both trees' paths check both ends
    space = TREES[tree]
    other = FreeGroupTree(3) if tree == "F2" else FreeProductTree((2, 3))
    x, y = tree_vertex(space, "ab", 0), tree_vertex(space, "bA", 1)
    stranger = tree_vertex(other, "ab", 0)
    g = w(space, "ab")
    for call in (
        lambda: space.hops(x, stranger),
        lambda: space.hops(stranger, x),
        lambda: space.geodesic(x, stranger),
        lambda: space.point_at(stranger, y, 0),
        lambda: space.orbit_labels(w(other, "ab"), x),
        lambda: space.orbit_prefix(w(other, "ab"), x, 1),
    ):
        with pytest.raises(ValueError):
            call()
    if tree == "Z5*Z7":
        bad = (w(space, "ab"), 1)  # ends in a syllable of its own tag
        for call in (
            lambda: space.hops(x, bad),
            lambda: space.hops(bad, x),
            lambda: space.geodesic(bad, y),
            lambda: space.point_at(x, bad, 0),
        ):
            with pytest.raises(ValueError):
                call()


# ---------------------------------------------------------------------------
# FiniteHypGraph


def oracle_four_point_delta(space: FiniteHypGraph) -> Fraction:
    """Direct scan of the Gromov-product four-point condition, counted in
    half edges so the triple loop runs on integers."""
    V = range(space.n)
    best = 0
    for x in V:
        gp = [[2 * space.gromov_product(p, q, x) / space.rho0 for q in V] for p in V]
        assert all(g.denominator == 1 for row in gp for g in row)
        gp = [[int(g) for g in row] for row in gp]
        for p in V:
            for q in V:
                for r in V:
                    defect = min(gp[p][q], gp[q][r]) - gp[p][r]
                    if defect > best:
                        best = defect
    return Fraction(best, 2) * space.rho0


def pairing_sums_delta(hops, rho0) -> Fraction:
    """All quadruples at once: half the gap between the two largest of the
    three pairing sums d(w,x) + d(y,z), d(w,y) + d(x,z), d(w,z) + d(x,y)."""
    D = np.asarray(hops, dtype=np.int64)
    s1 = D[:, :, None, None] + D[None, None, :, :]
    s2 = D[:, None, :, None] + D[None, :, None, :]
    s3 = D[:, None, None, :] + D[None, :, :, None]
    stack = np.stack([s1, s2, s3], axis=-1)
    stack.sort(axis=-1)
    return Fraction(int((stack[..., 2] - stack[..., 1]).max()), 2) * rho0


def floyd_warshall_hops(n, edges):
    big = n + 1
    d = [[0 if i == j else big for j in range(n)] for i in range(n)]
    for i, j in edges:
        d[i][j] = d[j][i] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def assert_delta_matches_oracles(n, edges, rho0):
    g = FiniteHypGraph(n, edges, rho0=rho0)
    hops = floyd_warshall_hops(n, edges)
    assert [[g.hops(i, j) for j in range(n)] for i in range(n)] == hops
    assert [[g.dist(i, j) for j in range(n)] for i in range(n)] == [
        [h * g.rho0 for h in row] for row in hops
    ]
    assert g.delta == pairing_sums_delta(hops, g.rho0) == oracle_four_point_delta(g)
    return g


@st.composite
def connected_graphs(draw, n_max=20):
    """A random spanning tree on n <= n_max vertices plus random chords."""
    n = draw(st.integers(1, n_max))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    if n > 1:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        chords = draw(st.lists(pair.filter(lambda e: e[0] != e[1]), max_size=2 * n))
        edges |= {(min(e), max(e)) for e in chords}
    return n, sorted(edges)


RHO0S = (1, Fraction(3, 2))


@settings(max_examples=30, deadline=None)
@given(graph=connected_graphs(), rho0=st.sampled_from(RHO0S))
def test_random_graph_delta_matches_both_oracles(graph, rho0):
    assert_delta_matches_oracles(*graph, rho0)


def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


DELTA_FAMILIES = {
    "single": (1, []),
    "edge": (2, [(0, 1)]),
    **{f"P{n}": (n, [(i, i + 1) for i in range(n - 1)]) for n in (3, 6, 10)},
    **{f"star{n}": (n, [(0, i) for i in range(1, n)]) for n in (4, 9)},
    **{f"K{n}": (n, list(itertools.combinations(range(n), 2))) for n in (3, 4, 7)},
    **{f"C{n}": (n, _cycle(n)) for n in (3, 4, 5, 6, 7, 8, 9, 12, 13)},
}


@pytest.mark.parametrize("rho0", RHO0S)
@pytest.mark.parametrize("family", sorted(DELTA_FAMILIES))
def test_graph_family_delta_matches_both_oracles(family, rho0):
    g = assert_delta_matches_oracles(*DELTA_FAMILIES[family], rho0)
    if family.startswith(("single", "edge", "P", "star", "K")):
        assert g.delta == 0


def test_delta_memory_is_cubic():
    # the n^4 quadruple scan holds one n^3 int32 array at a time, so the
    # 100-cycle peaks near 4 MB where all quadruples at once took gigabytes
    n = 100
    tracemalloc.start()
    try:
        c = cycle_graph(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert c.delta == n // 4  # C_n, n = 0 mod 4: a square of side n/4
    assert peak < 8 * n**3 + 2**20


def test_cycle_graph_examples():
    c6 = cycle_graph(6)
    assert c6.dist(0, 3) == 3
    assert c6.geodesic(0, 2) == [0, 1, 2]
    assert c6.delta == oracle_four_point_delta(c6) == 1


def test_tree_graph_delta_zero():
    tree = FiniteHypGraph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    assert tree.delta == 0
    edge = FiniteHypGraph(2, [(0, 1)])
    assert edge.delta == 0


def test_random_graph_delta_matches_oracle():
    rng = random.Random(9)
    for _ in range(6):
        g = random_connected_graph(rng, n_max=9)
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
    for n, edges in ((2, []), (4, [(0, 1), (2, 3)]), (5, [(0, 1), (1, 2), (2, 3)])):
        with pytest.raises(ValueError, match="disconnected"):
            FiniteHypGraph(n, edges)


def test_load_graph_schema():
    g = load_graph({"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]})
    assert g.n == 3
    with pytest.raises(ValueError):
        load_graph({"vertices": 3, "edges": [], "bogus": 1})


def test_graph_metric_axioms():
    rng = random.Random(10)
    g = random_connected_graph(rng, n_max=15)
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


# ---------------------------------------------------------------------------
# the shared protocol


BACKENDS = {"FreeGroupTree", "FreeProductTree", "FiniteHypGraph"}


def backend_type_checks(source: str) -> list:
    """Line numbers of the `isinstance` calls that name a backend class."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            names = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node.args[1])
                if isinstance(n, (ast.Name, ast.Attribute))
            }
            if names & BACKENDS:
                found.append(node.lineno)
    return sorted(found)


def test_backend_type_checks_finder():
    src = "isinstance(s, (FreeGroupTree, spaces.FiniteHypGraph))\nisinstance(s, int)\n"
    assert backend_type_checks(src) == [1]


def test_no_backend_type_checks_outside_spaces():
    # only spaces.py knows which backend it holds; every other module asks
    # the space: `is_tree`, `delta` and the backend's own methods
    package = Path(psgrowth.__file__).parent
    found = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if path.name != "spaces.py"
        and (lines := backend_type_checks(path.read_text()))
    }
    assert found == {}


def _is_assert(node) -> bool:
    if isinstance(node, ast.Assert):
        return True
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def asserts(source: str) -> list:
    """Line numbers of the `assert` statements, which `python -O` strips,
    and of every `raise AssertionError`: a failed recheck raises
    RuntimeError."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source)) if _is_assert(n))


def test_asserts_finder():
    src = (
        "assert x\nif not x:\n    raise RuntimeError\nassert y, 'why'\n"
        "raise AssertionError('unreachable')\nraise AssertionError\n"
        "try:\n    pass\nexcept AssertionError:\n    raise\n"
    )
    assert asserts(src) == [1, 4, 5, 6]


def test_no_asserts_in_the_library():
    # every library check raises, so `python -O` keeps it
    package = Path(psgrowth.__file__).parent
    found = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if (lines := asserts(path.read_text()))
    }
    assert found == {}


def unused_imports(source: str) -> list:
    """(line, name) of every name an import binds and the module never
    reads; `__future__` imports bind nothing to read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_finder():
    src = (
        "from __future__ import annotations\nimport os.path\nimport sys as system\n"
        "from .words import parse, free_group\nx: free_group = os.path.join('a')\n"
    )
    assert unused_imports(src) == [(3, "system"), (4, "parse")]


def test_no_unused_imports_in_the_library():
    # __init__.py imports to export, so it is the one module left out
    package = Path(psgrowth.__file__).parent
    found = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path.read_text()))
    }
    assert found == {}


def name_reads(source: str, names: set) -> list:
    """Line numbers that name one of `names`: as an attribute, a name, an
    imported name or a string (as in `getattr(space, "is_tree")`)."""
    return sorted(
        n.lineno
        for n in ast.walk(ast.parse(source))
        if (isinstance(n, ast.Attribute) and n.attr in names)
        or (isinstance(n, ast.Name) and n.id in names)
        or (isinstance(n, ast.alias) and n.name in names)
        or (isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value in names)
    )


def test_is_tree_reads_finder():
    src = "if space.is_tree:\n    pass\nx = space.delta\ngetattr(s, 'is_tree')\n"
    assert name_reads(src, {"is_tree"}) == [1, 4]
    src = "from .words import (\n    _join,\n)\nS._from_syllables(c, s)\n"
    assert name_reads(src, {"_join", "_from_syllables"}) == [2, 4]


def test_geometry_toolbox_does_not_ask_for_a_tree():
    # only trees have hyperbolic elements, and `translation_length` already
    # says so; the axis, cylinder, period and ping-pong tools keep one rule
    # for every backend
    package = Path(psgrowth.__file__).parent
    found = {
        name: lines
        for name in ("hypgeom.py", "periodicity.py")
        if (lines := name_reads((package / name).read_text(), {"is_tree"}))
    }
    assert found == {}


def test_tree_only_certificates_read_no_delta():
    # a product-set certificate is only ever issued on a tree, where
    # delta = 0: the period, ping-pong, concentrated-chain and overlap bounds
    # are the paper's with every delta term deleted, and none may come back
    package = Path(psgrowth.__file__).parent
    found = {
        name: lines
        for name, source in (
            ("periodicity.py", (package / "periodicity.py").read_text()),
            ("concentrated_pipeline", inspect.getsource(concentrated_pipeline)),
            ("small_cancellation_diameter", inspect.getsource(small_cancellation_diameter)),
        )
        if (lines := name_reads(source, {"delta"}))
    }
    assert found == {}


def test_syllable_tuples_stay_inside_words():
    # product-set levels are automata and syllable tuples only inside
    # words.py: every other module asks `product` or `product_sizes` for a
    # product of ElementSets and never names the level driver, the engine
    # or the stored tuples; `words` itself has no set loop beside the engine
    package = Path(psgrowth.__file__).parent
    private = {"_roots", "_Automaton", "_join", "_members", "_from_syllables"}
    found = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if path.name != "words.py" and (lines := name_reads(path.read_text(), private))
    }
    assert found == {}
    assert not hasattr(psgrowth.words, "_levels")
    # the engine has one state table: no edge table of digit strings
    dfa = psgrowth.words._Automaton(psgrowth.words.free_group(2))
    assert not hasattr(dfa, "label") and not hasattr(dfa, "child")
    assert not hasattr(psgrowth.words._Automaton, "_step")


def test_tree_hot_paths_take_no_inverse():
    # hops, orbit labels, orbit prefixes and paths read x^-1 y off the two
    # normal forms (`GroupElement.offset`, `offset_length`, `fork_head` and
    # `fork_letters_head`); no element inverse comes back to the trees'
    # hottest calls
    found = {
        f"{cls.__name__}.{name}": lines
        for cls, name in (
            (FreeGroupTree, "hops"),
            (FreeGroupTree, "orbit_labels"),
            (FreeGroupTree, "orbit_prefix"),
            (FreeProductTree, "hops"),
            (FreeProductTree, "_path"),
            (FreeProductTree, "orbit_labels"),
            (FreeProductTree, "orbit_prefix"),
        )
        if (lines := name_reads(textwrap.dedent(inspect.getsource(getattr(cls, name))),
                                {"inverse"}))
    }
    assert found == {}


def test_size_callers_count_without_storing_words():
    # a caller that needs only |U^n| reads `product_sizes`, which stores no
    # level; the level driver `_roots` has `product` and `product_sizes` as
    # its only callers
    package = Path(psgrowth.__file__).parent
    sized = {
        path.name: [i for i, line in enumerate(path.read_text().splitlines(), 1)
                    if "len(product_set(" in line]
        for path in sorted(package.glob("*.py"))
    }
    assert {name: lines for name, lines in sized.items() if lines} == {}
    callers = {
        fn.name
        for path in sorted(package.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, ast.FunctionDef) and name_reads(ast.unparse(fn), {"_roots"})
    }
    assert callers == {"product", "product_sizes"}


def test_is_tree_is_a_class_capability():
    assert FreeGroupTree.is_tree and FreeProductTree.is_tree
    assert not FiniteHypGraph.is_tree
    assert FreeGroupTree(2).is_tree and not cycle_graph(5).is_tree


@pytest.mark.parametrize(
    "make",
    [
        lambda **kw: FreeGroupTree(2, **kw),
        lambda **kw: FreeProductTree((5, 7), **kw),
        lambda **kw: FiniteHypGraph(3, [(0, 1), (1, 2)], [[2, 1, 0]], **kw),
    ],
    ids=["F2", "Z5*Z7", "path"],
)
def test_scale_is_checked_the_same_on_every_backend(make):
    for bad in ({"rho0": 0}, {"rho0": -1}, {"kappa0": 0}, {"kappa0": "-1/2"}, {"N0": 0}):
        with pytest.raises(ValueError):
            make(**bad)
    space = make(rho0=2, N0=3)
    assert (space.rho0, space.kappa0, space.N0) == (2, 2, 3)
    assert make(kappa0="5/2").kappa0 == Fraction(5, 2)


def test_graph_kappa0_is_at_least_delta():
    c8 = FiniteHypGraph(8, [(i, (i + 1) % 8) for i in range(8)], kappa0=1)
    assert c8.delta == 2
    assert c8.kappa0 == 2

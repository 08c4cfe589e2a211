import random
from fractions import Fraction

import pytest

from psgrowth.hypgeom import (
    Constants,
    axis_distance,
    axis_line_point,
    chain_certificate,
    cylinder_membership,
    gromov_product,
    small_cancellation_diameter,
    translation_length,
)
from psgrowth.spaces import FiniteHypGraph, cycle_graph, random_connected_graph
from psgrowth.words import random_reduced_word

from conftest import ball, w


# ---------------------------------------------------------------------------
# constants


def test_constants_free_group_tree(f2_tree):
    c = Constants.for_space(f2_tree)
    assert c.nu == 4
    assert c.A == 10**7
    assert c.kappa_of_d(3) == f2_tree.kappa0  # delta = 0 on trees
    assert c.N_of_d(3) == 69


def test_constants_scaled():
    g = cycle_graph(12)  # delta > 0
    c = Constants.for_space(g)
    assert c.nu == 4 * g.N0 * g.kappa0 / g.rho0
    assert c.kappa_of_d(2) == g.kappa0 + 800 * g.delta + 100 * g.delta
    assert isinstance(c.A, Fraction)


# ---------------------------------------------------------------------------
# gromov product


def test_gromov_product_examples(f2_tree):
    one = f2_tree.basepoint()
    assert gromov_product(f2_tree, w(f2_tree, "a"), w(f2_tree, "b"), one) == 0
    p = w(f2_tree, "ab")
    assert gromov_product(f2_tree, p, p, one) == f2_tree.dist(p, one)
    assert gromov_product(f2_tree, w(f2_tree, "ab"), w(f2_tree, "a"), one) == 1


def test_gromov_product_symmetry_invariance(f2_tree):
    rng = random.Random(21)
    for _ in range(40):
        p, q, x, g = (
            random_reduced_word(rng, f2_tree.context, rng.randint(0, 6))
            for _ in range(4)
        )
        assert gromov_product(f2_tree, p, q, x) == gromov_product(f2_tree, q, p, x)
        assert gromov_product(
            f2_tree, f2_tree.act(g, p), f2_tree.act(g, q), f2_tree.act(g, x)
        ) == gromov_product(f2_tree, p, q, x)


def test_gromov_product_vs_geodesic_distance():
    # (x,z)_y <= d(y, [x,z]) always; d(z,[x,y]) <= (x,y)_z + 4 delta.
    # delta here is the vertex four-point constant, which ignores
    # edge-interior points (a triangle graph has vertex-delta 0), so the
    # second inequality carries a one-edge discretization term.
    rng = random.Random(22)
    for _ in range(5):
        g = random_connected_graph(rng, n_max=12)
        for _ in range(30):
            x, y, z = (rng.randrange(g.n) for _ in range(3))
            seg = g.geodesic(x, z)
            d_to_seg = min(g.dist(y, p) for p in seg)
            assert gromov_product(g, x, z, y) <= d_to_seg
            seg2 = g.geodesic(x, y)
            assert (
                min(g.dist(z, p) for p in seg2)
                <= gromov_product(g, x, y, z) + 4 * g.delta + g.rho0
            )


def test_thin_triangles_lemma():
    # p on [x,y] with (y,z)_x >= |p-x|  =>  (x,z)_p <= delta and d(p,[x,z]) <= 5 delta
    rng = random.Random(23)
    for _ in range(5):
        g = random_connected_graph(rng, n_max=12)
        for _ in range(30):
            x, y, z = (rng.randrange(g.n) for _ in range(3))
            gp = gromov_product(g, y, z, x)
            for p in g.geodesic(x, y):
                if gp >= g.dist(p, x):
                    assert gromov_product(g, x, z, p) <= g.delta
                    assert min(g.dist(p, q) for q in g.geodesic(x, z)) <= 5 * g.delta


def test_thin_triangles_2_lemma():
    # projections: (z,x)_p <= 4 delta, (y,x)_p <= 4 delta, |x-p| <= (z,y)_x + 4 delta
    rng = random.Random(24)
    for _ in range(5):
        g = random_connected_graph(rng, n_max=12)
        for _ in range(25):
            x, y, z = (rng.randrange(g.n) for _ in range(3))
            seg = g.geodesic(x, y)
            p = min(seg, key=lambda q: (g.dist(z, q), g.point_key(q)))
            assert gromov_product(g, z, x, p) <= 4 * g.delta
            assert gromov_product(g, y, x, p) <= 4 * g.delta
            assert g.dist(x, p) <= gromov_product(g, z, y, x) + 4 * g.delta


# ---------------------------------------------------------------------------
# chain certificates


def test_chain_certificate_certified(f2_tree):
    pts = [w(f2_tree, s) for s in ("1", "aa", "aabb", "aabbaa")]
    cert = chain_certificate(f2_tree, pts, alpha=1)
    assert cert.certified and cert.pair_bound_holds
    assert cert.max_interior_product == 0


def test_chain_certificate_violation(f2_tree):
    pts = [w(f2_tree, "1"), w(f2_tree, "a"), w(f2_tree, "1")]
    cert = chain_certificate(f2_tree, pts, alpha=1)
    assert not cert.certified
    assert cert.violation_index == 1


def test_chain_certificate_geodesic_equality(f2_tree):
    pts = f2_tree.geodesic(f2_tree.basepoint(), w(f2_tree, "aaaa"))
    cert = chain_certificate(f2_tree, pts, alpha=0)
    assert cert.certified


def test_chain_certificate_geodesic_alpha_boundary(f2_tree):
    # points spaced s apart on one geodesic have interior products 0, so
    # the hypothesis admits alpha up to s/2 (at delta = 0) and no more;
    # the certified conclusion then holds with room to spare
    s = 2
    pts = [w(f2_tree, "a" * (s * k)) for k in range(5)]
    at_half = chain_certificate(f2_tree, pts, alpha=Fraction(s, 2))
    assert at_half.certified
    beyond = chain_certificate(f2_tree, pts, alpha=s)
    assert not beyond.certified and beyond.violation_index == 1


# ---------------------------------------------------------------------------
# translation length and axes


def test_translation_length_examples(f2_tree):
    ax = translation_length(f2_tree, w(f2_tree, "abA"))
    assert ax.translation_length == 1 and ax.is_hyperbolic
    assert ax.min_point == w(f2_tree, "a")

    ax0 = translation_length(f2_tree, f2_tree.context.identity())
    assert ax0.translation_length == 0 and not ax0.is_hyperbolic

    ax_comm = translation_length(f2_tree, w(f2_tree, "abAB"))
    assert ax_comm.translation_length == 4


def test_translation_length_axis_points_realize(f2_tree):
    rng = random.Random(25)
    for _ in range(30):
        g = random_reduced_word(rng, f2_tree.context, rng.randint(1, 8))
        ax = translation_length(f2_tree, g)
        for p in ax.axis_segment:
            assert f2_tree.dist(p, f2_tree.act(g, p)) == ax.translation_length


def test_translation_length_conjugation_and_powers(f2_tree):
    rng = random.Random(26)
    for _ in range(25):
        g = random_reduced_word(rng, f2_tree.context, rng.randint(1, 6))
        h = random_reduced_word(rng, f2_tree.context, rng.randint(0, 6))
        ax = translation_length(f2_tree, g)
        assert translation_length(f2_tree, g.conjugate_by(h)).translation_length == ax.translation_length
        if ax.is_hyperbolic:
            for n in range(1, 6):
                assert (
                    translation_length(f2_tree, g**n).translation_length
                    == n * ax.translation_length
                )


def test_translation_length_oracle_equivalence(f2_tree):
    # independent oracle: min displacement over the ball of radius 4
    rng = random.Random(27)
    points = ball(f2_tree, 4)
    for _ in range(15):
        g = random_reduced_word(rng, f2_tree.context, rng.randint(1, 8))
        expected = min(f2_tree.dist(x, f2_tree.act(g, x)) for x in points)
        assert translation_length(f2_tree, g).translation_length == expected


def test_displacement_identity(f2_tree):
    # |gx - x| = [g] + 2 d(x, axis) on trees
    rng = random.Random(28)
    for _ in range(30):
        g = random_reduced_word(rng, f2_tree.context, rng.randint(1, 7))
        x = random_reduced_word(rng, f2_tree.context, rng.randint(0, 6))
        ax = translation_length(f2_tree, g)
        if ax.is_hyperbolic:
            d = axis_distance(f2_tree, ax, x)
            assert f2_tree.dist(x, f2_tree.act(g, x)) == ax.translation_length + 2 * d
            assert d >= 0


def test_translation_length_free_product(z2z3_tree):
    t = z2z3_tree
    ab = w(t, "ab")
    ax = translation_length(t, ab)
    assert ax.translation_length == 2 and ax.is_hyperbolic
    # elliptic: conjugate of a factor element
    ell = w(t, "b") * w(t, "a") * w(t, "b").inverse()
    ax_e = translation_length(t, ell)
    assert ax_e.translation_length == 0 and not ax_e.is_hyperbolic
    assert t.act(ell, ax_e.min_point) == ax_e.min_point


def test_translation_length_graph():
    c6 = cycle_graph(6)
    rot = c6.context.generator(0)
    ax = translation_length(c6, rot)
    assert ax.translation_length == 1
    assert not ax.is_hyperbolic
    # a rotation of C_8 moves every vertex, but it has order 8: neither it
    # nor its eighth power, which fixes everything, is hyperbolic
    c8 = cycle_graph(8)
    a = c8.context.generator(0)
    for g, length in ((a, 1), (a**8, 0)):
        ax = translation_length(c8, g)
        assert (ax.translation_length, ax.is_hyperbolic) == (length, False)


def test_midpoint_lemma_trees(f2_tree):
    # midpoint of [x, gx] lies in C_g^{+70 delta}; delta = 0: on the axis
    rng = random.Random(29)
    for _ in range(30):
        g = random_reduced_word(rng, f2_tree.context, rng.randint(1, 6))
        x = random_reduced_word(rng, f2_tree.context, rng.randint(0, 5))
        ax = translation_length(f2_tree, g)
        if not ax.is_hyperbolic:
            continue
        path = f2_tree.geodesic(x, f2_tree.act(g, x))
        if len(path) % 2 == 1:
            mid = path[len(path) // 2]
            assert axis_distance(f2_tree, ax, mid) == 0


# ---------------------------------------------------------------------------
# cylinders


def test_cylinder_membership_examples(f2_tree):
    one = f2_tree.basepoint()
    ab = w(f2_tree, "ab")
    assert cylinder_membership(f2_tree, one, ab, 0)
    # b^-1 lies on the backward ray (ab)^-1 = b^-1 a^-1 ...: displacement
    # oracle d(B, ab.B) = |ba| = 2 = [ab], so it is on the axis; b is not.
    assert f2_tree.dist(w(f2_tree, "B"), f2_tree.act(ab, w(f2_tree, "B"))) == 2
    assert cylinder_membership(f2_tree, w(f2_tree, "B"), ab, 0)
    assert not cylinder_membership(f2_tree, w(f2_tree, "b"), ab, 0)
    far = w(f2_tree, "bbb")
    d = axis_distance(f2_tree, translation_length(f2_tree, ab), far)
    assert cylinder_membership(f2_tree, far, ab, d)
    with pytest.raises(ValueError):
        cylinder_membership(f2_tree, one, f2_tree.context.identity(), 0)


def test_axis_line_point_walks_axis(f2_tree):
    ax = translation_length(f2_tree, w(f2_tree, "ab"))
    pts = [axis_line_point(f2_tree, ax, i) for i in range(-4, 5)]
    for i in range(len(pts) - 1):
        assert f2_tree.dist(pts[i], pts[i + 1]) == f2_tree.rho0
    for p in pts:
        assert axis_distance(f2_tree, ax, p) == 0


# ---------------------------------------------------------------------------
# small cancellation overlap


def test_small_cancellation_disjoint_axes(f2_tree):
    rep = small_cancellation_diameter(f2_tree, w(f2_tree, "a"), w(f2_tree, "b"))
    assert rep.diameter == 0 and rep.within_bound


def test_small_cancellation_translated_axis(f2_tree):
    conj = w(f2_tree, "a") ** 10
    f = conj * w(f2_tree, "b") * conj.inverse()
    rep = small_cancellation_diameter(f2_tree, w(f2_tree, "a"), f)
    assert rep.diameter == 0 and rep.within_bound


def test_small_cancellation_overlapping_axes(f2_tree):
    # E = <ab>, F = <(ab)^5 b (ab)^-5>: the axis of F is the (ab)^5-translate
    # of the b-line; its backward step (ab)^5 b^-1 = (ab)^4 a retracts one
    # edge along the ab-axis, so the exact overlap is the single edge
    # {(ab)^4 a, (ab)^5} of diameter 1, and the closest axis point to x0
    # is (ab)^4 a at distance 9.
    ab = w(f2_tree, "ab")
    conj = ab**5
    f = conj * w(f2_tree, "b") * conj.inverse()
    ax_f = translation_length(f2_tree, f)
    assert axis_distance(f2_tree, ax_f, f2_tree.basepoint()) == 9
    rep = small_cancellation_diameter(f2_tree, ab, f)
    assert rep.diameter == 1
    assert rep.within_bound  # bound = 3*4*max(2, 1) = 24


def test_small_cancellation_rejects_equal_roots(f2_tree):
    ab = w(f2_tree, "ab")
    with pytest.raises(ValueError):
        small_cancellation_diameter(f2_tree, ab, ab.inverse())


def test_estimate_delta_op():
    from psgrowth.spaces import estimate_delta

    c6 = cycle_graph(6)
    assert estimate_delta(c6) == c6.delta == 1
    with pytest.raises(ValueError):
        estimate_delta("not a graph")


def test_chain_certificate_beta_hausdorff(f2_tree):
    # tree chain with zero interior products: broken line = geodesic
    pts = [w(f2_tree, s) for s in ("1", "aa", "aabb", "aabbaa")]
    cert = chain_certificate(f2_tree, pts, alpha=1, beta=0)
    assert cert.certified and cert.hausdorff_ok
    assert cert.hausdorff_to_geodesic == 0

    rng = random.Random(32)
    for _ in range(5):
        g = random_connected_graph(rng, n_max=12)
        # grow a chain with spaced points; feed the lemma whatever beta the
        # chain actually achieved and check the 10*delta + beta conclusion
        pts = [rng.randrange(g.n)]
        for _ in range(3):
            far = max(range(g.n), key=lambda v: (g.dist(pts[-1], v), v))
            pts.append(far)
        cert = chain_certificate(g, pts, alpha=0, beta=None)
        if cert.certified:
            beta = cert.max_interior_product
            cert2 = chain_certificate(g, pts, alpha=0, beta=beta)
            assert cert2.hausdorff_ok


def test_stability_of_quasi_geodesics_22delta():
    # a broken path [x,m] + [m,y] with junction product <= delta/2 is a
    # 1-quasi-geodesic; the lemma keeps it within 22 delta of the geodesic
    rng = random.Random(33)
    checked = 0
    for _ in range(10):
        g = random_connected_graph(rng, n_max=14)
        if g.delta == 0:
            continue
        for _ in range(40):
            x, y, m = (rng.randrange(g.n) for _ in range(3))
            if g.gromov_product(x, y, m) > g.delta / 2:
                continue
            broken = g.geodesic(x, m)[:-1] + g.geodesic(m, y)
            geo = g.geodesic(x, y)
            haus = max(
                max(min(g.dist(p, q) for q in geo) for p in broken),
                max(min(g.dist(p, q) for q in broken) for p in geo),
            )
            assert haus <= 22 * g.delta, (g.edges, x, y, m)
            checked += 1
    assert checked > 30


def test_elliptic_displacement_bound_wheel():
    # wheel graph: rotations fix the hub; for the elliptic set of rotations
    # the displacement bound lambda_0 <= 2 kappa_0 + 15 delta holds at the
    # energy minimizer (the hub, where it is 0)
    from psgrowth.energy import minimize_energy
    from psgrowth.words import ElementSet

    n = 12
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n) for i in range(n)]
    perm = [(i + 1) % n for i in range(n)] + [n]
    g = FiniteHypGraph(n + 1, edges, [perm])
    assert g.delta > 0
    rot = g.context.generator(0)
    U = ElementSet(g.context, [rot**k for k in range(1, 12)])
    prof = minimize_energy(g, U)
    assert prof.energy <= 10 * g.delta
    assert prof.displacement <= 2 * g.kappa0 + 15 * g.delta


def test_small_cancellation_random_bound_holds(f2_tree):
    rng = random.Random(31)
    checked = 0
    while checked < 15:
        g = random_reduced_word(rng, f2_tree.context, rng.randint(1, 5))
        h = random_reduced_word(rng, f2_tree.context, rng.randint(1, 5))
        if g.is_identity or h.is_identity:
            continue
        from psgrowth.words import primitive_root

        rg, _ = primitive_root(g)
        rh, _ = primitive_root(h)
        if rg == rh or rg == rh.inverse():
            continue
        rep = small_cancellation_diameter(f2_tree, g, h)
        assert rep.within_bound, (g, h, rep)
        checked += 1

"""Cross-module scenarios: free-product pipelines end to end, infinite
cyclic factors, and action laws on every backend."""

import random
from fractions import Fraction

from psgrowth.energy import Mode, minimize_energy
from psgrowth.growth import diffuse_pipeline, growth_report
from psgrowth.hypgeom import translation_length
from psgrowth.reduction import reduce_tree
from psgrowth.spaces import FreeProductTree, cycle_graph
from psgrowth.words import ElementSet, parse, random_reduced_word

from conftest import w


# ---------------------------------------------------------------------------
# free product pipelines end to end


def test_diffuse_pipeline_free_product(z5z7_tree):
    t = z5z7_tree
    st = w(t, "ab")
    U = ElementSet(
        t.context,
        [st**k for k in range(2, 9)] + [w(t, "ba"), w(t, "abab") * w(t, "b")],
    )
    out = diffuse_pipeline(t, U, Mode.practical(1, 1), n=3)
    assert out.branch in ("NonPeriodic", "BiPeriodic", "Failed")
    if out.branch != "Failed":
        assert out.reduction is not None


def test_growth_report_free_product_paper(z2z3_tree):
    t = z2z3_tree
    U = ElementSet.from_strings(t.context, ["ab", "ba", "abb"])
    rep = growth_report(t, U, 3, Mode.paper())
    assert not rep.violations
    assert rep.sizes[1] == 3
    # brute-force oracle for |U^2|
    els = list(U)
    expect = {x * y for x in els for y in els}
    assert rep.sizes[2] == len(expect)


def test_biperiodic_branch_free_product(z5z7_tree):
    # a long power block inside <st> plus an off-axis element: the middles
    # collide enough to force period extraction, the set certifies as
    # bi-periodic, and the coset handoff ping-pongs exactly
    t = z5z7_tree
    st = w(t, "ab")
    U = ElementSet(
        t.context, [st**k for k in range(2, 13)] + [w(t, "ba")]
    )
    out = diffuse_pipeline(t, U, Mode.practical(1, 1), n=3, counting_c=Fraction(3, 2))
    assert out.branch == "BiPeriodic", out.reason
    assert out.certified
    assert out.witness.coset_root in (st, st.inverse())
    counts = {int(k): v for k, v in out.sizes.items()}
    assert counts[3] == counts[1] ** 3 == 216


# ---------------------------------------------------------------------------
# infinite cyclic factor


def test_infinite_factor_tree_basics():
    t = FreeProductTree((None, 3))  # Z * Z/3
    a, b = t.context.generator(0), t.context.generator(1)
    base = t.basepoint()
    assert t.dist(base, t.act(a**5, base)) == 0  # a fixes its own coset vertex
    g = a * b  # hyperbolic
    ax = translation_length(t, g)
    assert ax.is_hyperbolic and ax.translation_length == 2
    assert (a**3 * b * a**-3).inverse() == a**3 * b * b * a**-3


def test_infinite_factor_reduce_tree():
    t = FreeProductTree((None, 3))
    a, b = t.context.generator(0), t.context.generator(1)
    rng = random.Random(102)
    members = set()
    while len(members) < 25:
        word = t.context.identity()
        for _ in range(rng.randint(2, 4)):
            word = word * a ** rng.randint(1, 5) * b ** rng.randint(1, 2)
        members.add(word)
    U = ElementSet(t.context, members)
    x0 = minimize_energy(t, U).base_point
    res = reduce_tree(t, U, x0, 1, hypothesis_displacement=1)
    assert res.failed or res.certified


# ---------------------------------------------------------------------------
# action laws on every backend


def test_action_homomorphism_all_backends(f2_tree, z5z7_tree):
    rng = random.Random(103)
    spaces = [f2_tree, z5z7_tree, cycle_graph(8)]
    for space in spaces:
        ctx = space.context
        for _ in range(25):
            if ctx.kind == "free" and space is f2_tree:
                g = random_reduced_word(rng, ctx, rng.randint(0, 5))
                h = random_reduced_word(rng, ctx, rng.randint(0, 5))
                x = random_reduced_word(rng, ctx, rng.randint(0, 4))
            elif ctx.kind == "free_product":
                g = parse(ctx, "a" * rng.randint(0, 4) + "b" * rng.randint(0, 6))
                h = parse(ctx, "b" * rng.randint(0, 6) + "a" * rng.randint(0, 4))
                x = space.vertex(parse(ctx, "ab" * rng.randint(0, 3)), rng.choice((0, 1)))
            else:
                g = ctx.generator(0) ** rng.randint(-8, 8)
                h = ctx.generator(0) ** rng.randint(-8, 8)
                x = rng.randrange(space.n)
            assert space.act(g * h, x) == space.act(g, space.act(h, x))
            y = space.act(h, x)
            assert space.dist(space.act(g, x), space.act(g, y)) == space.dist(x, y)

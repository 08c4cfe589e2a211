import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psgrowth.energy import (
    Case,
    Mode,
    classify,
    displacement_at,
    energy_at,
    minimize_energy,
)
from psgrowth.spaces import cycle_graph
from psgrowth.words import ElementSet, safin_family

from conftest import TREES, random_reduced_word, w


def eset(space, *texts):
    return ElementSet.from_strings(space.context, texts)


# ---------------------------------------------------------------------------
# energy_at


def test_energy_at_examples(f2_tree):
    one = f2_tree.basepoint()
    assert energy_at(f2_tree, eset(f2_tree, "a", "A"), one) == 1
    assert energy_at(f2_tree, eset(f2_tree, "1"), w(f2_tree, "bab")) == 0
    U = eset(f2_tree, "abA", "abbA")
    assert energy_at(f2_tree, U, w(f2_tree, "a")) == Fraction(3, 2)


def test_energy_conjugation_invariance(f2_tree):
    rng = random.Random(41)
    for _ in range(20):
        U = ElementSet(
            f2_tree.context,
            {random_reduced_word(rng, f2_tree.context, rng.randint(1, 5)) for _ in range(4)},
        )
        g = random_reduced_word(rng, f2_tree.context, rng.randint(0, 5))
        x = random_reduced_word(rng, f2_tree.context, rng.randint(0, 4))
        conj = ElementSet(f2_tree.context, {u.conjugate_by(g) for u in U})
        assert energy_at(f2_tree, conj, f2_tree.act(g, x)) == energy_at(f2_tree, U, x)


# ---------------------------------------------------------------------------
# minimize_energy


def test_minimize_energy_descends_to_conjugate_vertex(f2_tree):
    U = eset(f2_tree, "abA", "abbA")
    prof = minimize_energy(f2_tree, U)
    assert prof.base_point == w(f2_tree, "a")
    assert prof.energy == Fraction(3, 2)
    assert prof.displacement == 2


def test_minimize_energy_axis_tie(f2_tree):
    prof = minimize_energy(f2_tree, eset(f2_tree, "a", "A"))
    assert prof.base_point == f2_tree.basepoint()
    assert prof.energy == 1


def test_minimize_energy_elliptic_free_product(z5z7_tree):
    t = z5z7_tree
    g = w(t, "ba")
    U = ElementSet(
        t.context, {(t.context.generator(0) ** k).conjugate_by(g) for k in (1, 2, 3)}
    )
    prof = minimize_energy(t, U)
    assert prof.energy == 0
    assert prof.displacement == 0
    assert t.act(g, (t.context.identity(), 0)) == prof.base_point


def test_minimize_energy_beats_probes(f2_tree):
    rng = random.Random(42)
    for _ in range(15):
        U = ElementSet(
            f2_tree.context,
            {random_reduced_word(rng, f2_tree.context, rng.randint(1, 6)) for _ in range(5)},
        )
        prof = minimize_energy(f2_tree, U)
        hull = f2_tree.hull_points(
            [f2_tree.basepoint()] + [f2_tree.act(u, f2_tree.basepoint()) for u in U]
        )
        for x in hull:
            assert prof.energy <= energy_at(f2_tree, U, x)


def geodesic_descent(space, U, x):
    """Steepest descent as first written, kept as the oracle: candidates are
    the first vertices of the geodesics toward the points ux != x, and
    every candidate's energy is recomputed from its definition."""
    current = energy_at(space, U, x)
    steps = 0
    while True:
        seen = {}
        for u in U:
            ux = space.act(u, x)
            if ux != x:
                step = space.geodesic(x, ux)[1]
                seen.setdefault(space.point_key(step), step)
        options = []
        for key in sorted(seen):
            val = energy_at(space, U, seen[key])
            if val < current:
                options.append((val, key, seen[key]))
        if not options:
            return x, energy_at(space, U, x), displacement_at(space, U, x), steps
        current, _, x = min(options)
        steps += 1


WORD = st.text(alphabet="abAB", max_size=8)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    tree=st.sampled_from(sorted(TREES)),
    texts=st.lists(WORD, min_size=1, max_size=8),
    shift=WORD,
    start=WORD,
    extras=st.sets(st.sampled_from(["identity", "elliptic", "short"])),
)
@example(tree="F2", texts=["ab", "abb"], shift="a", start="", extras=set())
@example(tree="Z5*Z7", texts=["1"], shift="", start="ba", extras={"elliptic"})
@example(tree="Z5*Z7", texts=["ab"], shift="ba", start="b", extras={"identity", "short"})
@example(tree="F2", texts=["aab"], shift="bA", start="Ab", extras={"identity", "short"})
def test_descent_matches_geodesic_oracle(tree, texts, shift, start, extras):
    # the counting descent must reproduce the geodesic descent exactly:
    # the same base point, energy, displacement and number of steps
    space = TREES[tree]
    ctx = space.context
    h = w(space, shift)
    members = [w(space, t).conjugate_by(h) for t in texts]
    x = space.act(w(space, start), space.basepoint())
    if "identity" in extras:
        members.append(ctx.identity())
    if "elliptic" in extras:  # fixes the vertex h * (1, 0) of the Bass-Serre tree
        members.append((ctx.generator(0) ** 2).conjugate_by(h))
    if "short" in extras:
        # moves x one edge (F2), or two edges through a tag-1 vertex (Bass-Serre)
        corner = x if tree == "F2" else x[0]
        members.append(ctx.generator(1).conjugate_by(corner))
    U = ElementSet(ctx, members)
    prof = minimize_energy(space, U, start=x if start else None)
    assert (
        prof.base_point,
        prof.energy,
        prof.displacement,
        prof.descent_steps,
    ) == geodesic_descent(space, U, x)


def test_minimize_energy_graph_exhaustive():
    c6 = cycle_graph(6)
    U = ElementSet(c6.context, [c6.context.generator(0)])
    prof = minimize_energy(c6, U)
    assert prof.energy == 1  # rotation displaces every vertex by exactly 1
    assert prof.base_point == 0  # tie-break: smallest vertex id


# ---------------------------------------------------------------------------
# classify


def test_classify_partition_is_exact(f2_tree):
    rng = random.Random(43)
    mode = Mode.practical(concentration_threshold=2, displacement_floor=1)
    for _ in range(25):
        U = ElementSet(
            f2_tree.context,
            {random_reduced_word(rng, f2_tree.context, rng.randint(1, 6)) for _ in range(5)},
        )
        prof = classify(f2_tree, U, minimize_energy(f2_tree, U), mode)
        assert prof.case in (Case.CONCENTRATED, Case.DIFFUSE, Case.BELOW_THRESHOLD)
        if prof.case != Case.BELOW_THRESHOLD:
            x = prof.base_point
            near = sum(1 for u in U if f2_tree.dist(x, f2_tree.act(u, x)) <= 2)
            far = sum(1 for u in U if f2_tree.dist(x, f2_tree.act(u, x)) > 2)
            if prof.case == Case.CONCENTRATED:
                assert 4 * near > len(U)
            else:
                assert 4 * far >= 3 * len(U)


def test_classify_examples(z5z7_tree, f2_tree):
    # factor conjugates plus one hyperbolic element: concentrated
    t = z5z7_tree
    U = ElementSet(
        t.context,
        [t.context.generator(0), t.context.generator(0) ** 2, w(t, "ab")],
    )
    prof = classify(t, U, minimize_energy(t, U), Mode.practical(1, 1))
    assert prof.case is Case.CONCENTRATED

    fam = safin_family(f2_tree.context, 3)
    prof2 = classify(
        f2_tree, fam, minimize_energy(f2_tree, fam), Mode.practical(Fraction(1, 2), 1)
    )
    assert prof2.case is Case.DIFFUSE

    U3 = eset(f2_tree, "1")
    prof3 = classify(f2_tree, U3, minimize_energy(f2_tree, U3), Mode.practical(1, 1))
    assert prof3.case is Case.BELOW_THRESHOLD


def test_classify_paper_mode_floor(f2_tree):
    fam = safin_family(f2_tree.context, 2)
    prof = classify(f2_tree, fam, minimize_energy(f2_tree, fam), Mode.paper())
    assert prof.case is Case.BELOW_THRESHOLD  # displacement 2 < 10^14


def test_d_factor_modes(f2_tree):
    from psgrowth.energy import d_factor

    U = eset(f2_tree, "a", "b")
    assert d_factor(f2_tree, U, Mode.paper()) == 1
    c6 = cycle_graph(6)  # delta = 1 > 0: auto resolves to acylindrical
    Uc = ElementSet(c6.context, [c6.context.generator(0)])
    assert d_factor(c6, Uc, Mode.paper()) == 1  # log2(2 * 1) exactly
    two = ElementSet(c6.context, [c6.context.generator(0), c6.context.generator(0) ** 2])
    assert d_factor(c6, two, Mode.paper()) == 2  # log2(2 * 2) exactly
    assert d_factor(c6, two, Mode.paper("hyperbolic_group")) == 1


def test_classify_requires_threshold(f2_tree):
    U = eset(f2_tree, "a")
    prof = minimize_energy(f2_tree, U)
    with pytest.raises(ValueError):
        classify(f2_tree, U, prof, Mode("practical"))

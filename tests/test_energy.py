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
from psgrowth.spaces import (
    FiniteHypGraph,
    FreeGroupTree,
    FreeProductTree,
    cycle_graph,
)
from psgrowth.words import ElementSet, random_reduced_word, safin_family

from conftest import TREES, w


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
# six steps from the base point, and seven from a start off it
@example(tree="F2", texts=["ab", "ba", "AB", "BA"], shift="aabbab", start="", extras=set())
@example(tree="F2", texts=["ab", "ba", "AB", "BA"], shift="aabbaB", start="b", extras=set())
# eight steps from the base point, the first across a tag-only edge
@example(tree="Z5*Z7", texts=["ab", "ba", "aab"], shift="babababa", start="", extras=set())
# seven steps from a start off the base point, with tag-only steps from
# representatives that drop their last syllable
@example(tree="Z5*Z7", texts=["ab", "ba", "aab"], shift="ab", start="babab", extras=set())
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


def random_word(rng, space, length):
    """A random reduced word of `length` letters on F_2, a random string of
    `length` letters a, b, A, B on the Bass-Serre tree."""
    if isinstance(space, FreeGroupTree):
        return random_reduced_word(rng, space.context, length)
    return w(space, "".join(rng.choice("abAB") for _ in range(length)))


@pytest.mark.slow
@pytest.mark.parametrize("tree", sorted(TREES))
def test_descent_matches_geodesic_oracle_on_large_conjugated_sets(tree):
    # 100 seeded sets of 50..400 elements, conjugated by words of 8..16
    # letters so that the minimiser lies far from the base point; every
    # other descent starts at the image of the base point under a word of
    # up to 6 letters
    space = TREES[tree]
    ctx = space.context
    rng = random.Random(f"descent:{tree}")
    for i in range(100):
        h = random_word(rng, space, rng.randint(8, 16))
        size = rng.randint(50, 400)
        members = set()
        while len(members) < size:
            members.add(random_word(rng, space, rng.randint(1, 10)).conjugate_by(h))
        U = ElementSet(ctx, members)
        x = space.basepoint()
        if i % 2:
            x = space.act(random_word(rng, space, rng.randint(1, 6)), x)
        prof = minimize_energy(space, U, start=x)
        assert (
            prof.base_point,
            prof.energy,
            prof.displacement,
            prof.descent_steps,
        ) == geodesic_descent(space, U, x), (tree, i)


def test_descent_rejects_a_start_that_is_not_a_vertex(f2_tree, z5z7_tree):
    # the descent reads every orbit from the start's coset representative,
    # so a representative that ends in the tag's own factor, or a point of
    # another space, is refused before any step, even where no step follows
    U = eset(z5z7_tree, "1")
    for bad in ((w(z5z7_tree, "a"), 0), (w(z5z7_tree, "ab"), 1), w(z5z7_tree, "a"),
                w(f2_tree, "a")):
        with pytest.raises(ValueError):
            minimize_energy(z5z7_tree, U, start=bad)
    with pytest.raises(ValueError):
        minimize_energy(f2_tree, eset(f2_tree, "ab"), start=(w(f2_tree, "a"), 0))
    with pytest.raises(ValueError):
        minimize_energy(f2_tree, eset(f2_tree, "ab"), start=w(z5z7_tree, "a"))


def test_minimize_energy_graph_exhaustive():
    c6 = cycle_graph(6)
    U = ElementSet(c6.context, [c6.context.generator(0)])
    prof = minimize_energy(c6, U)
    assert prof.energy == 1  # rotation displaces every vertex by exactly 1
    assert prof.base_point == 0  # tie-break: smallest vertex id


def oracle_energy(space, U, x) -> tuple:
    """(energy, displacement) at x from Fraction distances."""
    disps = [space.dist(x, space.act(u, x)) for u in U]
    return sum(disps, Fraction(0)) / len(U), max(disps)


@pytest.mark.parametrize("rho0", [1, Fraction(3, 2), Fraction(2, 3)], ids=str)
def test_energy_on_hops_matches_fraction_sums(rho0):
    # the hops are summed (or maximised) as integers and scaled once
    rng = random.Random(44)
    for space in (FreeGroupTree(2, rho0=rho0), FreeProductTree((5, 7), rho0=rho0)):
        texts = ["".join(rng.choice("abAB") for _ in range(rng.randint(1, 6))) for _ in range(7)]
        words = [w(space, t) for t in texts]
        U = ElementSet(space.context, words)
        one = space.basepoint()
        for x in space.geodesic(one, space.act(words[0], one)):
            got = energy_at(space, U, x), displacement_at(space, U, x)
            assert got == oracle_energy(space, U, x)
            assert all(type(v) is Fraction for v in got)
    for n in (5, 8, 9):
        # the cycle rotated, and the path reflected end to end
        reflected = FiniteHypGraph(
            n, [(i, i + 1) for i in range(n - 1)], [list(range(n))[::-1]], rho0=rho0
        )
        for graph, texts in ((cycle_graph(n, rho0=rho0), ("a", "aaa", "A")),
                             (reflected, ("a", "1"))):
            U = eset(graph, *texts)
            for v in range(n):
                got = energy_at(graph, U, v), displacement_at(graph, U, v)
                assert got == oracle_energy(graph, U, v)
            prof = minimize_energy(graph, U)
            assert (prof.energy, prof.displacement) == oracle_energy(graph, U, prof.base_point)
            assert prof.base_point == min(range(n), key=lambda v: (oracle_energy(graph, U, v), v))


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
    assert d_factor(f2_tree, U) == 1
    c6 = cycle_graph(6)  # delta = 1 > 0: the acylindrical factor
    Uc = ElementSet(c6.context, [c6.context.generator(0)])
    assert d_factor(c6, Uc) == 1  # log2(2 * 1) exactly
    two = ElementSet(c6.context, [c6.context.generator(0), c6.context.generator(0) ** 2])
    assert d_factor(c6, two) == 2  # log2(2 * 2) exactly


def test_classify_requires_threshold(f2_tree):
    U = eset(f2_tree, "a")
    prof = minimize_energy(f2_tree, U)
    with pytest.raises(ValueError):
        classify(f2_tree, U, prof, Mode("practical"))

import itertools
import random
from fractions import Fraction

import pytest

from psgrowth import growth
from psgrowth.energy import Mode, minimize_energy
from psgrowth.growth import (
    AlphaConstants,
    concentrated_pipeline,
    diffuse_pipeline,
    entropy_bound_holds,
    exponent_fit,
    growth_report,
    theorem_alpha,
    virtually_cyclic_reason,
)
from psgrowth.reduction import median_split, reduce_tree
from psgrowth.spaces import NO_HYPERBOLIC_ELEMENT, FreeGroupTree, cycle_graph
from psgrowth.words import ElementSet, random_reduced_word, safin_family

from conftest import digest, w


def eset(space, *texts):
    return ElementSet.from_strings(space.context, texts)


PRACTICAL = Mode.practical(concentration_threshold=1, displacement_floor=1)


# ---------------------------------------------------------------------------
# constants


def test_alpha_constants_exact(f2_tree):
    c = AlphaConstants.for_space(f2_tree)
    assert c.alpha_tree == Fraction(1, 10**15)
    assert c.c_concentrated == Fraction(1, 10**6)
    assert c.gamma == Fraction(10) ** 14
    assert c.c_counting == Fraction(10) ** 12


def test_theorem_alpha_acylindrical():
    g = cycle_graph(8)
    U = ElementSet(g.context, [g.context.generator(0)])
    alpha = theorem_alpha(g, U)
    assert alpha > 0
    assert alpha == AlphaConstants.for_space(g).alpha_acyl  # log2(2*1)=1


# ---------------------------------------------------------------------------
# virtually cyclic pre-check


def test_virtually_cyclic_detection(f2_tree):
    assert virtually_cyclic_reason(f2_tree, eset(f2_tree, "a", "aa")) is not None
    assert virtually_cyclic_reason(f2_tree, eset(f2_tree, "a", "b")) is None
    assert virtually_cyclic_reason(f2_tree, eset(f2_tree, "1")) is not None


def test_virtually_cyclic_dihedral():
    from psgrowth.spaces import FreeProductTree

    t = FreeProductTree((2, 2))
    U = ElementSet(t.context, [w(t, "ab")])
    assert virtually_cyclic_reason(t, U) is not None


def test_virtually_cyclic_elliptic_fix(z5z7_tree):
    t = z5z7_tree
    g = w(t, "ab")
    U = ElementSet(t.context, [(t.context.generator(0) ** k).conjugate_by(g) for k in (1, 2)])
    assert "fixes a vertex" in virtually_cyclic_reason(t, U)


# ---------------------------------------------------------------------------
# growth report


def test_growth_report_doubling(f2_tree):
    rep = growth_report(f2_tree, eset(f2_tree, "a", "b"), 4, PRACTICAL)
    assert rep.sizes == {1: 2, 2: 4, 3: 8, 4: 16}
    assert not rep.violations
    assert rep.bounds[3] == (Fraction(1, 10**15) * 2) ** 2


def test_growth_report_not_applicable(f2_tree):
    rep = growth_report(f2_tree, eset(f2_tree, "a", "aa"), 3, PRACTICAL)
    assert rep.not_applicable is not None
    assert rep.sizes[3] == 4  # exactly-3-fold sums of {1,2}: exponents 3..6


def test_growth_report_rejects_an_empty_set(f2_tree):
    # the empty set is not the identity alone: there is no U^n to count
    with pytest.raises(ValueError, match="U must be nonempty"):
        growth_report(f2_tree, eset(f2_tree), 3, PRACTICAL)


def test_growth_report_safin_counts(f2_tree):
    # frozen counts from the independent oracle (see test_words oracle)
    rep = growth_report(f2_tree, safin_family(f2_tree.context, 2), 3, PRACTICAL)
    assert rep.sizes == {1: 6, 2: 19, 3: 60}
    assert not rep.violations


def test_growth_report_monotone_and_submultiplicative(f2_tree):
    rng = random.Random(81)
    for _ in range(8):
        U = ElementSet(
            f2_tree.context,
            {random_reduced_word(rng, f2_tree.context, rng.randint(1, 4)) for _ in range(4)},
        )
        rep = growth_report(f2_tree, U, 4, PRACTICAL)
        ks = sorted(rep.sizes)
        for a in ks:
            for b in ks:
                if a + b in rep.sizes:
                    assert rep.sizes[a + b] <= rep.sizes[a] * rep.sizes[b]
        for k in ks[:-1]:
            assert rep.sizes[k + 1] <= rep.sizes[k] * rep.sizes[1]
            assert rep.sizes[k] <= rep.sizes[k + 1] * rep.sizes[1]


def test_growth_report_oracle_equality(f2_tree):
    # independent n-fold enumeration oracle
    U = eset(f2_tree, "ab", "ba", "A")
    rep = growth_report(f2_tree, U, 3, PRACTICAL)
    for n in (1, 2, 3):
        expect = set()
        for tup in itertools.product(list(U), repeat=n):
            p = f2_tree.context.identity()
            for t in tup:
                p = p * t
            expect.add(p)
        assert rep.sizes[n] == len(expect)


def test_entropy_bound(f2_tree):
    U = eset(f2_tree, "a", "b")
    rep = growth_report(f2_tree, U, 4, PRACTICAL)
    assert entropy_bound_holds(rep.sizes, rep.alpha_used, len(U))


def test_growth_budget_truncates(f2_tree):
    U = eset(f2_tree, "a", "b", "A", "B")
    rep = growth_report(f2_tree, U, 8, PRACTICAL, budget=200)
    assert rep.truncated
    assert max(rep.sizes) < 8


# ---------------------------------------------------------------------------
# exponent fit


def test_exponent_fit_values(f2_tree):
    fam = lambda N: safin_family(f2_tree.context, N)
    slope1, counts1 = exponent_fit(f2_tree, fam, 1, [4, 8, 16, 32])
    assert counts1 == {4: 10, 8: 18, 16: 34, 32: 66}
    assert abs(slope1 - 1.0) < 1e-9

    slope3, counts3 = exponent_fit(f2_tree, fam, 3, [4, 8, 16, 32])
    assert counts3 == {4: 148, 8: 420, 16: 1348, 32: 4740}
    assert 1.8 <= slope3 <= 2.2

    slope2, _ = exponent_fit(f2_tree, fam, 2, [4, 8, 16, 32])
    assert abs(slope2 - 1.0) < 0.25


# ---------------------------------------------------------------------------
# concentrated pipeline


def test_concentrated_pipeline_free_product(z5z7_tree):
    t = z5z7_tree
    s = t.context.generator(0)
    hyp = w(t, "ab") ** 3
    U = ElementSet(t.context, [s, s**2, s**3, hyp])
    out = concentrated_pipeline(
        t, U, t.basepoint(), Mode.practical(0, 0), n_max=3
    )
    assert out.certified
    assert out.u2_size == 3
    assert out.sizes[2] == 9  # |(U2 v)^2| = |U2|^2 distinct


def test_concentrated_pipeline_no_witness(z5z7_tree):
    t = z5z7_tree
    s = t.context.generator(0)
    U = ElementSet(t.context, [s, s**2])
    out = concentrated_pipeline(t, U, t.basepoint(), Mode.practical(0, 0))
    assert not out.certified
    assert out.reason == "NoHyperbolicWitness"


def test_concentrated_pipeline_singleton_u2(z5z7_tree):
    t = z5z7_tree
    s = t.context.generator(0)
    # all of U1 acts the same on m: single spaced representative, counts 1
    U = ElementSet(t.context, [s, w(t, "ab") ** 3])
    out = concentrated_pipeline(t, U, t.basepoint(), Mode.practical(0, 0), n_max=3)
    assert out.certified
    assert set(out.sizes.values()) <= {1}


@pytest.mark.parametrize(
    "budget, sizes",
    [(8, {1: 3}), (9, {1: 3, 2: 9}), (26, {1: 3, 2: 9}), (27, {1: 3, 2: 9, 3: 27})],
)
def test_concentrated_chain_stops_before_a_level_over_the_budget(f2_tree, budget, sizes):
    # the chain never raises: it makes level k + 1 only while
    # |level k| * |U2 v| <= budget, so no level it makes can pass the budget
    U = eset(f2_tree, "a", "b", "B", "aaaab")
    out = concentrated_pipeline(
        f2_tree, U, f2_tree.basepoint(), Mode.practical(1, 0), budget=budget
    )
    assert out.certified
    assert out.sizes == sizes


# ---------------------------------------------------------------------------
# diffuse pipeline


def test_diffuse_pipeline_safin_nonperiodic(f2_tree):
    fam = safin_family(f2_tree.context, 4)
    out = diffuse_pipeline(
        f2_tree, fam, Mode.practical(Fraction(1, 2), 1), n=3
    )
    assert out.branch == "NonPeriodic"
    assert out.certified


def test_diffuse_pipeline_virtually_cyclic(f2_tree):
    U = eset(f2_tree, "ab", "abab")
    out = diffuse_pipeline(f2_tree, U, PRACTICAL, n=3)
    assert out.branch == "NotApplicable"


def test_diffuse_pipeline_biperiodic_branch(f2_tree):
    # a power block plus one off-axis letter: the reduction keeps the
    # powers, whose products collide massively, so every middle element
    # extracts the period <a> and the coset handoff ping-pongs with t = b
    a = w(f2_tree, "a")
    U = ElementSet(
        f2_tree.context, [a**k for k in range(4, 17)] + [w(f2_tree, "b")]
    )
    out = diffuse_pipeline(
        f2_tree, U, Mode.practical(1, 1), n=3, counting_c=Fraction(3, 2)
    )
    assert out.branch == "BiPeriodic", out.reason
    assert out.witness is not None
    assert out.certified, out.reason
    counts = {int(k): v for k, v in out.sizes.items()}
    assert counts[3] == counts[1] ** 3


def test_diffuse_pipeline_counting_set_at_n5(f2_tree):
    # n = 5 gives l = 3, so the counting set W_3 = U1 U2 U1 is enumerated
    ctx = f2_tree.context
    rng = random.Random(2)
    members = set()
    while len(members) < 30:
        members.add(random_reduced_word(rng, ctx, rng.randint(4, 9)))
    U = ElementSet(ctx, members)
    out = diffuse_pipeline(f2_tree, U, PRACTICAL, n=5)
    assert out.branch == "NonPeriodic", out.reason
    x0 = minimize_energy(f2_tree, U).base_point
    red = reduce_tree(
        f2_tree, U, x0, f2_tree.rho0,
        hypothesis_displacement=PRACTICAL.concentration_threshold,
    )
    U1, U2 = median_split(f2_tree, red.u1, red.u2, x0)
    W = {a * b * c for a, b, c in itertools.product(U1, U2, U1)}
    assert out.sizes["U1"] == len(U1)
    assert out.sizes["W"] == len(W) == 18


def test_pipelines_refuse_a_finite_graph(monkeypatch):
    # the rotation and its square move every vertex of C_9, but have finite
    # order: both pipelines stop with the reason before any geometry runs
    for name in ("reduce_tree", "minimize_energy"):
        monkeypatch.setattr(growth, name, lambda *a, name=name, **kw: pytest.fail(name))
    c9 = cycle_graph(9)
    U = eset(c9, "a", "aa", "aaaa")
    assert virtually_cyclic_reason(c9, U) == NO_HYPERBOLIC_ELEMENT
    out = diffuse_pipeline(c9, U, PRACTICAL, n=3)
    assert (out.branch, out.certified) == ("NotApplicable", False)
    assert out.reason == NO_HYPERBOLIC_ELEMENT
    assert out.reduction is None
    out = concentrated_pipeline(c9, U, 0, PRACTICAL)
    assert (out.certified, out.reason) == (False, NO_HYPERBOLIC_ELEMENT)


def test_diffuse_pipeline_counting_c_guard(f2_tree):
    U = eset(f2_tree, "aaaa", "bbbb", "abab")
    with pytest.raises(ValueError):
        diffuse_pipeline(f2_tree, U, PRACTICAL, counting_c=Fraction(1, 2))


# ---------------------------------------------------------------------------
# every exit of the two pipelines, pinned in full

F2 = FreeGroupTree(2)

POWERS_AND_B = ["a" * k for k in range(4, 17)] + ["b"]
# U1 = {b^4, b^4 s, b p b^4} and U2 = {v} with s = Abab, v = s s p and p = Aba:
# b^4 v (b p b^4) = (b^4 s) v b^4, so v extracts the period s from U1 alone
SINGLE_MIDDLE = ["bbbb", "bbbbAbab", "bAbabbbb", "AbabAbabAba"]
ALTERNATING = ["A"] + ["bA" * k for k in (5, 7, 9, 10, 11, 12, 13)]

DIFFUSE_EXITS = {
    "NotApplicable": (
        lambda: diffuse_pipeline(F2, eset(F2, "ab", "abab"), PRACTICAL),
        "NotApplicable", "all elements are powers of ab", "2738a80ebddac432",
    ),
    "Failed-classified-concentrated": (
        lambda: diffuse_pipeline(F2, eset(F2, "a", "b"), PRACTICAL),
        "Failed", "classified concentrated", "9acd22da48a6683f",
    ),
    "Failed-classified-below": (
        lambda: diffuse_pipeline(F2, eset(F2, "a", "b"), Mode.paper()),
        "Failed", "classified below_threshold", "4b3b488833271337",
    ),
    "Failed-reduction": (
        lambda: diffuse_pipeline(F2, eset(F2, "Ba", "ba"), PRACTICAL, n=5),
        "Failed", "NothingAboveFourR", "5346f865c7ccfef2",
    ),
    "NonPeriodic-counting": (
        lambda: diffuse_pipeline(
            F2, safin_family(F2.context, 4), Mode.practical(Fraction(1, 2), 1)
        ),
        "NonPeriodic", "counting_bound_met", "ea21f5671389ba29",
    ),
    "NonPeriodic-extraction-refused": (
        lambda: diffuse_pipeline(
            F2,
            eset(F2, "B", "BAb", *("ba" * k for k in (2, 3, 8, 9))),
            Mode.practical(1, 0),
            n=5,
            counting_c=Fraction(3, 4),
        ),
        "NonPeriodic", "extraction_refused:PeriodicityThresholdFailed", "6fc7d235aa2627dc",
    ),
    "Failed-biperiodic-refused": (
        lambda: diffuse_pipeline(
            F2, eset(F2, *SINGLE_MIDDLE), PRACTICAL, counting_c=Fraction(9, 16)
        ),
        "Failed", "biperiodic_refused:TooSmall", "d11ad9c2e0905d40",
    ),
    "BiPeriodic-chain-margin": (
        lambda: diffuse_pipeline(
            F2, eset(F2, *ALTERNATING), Mode.practical(3, 0), counting_c=Fraction(3, 4)
        ),
        "BiPeriodic", "chain_margin", "babce0e9bd069027",
    ),
    "BiPeriodic-certified": (
        lambda: diffuse_pipeline(
            F2, eset(F2, *POWERS_AND_B), PRACTICAL, counting_c=Fraction(3, 2)
        ),
        "BiPeriodic", "", "1caea2da4255f159",
    ),
}


@pytest.mark.parametrize("case", sorted(DIFFUSE_EXITS))
def test_every_diffuse_exit(case):
    run, branch, reason, pinned = DIFFUSE_EXITS[case]
    out = run()
    assert (out.branch, out.reason) == (branch, reason)
    assert digest(out.as_dict()) == pinned


def concentrated(reason, u1, u2, witness=None, sizes=None, alpha=None):
    return {
        "certified": reason == "",
        "u1_size": u1,
        "u2_size": u2,
        "witness": witness,
        "sizes": sizes or {},
        "reason": reason,
        "chain_alpha": alpha,
    }


CONCENTRATED_EXITS = {
    "NotConcentrated": (
        ["1", "B", "AA", "bAbA"], 0, concentrated("NotConcentrated", 1, 0),
    ),
    "NoHyperbolicWitness": (
        ["1", "AB", "Ab", "aaabAB"], 2, concentrated("NoHyperbolicWitness", 3, 0),
    ),
    # alpha = min_step/2 - max_product lands on 0 exactly: the margin is strict
    "ChainMarginFailed": (
        ["1", "A", "AA", "Abaa"], 1,
        concentrated("ChainMarginFailed", 2, 2, "Abaa", alpha="0"),
    ),
    "certified": (
        ["1", "AA", "AbbA"], 0,
        concentrated("", 1, 1, "AbbA", {"1": 1, "2": 1, "3": 1}, "2"),
    ),
    # |v x0| = 5 is the shortest step: every u v x0 is 6 edges out
    "certified-witness-step": (
        ["a", "b", "B", "aaaab"], 1,
        concentrated("", 3, 3, "aaaab", {"1": 3, "2": 9, "3": 27}, "3/2"),
    ),
}


@pytest.mark.parametrize("case", sorted(CONCENTRATED_EXITS))
def test_every_concentrated_exit(case):
    texts, threshold, expected = CONCENTRATED_EXITS[case]
    out = concentrated_pipeline(
        F2, eset(F2, *texts), F2.basepoint(), Mode.practical(threshold, 0)
    )
    assert out.as_dict() == expected

"""Periodic elements, bi-periodic sets, E-reduced decompositions, ping-pong
certificates, and separation inside a maximal loxodromic subgroup.

Only the trees have hyperbolic elements, so every bound here is the
paper's with delta = 0.  An element v is E-periodic at x0 when x0 and v x0
lie on the axis of E and v moves x0 further than the period threshold
(3*nu*[E] in paper mode, or the practical override).

Certificates and refusals carry every checked inequality as
(name, lhs, rhs) triples; nothing is trusted from the construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .hypgeom import (
    AxisData,
    Constants,
    axis_distance,
    max_shared_prefix,
    translation_length,
)
from .spaces import ActionSpace
from .words import ElementSet, GroupElement, power_of, primitive_root, product_sizes

ZERO = Fraction(0)


@dataclass(frozen=True)
class Check:
    name: str
    lhs: Fraction
    rhs: Fraction
    ok: bool

    def as_dict(self):
        return {"name": self.name, "lhs": str(self.lhs), "rhs": str(self.rhs), "ok": self.ok}


@dataclass(frozen=True)
class Refusal:
    reason: str
    checks: tuple = ()
    detail: str = ""

    def as_dict(self):
        return {
            "refused": self.reason,
            "detail": self.detail,
            "checks": [c.as_dict() for c in self.checks],
        }


@dataclass(frozen=True)
class PeriodCertificate:
    element: GroupElement
    period_root: GroupElement
    base_point: object
    slack: Fraction
    threshold: Fraction
    mode_name: str
    checks: tuple = ()

    def as_dict(self):
        return {
            "element": str(self.element),
            "period_root": str(self.period_root),
            "slack": str(self.slack),
            "threshold": str(self.threshold),
            "mode": self.mode_name,
            "checks": [c.as_dict() for c in self.checks],
        }


def _normalized_root(space: ActionSpace, e_root: GroupElement) -> tuple[GroupElement, AxisData]:
    root, _ = primitive_root(e_root)
    axis = translation_length(space, root)
    if not axis.is_hyperbolic:
        raise ValueError("E_root must be hyperbolic")
    return root, axis


def is_periodic(
    space: ActionSpace, v: GroupElement, e_root: GroupElement, x0, threshold=None
):
    """Certify that v is E-periodic at x0, or refuse with the failed check."""
    root, axis = _normalized_root(space, e_root)
    if threshold is None:
        tval, mode = 3 * Constants.for_space(space).nu * axis.translation_length, "paper"
    else:
        tval, mode = Fraction(threshold), "practical"

    d_x0 = axis_distance(space, axis, x0)
    d_vx0 = axis_distance(space, axis, space.act(v, x0))
    disp = space.dist(x0, space.act(v, x0))
    checks = (
        Check("x0_in_cylinder", d_x0, ZERO, d_x0 == 0),
        Check("vx0_in_cylinder", d_vx0, ZERO, d_vx0 == 0),
        Check("translation_exceeds_threshold", disp, tval, disp > tval),
    )
    if not all(c.ok for c in checks):
        return Refusal("not_periodic", checks, detail=str(v))
    return PeriodCertificate(v, root, x0, disp - tval, tval, mode, checks)


# ---------------------------------------------------------------------------
# equations u_0 v w_0 = u_1 v w_1 = ...


def extract_period_from_equations(
    space: ActionSpace,
    equations: Sequence[tuple[GroupElement, GroupElement, GroupElement]],
    x0,
    threshold=None,
    paper_mode: bool = False,
):
    """From equal products u_i v w_i with all junctions reduced at x0,
    recover the common maximal loxodromic subgroup of the u_i^-1 u_{i+1}
    and certify v periodic with that period.

    Checked hypotheses (refusal names the first violated one): equal
    products; v x0 != x0; reduced junctions; the symmetry bound
    |u_i x0 - u_j x0| <= |v x0 - x0|; distinct consecutive u_i; in paper
    mode n >= 5 nu and distinct consecutive u_i x0; hyperbolic connectors,
    which a finite graph never has.  What these imply on a tree (one common
    root, the zero cylinder and junction bounds) is rechecked and raises
    RuntimeError."""
    if len(equations) < 2:
        return Refusal("TooFewEquations", detail=f"got {len(equations)}")
    v = equations[0][1]
    if any(eq[1] != v for eq in equations):
        return Refusal("DifferentMiddleElements")

    products = [u * v * w_ for u, _, w_ in equations]
    if any(p != products[0] for p in products):
        return Refusal("ProductsNotEqual")

    vx0 = space.act(v, x0)
    disp_v = space.dist(x0, vx0)
    checks = [Check("v_moves_base", disp_v, ZERO, disp_v > 0)]
    if not checks[-1].ok:
        return Refusal("MiddleTooShort", tuple(checks))

    inv_v_x0 = space.act(v.inverse(), x0)
    for u, _, w_ in equations:
        pu = space.gromov_product(space.act(u.inverse(), x0), vx0, x0)
        checks.append(Check("uv_reduced", pu, ZERO, pu == 0))
        pw = space.gromov_product(inv_v_x0, space.act(w_, x0), x0)
        checks.append(Check("vw_reduced", pw, ZERO, pw == 0))
        if not (checks[-1].ok and checks[-2].ok):
            return Refusal("ProductsNotReduced", tuple(checks))

    us = sorted(
        (u for u, _, _ in equations),
        key=lambda u: (space.dist(x0, space.act(u, x0)), u.sort_key()),
    )
    pts = {u: space.act(u, x0) for u in us}
    for ui, uj in itertools.combinations(us, 2):
        gap = space.dist(pts[ui], pts[uj])
        checks.append(Check("symmetry_bound", gap, disp_v, gap <= disp_v))
        if not checks[-1].ok:
            return Refusal("SymmetryBoundViolated", tuple(checks))

    consecutive = list(zip(us, us[1:]))
    conn = [ui.inverse() * uj for ui, uj in consecutive]
    if any(h.is_identity for h in conn):
        return Refusal("DuplicateOuterElements", tuple(checks))

    if paper_mode:
        c = Constants.for_space(space)
        need_n = 5 * c.nu
        checks.append(
            Check("paper_equation_count", Fraction(len(equations)), need_n,
                  Fraction(len(equations)) >= need_n)
        )
        for ui, uj in consecutive:
            gap = space.dist(pts[ui], pts[uj])
            checks.append(Check("paper_spacing", gap, ZERO, gap > 0))
        if not all(c_.ok for c_ in checks):
            return Refusal("PaperHypothesesUnmet", tuple(checks))

    axes = [translation_length(space, h) for h in conn]
    for ax in axes:
        if not ax.is_hyperbolic:
            return Refusal("ConnectorNotHyperbolic", tuple(checks), detail=str(ax.element))
    # Only trees get here, where the checks above imply the rest: each
    # connector shifts the edges of [x0, v x0] along themselves, so by
    # Fine-Wilf all connectors are powers of one element, and every bound
    # below is 0.  A failure here is a bug, never a refusal.
    ref = primitive_root(conn[0])[0]
    if any(primitive_root(h)[0] not in (ref, ref.inverse()) for h in conn[1:]):
        raise RuntimeError(f"connectors {[str(h) for h in conn]} have different roots")

    # Prop (reduced products): x0 and v x0 lie on the axis of u_i^-1 u_{i+1},
    # and the three junction products (24, 66 and 138 delta in the paper) are 0.
    for (ui, uj), ax in zip(consecutive, axes):
        for name, value in (
            ("x0_in_connector_cylinder", axis_distance(space, ax, x0)),
            ("vx0_in_connector_cylinder", axis_distance(space, ax, vx0)),
            ("junction_24delta", space.gromov_product(x0, pts[uj], pts[ui])),
            ("junction_66delta",
             space.gromov_product(pts[ui], space.act(ui * v, x0), pts[uj])),
            ("junction_138delta",
             space.gromov_product(pts[uj], space.act(uj * v, x0), space.act(ui * v, x0))),
        ):
            checks.append(Check(name, value, ZERO, value == 0))
    failed = [c_.name for c_ in checks if not c_.ok]
    if failed:
        raise RuntimeError(f"reduced-product bounds failed: {failed}")

    result = is_periodic(space, v, ref, x0, threshold)
    if isinstance(result, Refusal):
        return Refusal(
            "PeriodicityThresholdFailed", tuple(checks) + result.checks, detail=str(v)
        )
    return PeriodCertificate(
        v,
        result.period_root,
        x0,
        result.slack,
        result.threshold,
        result.mode_name,
        tuple(checks) + result.checks,
    )


# ---------------------------------------------------------------------------
# bi-periodic sets


@dataclass(frozen=True)
class BiPeriodicWitness:
    members: ElementSet
    e1_root: GroupElement
    e2_root: GroupElement
    coset_root: GroupElement
    coset_rep: GroupElement
    certificates: tuple = ()

    def as_dict(self):
        return {
            "members": self.members.to_strings(),
            "e1_root": str(self.e1_root),
            "e2_root": str(self.e2_root),
            "coset_root": str(self.coset_root),
            "coset_rep": str(self.coset_rep),
        }


def is_biperiodic(space: ActionSpace, V: ElementSet, x0, threshold=None):
    """Certify that V is bi-periodic at x0: every v is E1-periodic and every
    v^-1 is E2-periodic, and V lies in a single coset of <coset_root>."""
    members = list(V)
    if len(members) < 2:
        return Refusal("TooSmall", detail=f"|V| = {len(members)}")
    # the members are distinct, so neither quotient is the identity; the
    # second is conjugate to the inverse of the first, so it is hyperbolic
    # when the first is
    v1, v2 = members[0], members[1]
    e1_root, _ = primitive_root(v1 * v2.inverse())
    if not translation_length(space, e1_root).is_hyperbolic:
        return Refusal("QuotientNotHyperbolic", detail=str(e1_root))
    e2_root, _ = primitive_root(v1.inverse() * v2)

    certs = []
    for v in members:
        res = is_periodic(space, v, e1_root, x0, threshold)
        if isinstance(res, Refusal):
            return Refusal("MemberNotPeriodic", res.checks, detail=str(v))
        certs.append(res)
        res_inv = is_periodic(space, v.inverse(), e2_root, x0, threshold)
        if isinstance(res_inv, Refusal):
            return Refusal("InverseNotPeriodic", res_inv.checks, detail=str(v))
        certs.append(res_inv)

    for va, vb in itertools.combinations(members, 2):
        if power_of(va * vb.inverse(), e1_root) is None:
            return Refusal("PeriodMismatch", detail=f"{va} vs {vb}")

    rep = min(members, key=lambda v: (space.dist(x0, space.act(v, x0)), v.sort_key()))
    return BiPeriodicWitness(V, e1_root, e2_root, e1_root, rep, tuple(certs))


# ---------------------------------------------------------------------------
# E-reduced decomposition


def e_reduce(space: ActionSpace, t: GroupElement, e_root: GroupElement, x0):
    """Write t = e * t' * f with e, f in <root> and t' of minimal
    displacement at x0 (which must lie on the axis of the root).

    The power window is |p| <= displacement(t)/[E] + 2 in each variable;
    sufficiency is certified by checking the window boundary is
    nondecreasing (displacement is unimodal in each power on trees)."""
    root, axis = _normalized_root(space, e_root)
    if axis_distance(space, axis, x0) != 0:
        raise ValueError("x0 must lie on the axis of the root")
    if power_of(t, root) is not None:
        return Refusal("InE", detail=str(t))

    e_len = axis.translation_length
    disp_t = space.dist(x0, space.act(t, x0))
    W = int(disp_t / e_len) + 2

    powers = {k: root**k for k in range(-W, W + 1)}

    def disp(p, q):
        cand = powers[-p] * t * powers[-q]
        return space.dist(x0, space.act(cand, x0))

    best = min(
        ((disp(p, q), abs(p) + abs(q), p, q) for p in range(-W, W + 1) for q in range(-W, W + 1)),
    )
    _, _, p_star, q_star = best
    # the minimum lies inside the window, and the boundary is nondecreasing
    # in each variable
    if (
        abs(p_star) >= W
        or abs(q_star) >= W
        or disp(W, q_star) < disp(W - 1, q_star)
        or disp(-W, q_star) < disp(-W + 1, q_star)
        or disp(p_star, W) < disp(p_star, W - 1)
        or disp(p_star, -W) < disp(p_star, -W + 1)
    ):
        raise RuntimeError("e_reduce window certified insufficient; widen it")

    e = powers[p_star]
    f = powers[q_star]
    t_prime = e.inverse() * t * f.inverse()
    if e * t_prime * f != t:
        raise RuntimeError("e_reduce factors do not multiply back to t")
    return e, t_prime, f


# ---------------------------------------------------------------------------
# ping pong


@dataclass(frozen=True)
class PingPongCertificate:
    certified: bool
    alpha: Fraction = Fraction(0)
    max_chain_product: Fraction = Fraction(0)
    min_step: Fraction = Fraction(0)
    counts: dict = field(default_factory=dict)
    checks: tuple = ()
    reason: str = ""

    def as_dict(self):
        return {
            "certified": self.certified,
            "alpha": str(self.alpha),
            "max_chain_product": str(self.max_chain_product),
            "min_step": str(self.min_step),
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
            "reason": self.reason,
            "checks": [c.as_dict() for c in self.checks],
        }


def pingpong_certify(
    space: ActionSpace,
    V: ElementSet,
    e_root: GroupElement,
    t: GroupElement,
    n: int,
    x0,
    a_value=None,
    budget: int = 200_000,
):
    """Certify |(Vt)^k| = |V|^k for k <= n via the chain criterion of the
    proof, then verify the counts by brute-force enumeration.

    Hypotheses checked: V inside <root> with x0 on its axis; t E-reduced at
    x0; displacement and pairwise spacing >= 10a (paper a = 3 nu [E], or
    the practical a_value); the chain Gromov products over the proof's step
    alphabet admit a margin alpha > 0.  The chain's largest product and
    shortest step are read from the edge labels of the steps at x0
    (`orbit_labels`): the products as shared label prefixes
    (`max_shared_prefix`, as in `certify_cross_products`), the steps as
    label lengths, so no Gromov product is formed pair by pair."""
    root, axis = _normalized_root(space, e_root)
    members = list(V)
    checks = []

    if len(members) == 1:
        # a single element's k-fold products are one element for every k
        return PingPongCertificate(
            True, counts={k: 1 for k in range(1, min(n, 4) + 1)}, reason="singleton"
        )

    d_x0 = axis_distance(space, axis, x0)
    checks.append(Check("x0_on_axis", d_x0, ZERO, d_x0 == 0))
    if not checks[-1].ok:
        return PingPongCertificate(False, checks=tuple(checks), reason="x0_off_axis")

    for v in members:
        if power_of(v, root) is None:
            return PingPongCertificate(
                False, checks=tuple(checks), reason=f"element {v} outside <root>"
            )

    # t is E-reduced when it lies outside <root> and its E-reduced part moves
    # x0 as far as t does
    res = e_reduce(space, t, root, x0)
    reduced = not isinstance(res, Refusal) and (
        space.dist(x0, space.act(res[1], x0)) == space.dist(x0, space.act(t, x0))
    )
    checks.append(Check("t_e_reduced", Fraction(int(reduced)), Fraction(1), reduced))
    if not reduced:
        return PingPongCertificate(False, checks=tuple(checks), reason="t_not_e_reduced")

    if a_value is None:
        a = 3 * Constants.for_space(space).nu * axis.translation_length
    else:
        a = Fraction(a_value)
    pts = [space.act(v, x0) for v in members]
    for p in pts:
        disp = space.dist(x0, p)
        checks.append(Check("spacing_from_base", disp, 10 * a, disp >= 10 * a))
    for p, q in itertools.combinations(pts, 2):
        gap = space.dist(p, q)
        checks.append(Check("pairwise_spacing", gap, 10 * a, gap >= 10 * a))
    if not all(c_.ok for c_ in checks):
        return PingPongCertificate(False, checks=tuple(checks), reason="spacing")

    # chain step alphabet from the proof's point sequence: L_A = V^-1,
    # L_B = Gamma_all^-1 t^-1, L_C = Gamma_inv^-1 t on the left of a product,
    # R_A = t Gamma_all, R_B = t^-1 Gamma_inv on the right.  On a tree a
    # Gromov product at x0 is the shared prefix of two edge-label paths from
    # x0, and the labels of h and of h^-1 come from one `orbit_labels` call:
    # t g gives R_A and L_B, v t gives L_C and R_B, v gives L_A and the
    # steps of V
    gamma_all = members + [va * vb.inverse() for va, vb in itertools.permutations(members, 2)]
    own = [space.orbit_labels(v, x0) for v in members]
    turned = [space.orbit_labels(t * g, x0) for g in gamma_all]
    entered = [space.orbit_labels(v * t, x0) for v in members]
    left_a = [back for _, back in own]
    left_b = [back for _, back in turned]
    left_c = [out for out, _ in entered]
    right_a = [out for out, _ in turned]
    right_b = [back for _, back in entered]
    # (v, t g'), (t g, t g'): L_A u L_B against R_A; (t g, t^-1 g') at the
    # turn, (t^-1 g, t^-1 g'): L_B u L_C against R_B
    max_product = space.rho0 * max(
        max_shared_prefix(left_a + left_b, right_a),
        max_shared_prefix(left_b + left_c, right_b),
    )
    min_step = space.rho0 * min(
        len(path) for path in itertools.chain(left_a, right_a, right_b)
    )

    alpha = min_step / 2 - max_product
    certified = alpha > 0
    checks.append(
        Check("chain_margin", max_product, min_step / 2, certified)
    )

    chain = ElementSet(t.context, [v * t for v in members])
    counts = dict(enumerate(product_sizes(itertools.repeat(chain, n), budget), 1))
    expected = {k: len(members) ** k for k in counts}
    counts_ok = counts == expected
    if certified and not counts_ok:
        raise RuntimeError(
            f"certified chain but counts disagree: {counts} vs {expected}"
        )
    return PingPongCertificate(
        certified and counts_ok,
        alpha,
        max_product,
        min_step,
        counts,
        tuple(checks),
        "" if certified else "chain_margin",
    )


# ---------------------------------------------------------------------------
# separation


def separate(space: ActionSpace, V: ElementSet, r: int, x0, e_root: GroupElement):
    """Subset V0 with displacements >= r[E] and pairwise displacement gaps
    >= r[E]: majority translation direction, then greedy power selection.

    Practical tree guarantee |V0| >= |V| / (2r + 1) (checked and reported
    by callers); refusal when the displacement filter leaves nothing."""
    if len(V) == 0:
        raise ValueError("V must be nonempty")
    if r < 1:
        raise ValueError("r must be >= 1")
    root, axis = _normalized_root(space, e_root)
    if axis_distance(space, axis, x0) != 0:
        raise ValueError("x0 must lie on the axis of the root")
    powers = {}
    for v in V:
        k = power_of(v, root)
        if k is None:
            raise ValueError(f"{v} is not a power of the root")
        powers[v] = k

    pos = sorted((k, v) for v, k in powers.items() if k > 0)
    neg = sorted((-k, v) for v, k in powers.items() if k < 0)
    chosen_side = pos if len(pos) >= len(neg) else neg

    picked = []
    last_k = None
    for k, v in chosen_side:
        if k < r:
            continue
        if last_k is None or k - last_k >= r:
            picked.append(v)
            last_k = k
    if not picked:
        return Refusal("EmptyAfterFilter", detail=f"no powers >= {r}")
    out = ElementSet(V.context, picked)

    e_len = axis.translation_length
    for v in out:
        if space.dist(x0, space.act(v, x0)) < r * e_len:
            raise RuntimeError(f"separate kept {v}, which moves x0 less than r [E]")
    for va, vb in itertools.combinations(out, 2):
        if space.dist(space.act(va, x0), space.act(vb, x0)) < r * e_len:
            raise RuntimeError(f"separate kept {va} and {vb} closer than r [E]")
    return out

"""Finding large subsets U1, U2 of U with all cross products reduced at the
base point, by the sphere-peeling recursion on a tree backend.

Trees are the only backends with this route: the growth bound it serves
needs a hyperbolic element, and a finite graph has none.

A certified result is never trusted from the construction: every returned
pair of sets is rechecked against its tolerance through the exact maxima of
its cross Gromov products over all pairs, which are recorded in the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Optional

from .hypgeom import max_shared_prefix
from .spaces import ActionSpace
from .words import ElementSet, GroupElement

TREE_RECURSION = "TreeRecursion"
FAILED = "Failed"


def reduced_at(space: ActionSpace, u: GroupElement, v: GroupElement, x0, tol) -> bool:
    """Whether the product uv is reduced at x0: (u^-1 x0, v x0)_{x0} <= tol."""
    return (
        space.gromov_product(space.act(u.inverse(), x0), space.act(v, x0), x0)
        <= Fraction(tol)
    )


@dataclass
class ReductionResult:
    u1: ElementSet
    u2: ElementSet
    tolerance: Fraction
    certified: bool
    branch: str
    reason: str = ""
    max_products: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    discarded_mass: int = 0
    cardinality_ok: Optional[bool] = None
    peel_rounds: int = 0
    peel_trace: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.branch == FAILED

    def as_dict(self) -> dict:
        return {
            "branch": self.branch,
            "certified": self.certified,
            "reason": self.reason,
            "tolerance": str(self.tolerance),
            "u1_size": len(self.u1),
            "u2_size": len(self.u2),
            "max_products": {k: str(v) for k, v in sorted(self.max_products.items())},
            "counts": dict(sorted(self.counts.items())),
            "discarded_mass": self.discarded_mass,
            "cardinality_ok": self.cardinality_ok,
            "peel_rounds": self.peel_rounds,
            "peel_trace": list(self.peel_trace),
        }


def _failed(ctx, tolerance, reason, **counts) -> ReductionResult:
    return ReductionResult(
        ElementSet(ctx, ()),
        ElementSet(ctx, ()),
        Fraction(tolerance),
        False,
        FAILED,
        reason=reason,
        counts=counts,
    )


def certify_cross_products(
    space: ActionSpace, U1: ElementSet, U2: ElementSet, x0, tol: Fraction
) -> tuple[bool, dict]:
    """The exact maxima of both families of cross Gromov products,
    (u1^-1 x0, u2 x0)_{x0} and (u2^-1 x0, u1 x0)_{x0}, on a tree backend,
    and whether both are at most tol.

    The product of two points at the common base is the number of edges
    their geodesics from x0 share, which is the common prefix of their edge
    labels (`orbit_labels`).  Each family's maximum is then read from
    neighbours in one sorted order of its labels, in O(k log k) for k
    elements, rather than pair by pair."""
    labels: dict = {}
    for u in chain(U1, U2):
        if u not in labels:
            labels[u] = space.orbit_labels(u, x0)
    m1 = max_shared_prefix([labels[u][1] for u in U1], [labels[v][0] for v in U2])
    m2 = max_shared_prefix([labels[v][1] for v in U2], [labels[u][0] for u in U1])
    maxima = {
        "u1_inv_vs_u2": m1 * space.rho0,
        "u2_inv_vs_u1": m2 * space.rho0,
    }
    ok = all(m <= tol for m in maxima.values())
    return ok, maxima


def _peel(keyed: dict, U_size: int):
    """The A/B peeling recursion over the hit sphere points S'.

    `keyed` maps each qualifying u, in qualifying order, to the keys of the
    sphere points of its two directions.  The partition state (A, B disjoint
    with union S') is rebuilt from the membership definitions every round;
    stops at the first round where a cross family exceeds |U|/100, else at
    the first round where U_{B,B} crosses |U|/100.  Peeling order: smallest
    sphere-point key first."""
    sphere_pts = sorted({y for y, _ in keyed.values()} | {z for _, z in keyed.values()})
    hundredth = Fraction(U_size, 100)

    def members(A, B):
        return [u for u, (y, z) in keyed.items() if y in A and z in B]

    A = set(sphere_pts)
    B: set = set()
    trace = []
    for a_n in sphere_pts:
        A.discard(a_n)
        B.add(a_n)
        ab = members(A, B)
        ba = members(B, A)
        bb = members(B, B)
        trace.append(
            {"peeled": str(a_n), "U_AB": len(ab), "U_BA": len(ba), "U_BB": len(bb)}
        )
        if len(ab) > hundredth:
            return ab, ab, trace, "cross_AB"
        if len(ba) > hundredth:
            return ba, ba, trace, "cross_BA"
        if len(bb) > hundredth:
            return members(A, A), bb, trace, "split_AA_BB"
    return [], [], trace, "exhausted"


def reduce_tree(
    space: ActionSpace,
    U: ElementSet,
    x0,
    r,
    hypothesis_displacement=None,
) -> ReductionResult:
    """Sphere-peeling reduction on a tree backend at sphere radius r.

    Preconditions checked: r a positive multiple of rho0 (the paper's
    r <= kappa0/4 is the config's to check); at least 3/4 of U has
    displacement >= hypothesis_displacement (default 4r, the membership
    filter itself; the diffuse pipeline passes its classification threshold
    so the check matches the case split that routed here).  Elements below
    the 4r filter are excluded from the peel and reported as discarded
    mass.  The minimal-energy sanity bound (no sphere point carries more
    than 2/3 of U on both sides) is verified and its violation reported as
    a Failed result with the witness counts."""
    if not space.is_tree:
        raise ValueError("reduce_tree needs a tree backend")
    ctx = U.context
    r = Fraction(r)
    r_steps = space.steps(r)
    if r_steps < 1:
        raise ValueError("r must be a positive multiple of rho0")
    if len(U) == 0:
        return _failed(ctx, r, "TooSmall")

    # displacements are edge counts: n * rho0 >= floor exactly when
    # n >= ceil(floor / rho0), and >= 4r when n >= 4 r_steps; only the
    # first r_steps labels of each direction are read (`orbit_prefix`)
    floor = (
        4 * r if hypothesis_displacement is None else Fraction(hypothesis_displacement)
    )
    floor_steps = math.ceil(floor / space.rho0)
    heads = {u: space.orbit_prefix(u, x0, r_steps) for u in U}
    above_floor = sum(1 for n, _, _ in heads.values() if n >= floor_steps)
    if 4 * above_floor < 3 * len(U):
        return _failed(
            ctx,
            r,
            "ConcentratedOrBelow",
            above_floor=above_floor,
            total=len(U),
        )
    qualifying = [u for u in U if heads[u][0] >= 4 * r_steps]
    if not qualifying:
        return _failed(ctx, r, "NothingAboveFourR", total=len(U))

    # two geodesics from x0 cross radius r at the same point exactly when
    # their first r edge labels agree, so each sphere point is built once
    keys: dict = {}

    def key(prefix, u, inverted):
        if prefix not in keys:
            g = u.inverse() if inverted else u
            point = space.point_at(x0, space.act(g, x0), r_steps)
            keys[prefix] = space.point_key(point)
        return keys[prefix]

    keyed = {
        u: (key(heads[u][1], u, False), key(heads[u][2], u, True)) for u in qualifying
    }

    # minimal-energy sanity: no single sphere point dominates both sides
    per_point: dict = {}
    for y, z in keyed.values():
        if y == z:
            per_point[y] = per_point.get(y, 0) + 1
    for y, count in per_point.items():
        if 3 * count > 2 * len(U):
            return _failed(
                ctx,
                r,
                "MinimalEnergyViolated",
                witness_point=str(y),
                mass=count,
                total=len(U),
            )

    u1, u2, trace, how = _peel(keyed, len(U))
    if not u1 or not u2:
        return _failed(ctx, r, "PeelingExhausted", rounds=len(trace))
    U1 = ElementSet(ctx, u1)
    U2 = U1 if u2 is u1 else ElementSet(ctx, u2)
    ok, maxima = certify_cross_products(space, U1, U2, x0, r)
    return ReductionResult(
        U1,
        U2,
        r,
        ok,
        TREE_RECURSION,
        how,
        maxima,
        {"qualifying": len(keyed), "u1": len(u1), "u2": len(u2)},
        discarded_mass=len(U) - len(qualifying),
        cardinality_ok=100 * len(u1) >= len(U) and 100 * len(u2) >= len(U),
        peel_rounds=len(trace),
        peel_trace=trace,
    )


def median_split(
    space: ActionSpace, U1: ElementSet, U2: ElementSet, x0
) -> tuple[ElementSet, ElementSet]:
    """Trim by displacement medians so every element of the first output
    moves x0 at most as far as every element of the second.

    When the second median is smaller, both halves are drawn from U1 (with
    the output order giving the stated displacement ordering); elements
    tied at the median stay in both halves, as in the closed-form sets."""
    if len(U1) == 0 or len(U2) == 0:
        raise ValueError("median_split needs nonempty inputs")

    # displacements as integer hops: scaling by rho0 > 0 keeps their order
    disp: dict = {}
    for u in chain(U1, U2):
        if u not in disp:
            disp[u] = space.hops(x0, space.act(u, x0))

    def median(values):
        vals = sorted(values)
        return vals[(len(vals) - 1) // 2]

    m1 = median(disp[u] for u in U1)
    m2 = median(disp[u] for u in U2)
    ctx = U1.context
    if m1 <= m2:
        out1 = ElementSet(ctx, [u for u in U1 if disp[u] <= m1])
        out2 = ElementSet(ctx, [u for u in U2 if disp[u] >= m2])
    else:
        out1 = ElementSet(ctx, [u for u in U1 if disp[u] <= m1])
        out2 = ElementSet(ctx, [u for u in U1 if disp[u] >= m1])
    return out1, out2

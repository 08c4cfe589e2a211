"""Finding large subsets U1, U2 of U with all cross products reduced at the
base point: sphere-peeling recursion on trees, sphere-pair search on
bounded-geometry graphs, and the tree-approximation route for delta > 0.

A certified result is never trusted from the construction: every returned
pair of sets is rechecked against its tolerance through the exact maxima of
its cross Gromov products over all pairs, which are recorded in the result.

The routes share one skeleton: the pair search and the tree-approximation
route start from one far-mover filter (`_far_mover_route`), the tree peel
and the tree-approximation route end in one peel (`_peel_and_certify`), and
every success goes through one certify-and-report step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Optional

from .energy import energy_at, minimize_energy
from .exactmath import log2_upper
from .spaces import ActionSpace
from .treeapprox import approximate_tree
from .words import ElementSet, GroupElement

TREE_RECURSION = "TreeRecursion"
SPHERE_GRAPH = "SphereGraph"
VIA_TREE_APPROX = "ViaTreeApprox"
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


def _max_shared_prefix(left: list, right: list) -> int:
    """The longest common prefix of a sequence from `left` and one from
    `right`.  In lexicographic order the common prefix of two sequences is
    the shortest common prefix of the adjacent pairs between them, so the
    maximum is attained by adjacent sequences from different sides."""
    merged = sorted([(s, 0) for s in left] + [(s, 1) for s in right])
    best = 0
    for (a, side_a), (b, side_b) in zip(merged, merged[1:]):
        if side_a != side_b:
            n = 0
            for p, q in zip(a, b):
                if p != q:
                    break
                n += 1
            best = max(best, n)
    return best


def certify_cross_products(
    space: ActionSpace, U1: ElementSet, U2: ElementSet, x0, tol: Fraction
) -> tuple[bool, dict]:
    """The exact maxima of both families of cross Gromov products,
    (u1^-1 x0, u2 x0)_{x0} and (u2^-1 x0, u1 x0)_{x0}, and whether both are
    at most tol.

    On tree backends the product of two points at the common base is the
    number of edges their geodesics from x0 share, which is the common
    prefix of their edge labels (`orbit_labels`).  Each family's maximum is
    then read from neighbours in one sorted order of its labels, in
    O(k log k) for k elements, rather than pair by pair.  Elsewhere every
    pair is compared through the three-distance formula, which is also the
    test oracle for the tree path."""
    if space.is_tree:
        labels: dict = {}
        for u in chain(U1, U2):
            if u not in labels:
                labels[u] = space.orbit_labels(u, x0)
        m1 = _max_shared_prefix([labels[u][1] for u in U1], [labels[v][0] for v in U2])
        m2 = _max_shared_prefix([labels[v][1] for v in U2], [labels[u][0] for u in U1])
        maxima = {
            "u1_inv_vs_u2": m1 * space.rho0,
            "u2_inv_vs_u1": m2 * space.rho0,
        }
        ok = all(m <= tol for m in maxima.values())
        return ok, maxima

    inv_pts_1 = {u: space.act(u.inverse(), x0) for u in U1}
    inv_pts_2 = {v: space.act(v.inverse(), x0) for v in U2}
    pts_1 = {u: space.act(u, x0) for u in U1}
    pts_2 = {v: space.act(v, x0) for v in U2}
    maxima = {
        "u1_inv_vs_u2": Fraction(0),
        "u2_inv_vs_u1": Fraction(0),
    }
    for u in U1:
        iu = inv_pts_1[u]
        for v in U2:
            p = space.gromov_product(iu, pts_2[v], x0)
            if p > maxima["u1_inv_vs_u2"]:
                maxima["u1_inv_vs_u2"] = p
    for v in U2:
        iv = inv_pts_2[v]
        for u in U1:
            p = space.gromov_product(iv, pts_1[u], x0)
            if p > maxima["u2_inv_vs_u1"]:
                maxima["u2_inv_vs_u1"] = p
    ok = all(m <= tol for m in maxima.values())
    return ok, maxima


def _certify_and_report(
    space, x0, ctx, tol, branch, reason, u1: list, u2: list, counts: dict, **fields
) -> ReductionResult:
    """The one success exit of every route: U1 and U2 from the chosen
    elements, rechecked by `certify_cross_products` at tolerance tol."""
    U1 = ElementSet(ctx, u1)
    U2 = U1 if u2 is u1 else ElementSet(ctx, u2)
    ok, maxima = certify_cross_products(space, U1, U2, x0, tol)
    return ReductionResult(U1, U2, tol, ok, branch, reason, maxima, counts, **fields)


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


def _peel_and_certify(
    space, x0, ctx, tol, branch, keyed: dict, U_size: int, discarded: int = 0
) -> ReductionResult:
    """The tail of the sphere peel and of the tree-approximation route."""
    u1, u2, trace, how = _peel(keyed, U_size)
    if not u1 or not u2:
        return _failed(ctx, tol, "PeelingExhausted", rounds=len(trace))
    return _certify_and_report(
        space,
        x0,
        ctx,
        tol,
        branch,
        how,
        u1,
        u2,
        {"qualifying": len(keyed), "u1": len(u1), "u2": len(u2)},
        discarded_mass=discarded,
        cardinality_ok=100 * len(u1) >= U_size and 100 * len(u2) >= U_size,
        peel_rounds=len(trace),
        peel_trace=trace,
    )


def reduce_tree(
    space: ActionSpace,
    U: ElementSet,
    x0,
    r,
    enforce_quarter_kappa: bool = False,
    hypothesis_displacement=None,
) -> ReductionResult:
    """Sphere-peeling reduction on a tree backend at sphere radius r.

    Preconditions checked: r a positive multiple of rho0 (and <= kappa0/4
    when enforce_quarter_kappa, the paper regime); at least 3/4 of U has
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
    if enforce_quarter_kappa and r > space.kappa0 / 4:
        raise ValueError("paper regime requires r <= kappa0 / 4")
    if len(U) == 0:
        return _failed(ctx, r, "TooSmall")

    floor = (
        4 * r if hypothesis_displacement is None else Fraction(hypothesis_displacement)
    )
    labels = {u: space.orbit_labels(u, x0) for u in U}
    moved = {u: len(out) * space.rho0 for u, (out, _) in labels.items()}
    above_floor = sum(1 for d in moved.values() if d >= floor)
    if 4 * above_floor < 3 * len(U):
        return _failed(
            ctx,
            r,
            "ConcentratedOrBelow",
            above_floor=above_floor,
            total=len(U),
        )
    qualifying = [u for u in U if moved[u] >= 4 * r]
    if not qualifying:
        return _failed(ctx, r, "NothingAboveFourR", total=len(U))

    # two geodesics from x0 cross radius r at the same point exactly when
    # their first r edge labels agree, so each sphere point is built once
    keys: dict = {}

    def key(path_labels, g):
        prefix = path_labels[:r_steps]
        if prefix not in keys:
            point = space.point_at(x0, space.act(g, x0), r_steps)
            keys[prefix] = space.point_key(point)
        return keys[prefix]

    keyed = {
        u: (key(labels[u][0], u), key(labels[u][1], u.inverse())) for u in qualifying
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

    return _peel_and_certify(
        space, x0, ctx, r, TREE_RECURSION, keyed, len(U), len(U) - len(qualifying)
    )


def reduce_at(
    space: ActionSpace, U: ElementSet, x0, r=None, hypothesis_displacement=None
) -> ReductionResult:
    """The reduction route of the backend: the sphere peel at radius r
    (default rho0) on trees, the sphere-pair search on graphs with
    delta = 0, and the tree-approximation route when delta > 0."""
    if space.is_tree:
        r = space.rho0 if r is None else r
        return reduce_tree(space, U, x0, r, hypothesis_displacement=hypothesis_displacement)
    if space.delta == 0:
        return reduce_graph(space, U, x0)
    return reduce_via_tree_approx(space, U, x0)


def _far_mover_route(space, U: ElementSet, x0, radius, finish) -> ReductionResult:
    """The shared part of the pair search and the tree-approximation route.

    The tolerance is the working radius rounded up to whole edges (at least
    one).  Each u in U that moves x0 at least 4 * tolerance both ways is
    passed on as (u, u x0, u^-1 x0), to `finish(space, U, x0, tol, far)`,
    once at least 3/4 of U does."""
    ctx = U.context
    if len(U) <= 1:
        return _failed(ctx, 0, "TooSmall")
    tol = max(1, math.ceil(radius / space.rho0)) * space.rho0
    far = []
    for u in U:
        ux = space.act(u, x0)
        vx = space.act(u.inverse(), x0)
        if space.dist(x0, ux) >= 4 * tol and space.dist(x0, vx) >= 4 * tol:
            far.append((u, ux, vx))
    if 4 * len(far) < 3 * len(U):
        return _failed(
            ctx, tol, "ConcentratedOrBelow", qualifying=len(far), total=len(U)
        )
    return finish(space, U, x0, tol, far)


def reduce_graph(space: ActionSpace, U: ElementSet, x0) -> ReductionResult:
    """Sphere-pair reduction in bounded geometry, with b = |B(x0, radius)|.

    Sphere radius 1000*delta (one edge when delta = 0); searches for one
    far pair carrying > |U|/(100 b^2), else two near-diagonal pairs with
    separated centers; tolerance 1000*delta (one edge when delta = 0).
    Tree backends are bounded-geometry graphs too (uniform valence), so
    they are accepted alongside finite graphs."""
    return _far_mover_route(space, U, x0, 1000 * space.delta, _pair_search)


def _pair_search(space, U: ElementSet, x0, tol, far) -> ReductionResult:
    """The far pair, else the two near-diagonal pairs, of `reduce_graph`."""
    ctx = U.context
    r_steps = space.steps(tol)
    sep_small = 6 * space.delta
    sep_big = 100 * space.delta
    b = space.ball_size(x0, tol)
    threshold = Fraction(len(U), 100 * b * b)

    members: dict = {}
    points: dict = {}
    for u, ux, vx in far:
        y = space.point_at(x0, ux, r_steps)
        z = space.point_at(x0, vx, r_steps)
        key = (space.point_key(y), space.point_key(z))
        members.setdefault(key, []).append(u)
        points[key] = (y, z)

    # case 1: one well-separated pair with large mass
    for key in sorted(members):
        y, z = points[key]
        us = members[key]
        if space.dist(y, z) > sep_small and len(us) > threshold:
            return _certify_and_report(
                space,
                x0,
                ctx,
                tol,
                SPHERE_GRAPH,
                "far_pair",
                us,
                us,
                {"qualifying": len(far), "u1": len(us), "b": b},
                cardinality_ok=Fraction(len(us)) >= threshold,
            )

    # case 2: two near-diagonal pairs with separated centers
    near = [
        (key, members[key])
        for key in sorted(members)
        if space.dist(*points[key]) <= sep_small
    ]
    near.sort(key=lambda item: (-len(item[1]), item[0]))
    for key0, us0 in near:
        if Fraction(len(us0)) < threshold:
            break
        y0, z0 = points[key0]
        for key1, us1 in near:
            if key1 == key0 or Fraction(len(us1)) < threshold:
                continue
            y1, z1 = points[key1]
            if space.dist(z1, z0) > sep_big and space.dist(y1, y0) > sep_big:
                return _certify_and_report(
                    space,
                    x0,
                    ctx,
                    tol,
                    SPHERE_GRAPH,
                    "diagonal_pairs",
                    us0,
                    us1,
                    {"qualifying": len(far), "u1": len(us0), "u2": len(us1), "b": b},
                    cardinality_ok=True,
                )

    # lemma says this contradicts minimal energy; report the witness mass
    mass = max((len(us) for _, us in near), default=0)
    true_min = minimize_energy(space, U).energy
    reason = (
        "BasePointNotMinimal"
        if energy_at(space, U, x0) > true_min
        else "MinimalEnergyViolated"
    )
    return _failed(ctx, tol, reason, near_diagonal_mass=mass, total=len(U))


def reduce_via_tree_approx(space: ActionSpace, U: ElementSet, x0) -> ReductionResult:
    """Reduction through the approximating tree of U x0 union U^-1 x0.

    Image sphere radius 1000 * log2(2|U|) * delta (a certified dyadic upper
    bound when irrational; one edge at delta = 0, where the construction
    degenerates to the exact tree recursion); the pulled-back sets are
    certified in the original space at that tolerance."""
    # a U of at most one element stops at TooSmall before the radius is used
    d = log2_upper(2 * len(U)) if len(U) > 1 else 0
    return _far_mover_route(space, U, x0, 1000 * d * space.delta, _tree_approx_peel)


def _tree_approx_peel(space, U: ElementSet, x0, tol, far) -> ReductionResult:
    """The peel of `reduce_via_tree_approx`, over the image sphere points."""
    # deduplicate targets but remember each element's leg pair
    target_index: dict = {}
    targets = []
    for _, ux, vx in far:
        for p in (ux, vx):
            key = space.point_key(p)
            if key not in target_index:
                target_index[key] = len(targets)
                targets.append(p)
    approx = approximate_tree(space, x0, targets)

    def image_class(point) -> tuple:
        """Tree sphere point at the working radius on this target's leg."""
        return (approx.canonical_leg(target_index[space.point_key(point)], tol),)

    keyed = {u: (image_class(ux), image_class(vx)) for u, ux, vx in far}
    return _peel_and_certify(space, x0, U.context, tol, VIA_TREE_APPROX, keyed, len(U))


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

    disp: dict = {}
    for u in chain(U1, U2):
        if u not in disp:
            disp[u] = space.dist(x0, space.act(u, x0))

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

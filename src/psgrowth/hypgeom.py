"""Geometry toolbox: Gromov products, discrete chain certificates,
translation lengths and axes, invariant cylinders, and the small
cancellation overlap bound.

Everything is exact: lengths are Fractions, and the axis of a hyperbolic
element is computed from the cyclic reduction of its word, never from
floating point or sampling.  Translation lengths come from the backends
themselves, and only the tree backends have hyperbolic elements: every
isometry of a finite graph has finite order, so the axis, cylinder and
overlap tools refuse graph elements, and the overlap bound has no delta
term.  `Constants` and `chain_certificate` keep theirs for every backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .spaces import ActionSpace, AxisData
from .words import GroupElement, primitive_root


@dataclass(frozen=True)
class Constants:
    """The acylindricity-derived constants of a space, as exact rationals.

    nu = 4*N0*kappa0/rho0 and A = 10^7*N0^2*kappa0/rho0; the rescaled
    acylindricity data at scale d is kappa(d) = kappa0 + 400*d*delta + 100*delta
    and N(d) = 23*d*N0.
    """

    nu: Fraction
    A: Fraction
    kappa0: Fraction
    rho0: Fraction
    delta: Fraction
    N0: int

    @classmethod
    def for_space(cls, space: ActionSpace) -> "Constants":
        return cls(
            nu=4 * space.N0 * space.kappa0 / space.rho0,
            A=10**7 * space.N0**2 * space.kappa0 / space.rho0,
            kappa0=space.kappa0,
            rho0=space.rho0,
            delta=space.delta,
            N0=space.N0,
        )

    def kappa_of_d(self, d) -> Fraction:
        return self.kappa0 + 400 * Fraction(d) * self.delta + 100 * self.delta

    def N_of_d(self, d) -> Fraction:
        return 23 * Fraction(d) * self.N0


def gromov_product(space: ActionSpace, p, q, x) -> Fraction:
    """(p,q)_x = (|p-x| + |q-x| - |p-q|) / 2."""
    return space.gromov_product(p, q, x)


def max_shared_prefix(left: list, right: list) -> int:
    """The longest common prefix of a sequence from `left` and one from
    `right`: on a tree, for the edge labels of geodesics from one point x,
    the largest Gromov product at x over the pairs, in edges.  In
    lexicographic order the common prefix of two sequences is the shortest
    common prefix of the adjacent pairs between them, so the maximum is
    attained by adjacent sequences from different sides."""
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


@dataclass(frozen=True)
class ChainCertificate:
    """Outcome of the discrete quasi-geodesic hypothesis check on a chain.

    When `certified`, every pair additionally passed the guaranteed
    conclusion |x_i - x_j| >= alpha * |i - j| (checked, not assumed).
    With beta given (and alpha >= 9 delta), the broken line through the
    chain is additionally compared against the end-to-end geodesic: both
    one-sided Hausdorff distances must be <= 10 delta + beta.
    """

    certified: bool
    alpha: Fraction
    violation_index: Optional[int] = None
    max_interior_product: Optional[Fraction] = None
    pair_bound_holds: bool = False
    hausdorff_to_geodesic: Optional[Fraction] = None
    hausdorff_ok: Optional[bool] = None


def chain_certificate(space: ActionSpace, points: Sequence, alpha, beta=None) -> ChainCertificate:
    """Check (x_{i-1}, x_{i+1})_{x_i} <= min(|x_i-x_{i-1}|, |x_i-x_{i+1}|)/2
    - alpha - delta at every interior index; on success verify the chain
    lower bound |x_i - x_j| >= alpha |i - j| on all pairs (and, when beta
    is supplied, the 10*delta + beta fellow-traveling of the broken line
    with the geodesic between the endpoints)."""
    alpha = Fraction(alpha)
    if len(points) < 3:
        raise ValueError("need at least 3 chain points")
    max_prod = Fraction(0)
    for i in range(1, len(points) - 1):
        prod = space.gromov_product(points[i - 1], points[i + 1], points[i])
        max_prod = max(max_prod, prod)
        bound = (
            min(space.dist(points[i], points[i - 1]), space.dist(points[i], points[i + 1]))
            / 2
            - alpha
            - space.delta
        )
        if prod > bound:
            return ChainCertificate(False, alpha, violation_index=i, max_interior_product=prod)
    ok = all(
        space.dist(points[i], points[j]) >= alpha * abs(i - j)
        for i in range(len(points))
        for j in range(i + 1, len(points))
    )
    haus = haus_ok = None
    if beta is not None and ok:
        if max_prod > Fraction(beta):
            haus_ok = False
        else:
            broken = []
            for i in range(len(points) - 1):
                broken.extend(space.geodesic(points[i], points[i + 1])[:-1])
            broken.append(points[-1])
            geo = space.geodesic(points[0], points[-1])
            haus = max(
                max(min(space.dist(p, q) for q in geo) for p in broken),
                max(min(space.dist(p, q) for q in broken) for p in geo),
            )
            haus_ok = haus <= 10 * space.delta + Fraction(beta)
    return ChainCertificate(
        ok,
        alpha,
        max_interior_product=max_prod,
        pair_bound_holds=ok,
        hausdorff_to_geodesic=haus,
        hausdorff_ok=haus_ok,
    )


def translation_length(space: ActionSpace, g: GroupElement) -> AxisData:
    """[g] = inf_x |gx - x|, with a witness (see each backend's
    `translation_length`)."""
    return space.translation_length(g)


def axis_distance(space: ActionSpace, axis: AxisData, x) -> Fraction:
    """Distance from a point to the axis of a hyperbolic tree isometry,
    exactly: |gx - x| = [g] + 2 d(x, axis)."""
    if not axis.is_hyperbolic:
        raise ValueError("axis_distance needs a hyperbolic element")
    return (space.dist(x, space.act(axis.element, x)) - axis.translation_length) / 2


def cylinder_membership(space: ActionSpace, x, e_root: GroupElement, margin) -> bool:
    """Whether x lies in the (margin-fattened) invariant cylinder of the
    maximal loxodromic subgroup generated by e_root.  On a tree the cylinder
    is the axis itself, so membership is exact."""
    axis = translation_length(space, e_root)
    if not axis.is_hyperbolic:
        raise ValueError("cylinder of an elliptic element is undefined here")
    return axis_distance(space, axis, x) <= Fraction(margin)


def _same_maximal_loxodromic(a: GroupElement, b: GroupElement) -> bool:
    """Whether two hyperbolic elements generate the same maximal cyclic
    subgroup: equal primitive roots up to inversion."""
    ra, _ = primitive_root(a)
    rb, _ = primitive_root(b)
    return ra == rb or ra == rb.inverse()


def axis_line_point(space: ActionSpace, axis: AxisData, index: int):
    """Vertex at signed position `index` along the invariant line of a
    hyperbolic tree isometry (position 0 = the fundamental domain start).

    The line is the union of root-translates of the fundamental domain
    [p, gp], so position block*L + off is g**block applied to segment[off].
    """
    segment = axis.axis_segment
    L = len(segment) - 1
    block, off = divmod(index, L)
    return space.act(axis.element**block, segment[off])


@dataclass(frozen=True)
class OverlapReport:
    diameter: Fraction
    paper_bound: Fraction
    within_bound: bool
    window_positions: int


def small_cancellation_diameter(
    space: ActionSpace, e_root: GroupElement, f_root: GroupElement
) -> OverlapReport:
    """Diameter of the overlap of the two invariant cylinders, against the
    bound 3*nu*max([E],[E']) (the paper's, with delta = 0).

    The cylinders are the two axes; their overlap is computed exactly on an
    adaptive window and verified to lie strictly inside it.
    """
    consts = Constants.for_space(space)
    ax_e = translation_length(space, e_root)
    ax_f = translation_length(space, f_root)
    if not (ax_e.is_hyperbolic and ax_f.is_hyperbolic):
        raise ValueError("both roots must be hyperbolic")
    if _same_maximal_loxodromic(e_root, f_root):
        raise ValueError("E and E' coincide (equal primitive roots)")
    bound = 3 * consts.nu * max(ax_e.translation_length, ax_f.translation_length)
    bound_steps = -int(-bound / space.rho0 // 1)  # ceil(bound / rho0)
    steps_e = len(ax_e.axis_segment) - 1
    steps_f = len(ax_f.axis_segment) - 1
    window = max(bound_steps + 4 * (steps_e + steps_f) + 8, 16)
    for _ in range(6):
        on_both = [
            i
            for i in range(-window, window + 1)
            if axis_distance(space, ax_f, axis_line_point(space, ax_e, i)) == 0
        ]
        if not on_both:
            return OverlapReport(Fraction(0), bound, True, 2 * window + 1)
        if on_both[0] > -window and on_both[-1] < window:
            diam = (on_both[-1] - on_both[0]) * space.rho0
            return OverlapReport(diam, bound, diam <= bound, 2 * window + 1)
        window *= 2
    raise RuntimeError(
        "axis overlap kept touching the window boundary; are the roots equal?"
    )

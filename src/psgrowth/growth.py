"""End-to-end growth verification: exact |U^n| against the theorem bounds,
exponent fitting on parameterized families, and the concentrated / diffuse
pipelines built from the reduction and periodicity machinery.

Every theoretical bound is reported next to the measured value; the harness
never substitutes theory for measurement.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .energy import Case, EnergyProfile, Mode, classify, minimize_energy
from .exactmath import log2_upper, to_float
from .hypgeom import translation_length
from .periodicity import (
    BiPeriodicWitness,
    Refusal,
    e_reduce,
    extract_period_from_equations,
    is_biperiodic,
    pingpong_certify,
    separate,
)
from .reduction import median_split, reduce_tree
from .spaces import NO_HYPERBOLIC_ELEMENT, ActionSpace
from .words import (
    BudgetExceededError,
    ElementSet,
    GroupElement,
    free_product,
    power_of,
    primitive_root,
    product,
    product_sizes,
)


@dataclass(frozen=True)
class AlphaConstants:
    """The growth constants of a backend, exactly.

    alpha_tree = rho0^2 / (10^15 kappa0^2); alpha_acyl = delta^2 /
    (10^50 N0^6 kappa0^2); c_concentrated = rho0 / (10^6 kappa0);
    gamma = 10^14 N0^3 kappa0 / rho0; c_counting = 10^12 N0^4 kappa0^2/rho0^2.
    """

    alpha_tree: Fraction
    alpha_acyl: Fraction
    c_concentrated: Fraction
    gamma: Fraction
    c_counting: Fraction

    @classmethod
    def for_space(cls, space: ActionSpace) -> "AlphaConstants":
        k, r, d, n0 = space.kappa0, space.rho0, space.delta, space.N0
        return cls(
            alpha_tree=r * r / (Fraction(10) ** 15 * k * k),
            alpha_acyl=d * d / (Fraction(10) ** 50 * n0**6 * k * k),
            c_concentrated=r / (Fraction(10) ** 6 * k),
            gamma=Fraction(10) ** 14 * n0**3 * k / r,
            c_counting=Fraction(10) ** 12 * n0**4 * k * k / (r * r),
        )


def virtually_cyclic_reason(space: ActionSpace, U: ElementSet) -> Optional[str]:
    """A reason string when U visibly sits in a virtually cyclic subgroup,
    else None.  On a finite graph it always does: <U> acts through the
    finite isometry group of the graph.  On a tree: a common primitive root
    up to inversion, a global dihedral context, or a common fixed vertex."""
    if not space.is_tree:
        return NO_HYPERBOLIC_ELEMENT
    if U.context == free_product(2, 2):
        return "Z/2 * Z/2 is infinite dihedral (virtually cyclic)"
    nontrivial = [u for u in U if not u.is_identity]
    if not nontrivial:
        return "U contains only the identity"
    hyp = [u for u in nontrivial if translation_length(space, u).is_hyperbolic]
    if not hyp:
        # all elliptic: common fixed vertex <=> zero energy at a vertex
        prof = minimize_energy(space, U)
        if prof.energy == 0:
            return "U fixes a vertex (elliptic subgroup)"
        return None
    root, _ = primitive_root(hyp[0])
    if all(power_of(u, root) is not None for u in U):
        return f"all elements are powers of {root}"
    return None


@dataclass
class GrowthReport:
    sizes: dict
    bounds: dict
    mode_name: str
    alpha_used: Fraction
    entropy_lb_display: float
    case_trace: list = field(default_factory=list)
    exponent_fit: Optional[float] = None
    not_applicable: Optional[str] = None
    truncated: bool = False
    violations: list = field(default_factory=list)
    profile: Optional[EnergyProfile] = None

    def as_dict(self) -> dict:
        return {
            "sizes": {str(k): v for k, v in sorted(self.sizes.items())},
            "bounds": {str(k): str(v) for k, v in sorted(self.bounds.items())},
            "mode": self.mode_name,
            "alpha": str(self.alpha_used),
            "entropy_lower_bound": self.entropy_lb_display,
            "case_trace": list(self.case_trace),
            "exponent_fit": self.exponent_fit,
            "not_applicable": self.not_applicable,
            "truncated": self.truncated,
            "violations": list(self.violations),
        }


def theorem_alpha(space: ActionSpace, U: ElementSet) -> Fraction:
    """The per-element coefficient in (alpha |U|)^{floor((n+1)/2)}.

    Tree backends use alpha_tree; graph backends with delta > 0 use the
    acylindrical form alpha_acyl / log2(2|U|)^6 (certified upper dyadic
    log bound, which only shrinks the claimed floor)."""
    consts = AlphaConstants.for_space(space)
    if space.delta == 0:
        return consts.alpha_tree
    return consts.alpha_acyl / log2_upper(2 * len(U)) ** 6


def growth_report(
    space: ActionSpace,
    U: ElementSet,
    n_max: int,
    mode: Mode = Mode.paper(),
    budget: int = 10_000_000,
) -> GrowthReport:
    """Exact |U^k| for k <= n_max against (alpha |U|)^{floor((k+1)/2)}.

    The virtually-cyclic pre-check reports NotApplicable instead of sizes
    comparisons that the theorems do not claim."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if len(U) == 0:
        raise ValueError("U must be nonempty")
    alpha = theorem_alpha(space, U)
    reason = virtually_cyclic_reason(space, U)

    sizes = {}
    bounds = {}
    violations = []
    truncated = False
    try:
        for k, size in enumerate(product_sizes(itertools.repeat(U, n_max), budget), 1):
            sizes[k] = size
            bounds[k] = (alpha * len(U)) ** ((k + 1) // 2)
            if reason is None and size < bounds[k]:
                violations.append(f"|U^{k}| = {size} < bound {bounds[k]}")
    except BudgetExceededError:
        truncated = True

    entropy_display = _half_log(alpha, len(U))
    prof = classify(space, U, minimize_energy(space, U), mode) if reason is None else None
    trace = []
    if prof is not None:
        trace.append(f"case={prof.case.value}")
    return GrowthReport(
        sizes=sizes,
        bounds=bounds,
        mode_name=mode.name,
        alpha_used=alpha,
        entropy_lb_display=entropy_display,
        case_trace=trace,
        not_applicable=reason,
        truncated=truncated,
        violations=violations,
        profile=prof,
    )


def _half_log(alpha: Fraction, size: int) -> float:
    """1/2 log(alpha size) for a display: from the float product where that is
    a positive finite float, else from the exact numerator and denominator,
    whose logs `math.log` takes at any size."""
    x = to_float(alpha) * size
    if 0 < x < math.inf:
        return 0.5 * math.log(x)
    return 0.5 * (math.log(alpha.numerator * size) - math.log(alpha.denominator))


def entropy_bound_holds(sizes: dict, alpha: Fraction, u_size: int) -> bool:
    """Exact check of 1/2 log(alpha |U|) <= (1/n) log |U^n| at the largest
    computed n: (alpha |U|)^n <= |U^n|^2."""
    if not sizes:
        return True
    n = max(sizes)
    lhs = (alpha * u_size) ** n
    return lhs <= Fraction(sizes[n]) ** 2


def exponent_fit(
    space: ActionSpace,
    family: Callable[[int], ElementSet],
    n: int,
    N_range: Sequence[int],
    budget: int = 10_000_000,
) -> tuple[float, dict]:
    """Least-squares slope of log |U_N^n| against log |U_N| over the range.

    Regressing on the family size rather than the raw parameter N matches
    the theorem's (alpha |U|)^e scaling and the op's own example values;
    the counts are returned alongside for reporting."""
    import numpy as np

    if n < 1:
        raise ValueError("n must be >= 1")
    counts = {}
    xs, ys = [], []
    for N in N_range:
        U = family(N)
        if len(U) == 0:
            raise ValueError("U must be nonempty")
        *_, counts[N] = product_sizes(itertools.repeat(U, n), budget)
        xs.append(math.log(len(U)))
        ys.append(math.log(counts[N]))
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(xs) > 1 else 1.0
    return slope, counts


# ---------------------------------------------------------------------------
# concentrated pipeline


@dataclass
class ConcentratedOutcome:
    certified: bool
    u1_size: int
    u2_size: int
    witness: Optional[GroupElement]
    sizes: dict
    reason: str = ""
    chain_alpha: Optional[Fraction] = None

    def as_dict(self):
        return {
            "certified": self.certified,
            "u1_size": self.u1_size,
            "u2_size": self.u2_size,
            "witness": str(self.witness) if self.witness else None,
            "sizes": {str(k): v for k, v in sorted(self.sizes.items())},
            "reason": self.reason,
            "chain_alpha": str(self.chain_alpha) if self.chain_alpha is not None else None,
        }


def concentrated_pipeline(
    space: ActionSpace,
    U: ElementSet,
    x0,
    mode: Mode,
    n_max: int = 3,
    budget: int = 200_000,
) -> ConcentratedOutcome:
    """Products with one far-moving witness: U1 = short-displacement part,
    U2 = a spaced subset at the offset point m on [x0, v x0], then the
    chain certificate and brute-force verification of |(U2 v)^k| = |U2|^k.

    Paper mode uses threshold kappa0, witness floor 10^4 kappa0, offset
    500 kappa0, spacing 42 kappa0; practical mode scales all of these from
    the concentration threshold T (witness floor 4 max(T, rho0), offset
    rho0, spacing > 0), and the chain margin alpha > 0 remains the gate.

    On a finite graph it stops before the chain: no element there is
    hyperbolic."""
    if not space.is_tree:
        return ConcentratedOutcome(False, 0, 0, None, {}, NO_HYPERBOLIC_ELEMENT)
    if mode.name == "paper":
        T = space.kappa0
        witness_floor = 10**4 * space.kappa0
        offset = 500 * space.kappa0
        spacing = 42 * space.kappa0
    else:
        T = mode.concentration_threshold
        witness_floor = 4 * max(T, space.rho0)
        offset = space.rho0
        spacing = Fraction(0)

    disp = {u: space.dist(x0, space.act(u, x0)) for u in U}
    u1 = [u for u in U if disp[u] <= T]
    if 4 * len(u1) <= len(U):
        return ConcentratedOutcome(False, len(u1), 0, None, {}, "NotConcentrated")
    candidates = [u for u in U if disp[u] >= witness_floor]
    if not candidates:
        return ConcentratedOutcome(False, len(u1), 0, None, {}, "NoHyperbolicWitness")
    v = max(candidates, key=lambda u: (disp[u], u.sort_key()))

    vx0 = space.act(v, x0)
    steps = min(space.steps(offset) if (offset / space.rho0).denominator == 1 else 1,
                space.steps(disp[v]))
    m = space.point_at(x0, vx0, steps)

    # U1 is nonempty past the gate above and its first element is always
    # kept, so U2 is never empty
    u2 = []
    taken_points = []
    for u in sorted(u1, key=lambda el: el.sort_key()):
        um = space.act(u, m)
        if all(space.dist(um, q) > spacing for q in taken_points):
            u2.append(u)
            taken_points.append(um)

    # chain data: products (u v x0, u' v x0)_{x0} and (v^-1 x0, u v x0)_{x0},
    # and the step lengths
    pts = [space.act(u, vx0) for u in u2]
    v_inv_x0 = space.act(v.inverse(), x0)
    max_prod = max(
        [space.gromov_product(p, q, x0) for p, q in itertools.combinations(pts, 2)]
        + [space.gromov_product(v_inv_x0, p, x0) for p in pts]
    )
    min_step = min(space.dist(x0, p) for p in [vx0] + pts)
    alpha = min_step / 2 - max_prod
    ok = alpha > 0

    sizes = {}
    if ok:
        chain = ElementSet(U.context, [u * v for u in u2])
        levels = itertools.repeat(chain, (n_max + 1) // 2 + 1)
        for k, size in enumerate(product_sizes(levels, budget), 1):
            sizes[k] = size
            # stop before a level that could pass the budget
            if size * len(chain) > budget:
                break
        expected = {kk: len(u2) ** kk for kk in sizes}
        if sizes != expected:
            raise RuntimeError(
                f"concentrated chain certified but counts differ: {sizes} vs {expected}"
            )
    return ConcentratedOutcome(
        ok, len(u1), len(u2), v, sizes, "" if ok else "ChainMarginFailed", alpha
    )


# ---------------------------------------------------------------------------
# diffuse pipeline


@dataclass
class DiffuseOutcome:
    branch: str  # NonPeriodic | BiPeriodic | NotApplicable | Failed
    certified: bool
    sizes: dict
    counting: dict = field(default_factory=dict)
    witness: Optional[BiPeriodicWitness] = None
    pingpong: Optional[dict] = None
    reduction: Optional[dict] = None
    paper_bound_display: Optional[str] = None
    reason: str = ""

    def as_dict(self):
        return {
            "branch": self.branch,
            "certified": self.certified,
            "sizes": {str(k): v for k, v in sorted(self.sizes.items())},
            "counting": {str(k): v for k, v in sorted(self.counting.items())},
            "witness": self.witness.as_dict() if self.witness else None,
            "pingpong": self.pingpong,
            "reduction": self.reduction,
            "paper_bound": self.paper_bound_display,
            "reason": self.reason,
        }


def _collision_equations(U1, v, W, budget):
    """Group the products u*v*w by value; the largest class gives the
    equations u_i v w_i = const."""
    groups: dict = {}
    count = 0
    for u in U1:
        uv = u * v
        for w_ in W:
            prod = uv * w_
            groups.setdefault(prod, []).append((u, w_))
            count += 1
            if count > budget:
                raise BudgetExceededError("counting over budget")
    distinct = len(groups)
    largest = max(groups.values(), key=len)
    return distinct, largest


def diffuse_pipeline(
    space: ActionSpace,
    U: ElementSet,
    mode: Mode,
    n: int = 3,
    counting_c: Fraction = Fraction(2),
    budget: int = 500_000,
) -> DiffuseOutcome:
    """The diffuse-energy route: reduction (the tree sphere peel at radius
    rho0) -> median split -> W_l counting;
    periodic middles route through period extraction, bi-periodicity, and
    the ping-pong growth of the coset.

    l = floor((n+1)/2) and W_l = (U1 U2)^{l-2} U1 for l >= 3; below that
    the counting set is U1 itself."""
    ctx = U.context
    if counting_c <= Fraction(1, 2):
        raise ValueError("counting_c must exceed 1/2 (the bound is vacuous below)")
    known: dict = {}  # reduction, counting and witness, as each stage passes

    def refuse(branch: str, reason: str) -> DiffuseOutcome:
        return DiffuseOutcome(branch, False, {}, reason=reason, **known)

    reason = virtually_cyclic_reason(space, U)
    if reason is not None:
        return refuse("NotApplicable", reason)

    prof = classify(space, U, minimize_energy(space, U), mode)
    if prof.case is not Case.DIFFUSE:
        return refuse("Failed", f"classified {prof.case.value}")
    x0 = prof.base_point
    if mode.name == "paper":
        hypothesis_floor = Fraction(10) ** 10 * prof.d_factor * space.kappa0
    else:
        hypothesis_floor = mode.concentration_threshold

    red = reduce_tree(space, U, x0, space.rho0, hypothesis_displacement=hypothesis_floor)
    known["reduction"] = red.as_dict()
    if red.failed:
        return refuse("Failed", red.reason)
    # a reduction that did not fail has U1 and U2 nonempty, and the median
    # split keeps the median element of each
    U1, U2 = median_split(space, red.u1, red.u2, x0)

    l = (n + 1) // 2
    pairs = itertools.chain.from_iterable(itertools.repeat((U2, U1), l - 2))
    W = product(itertools.chain((U1,), pairs), budget)

    consts = AlphaConstants.for_space(space)
    counting = known["counting"] = {}
    period_certs = {}
    threshold = None if mode.name == "paper" else _practical_period_threshold(space, U2, x0)
    need = Fraction(len(U1) * len(W), 1) / (2 * counting_c)
    for v in U2:
        distinct, eqs_pairs = _collision_equations(U1, v, W, budget)
        counting[str(v)] = distinct
        if Fraction(distinct) > need:
            continue
        # count <= |U1||W|/(2c) with 2c > 1 forces a collision class of >= 2
        if len(eqs_pairs) < 2:
            raise RuntimeError(f"no collision class of two or more for {v}")
        eqs = [(u, v, w_) for u, w_ in eqs_pairs]
        res = extract_period_from_equations(
            space, eqs, x0, threshold, paper_mode=(mode.name == "paper")
        )
        period_certs[v] = res

    non_periodic = [v for v in U2 if v not in period_certs]
    refused = [res.reason for res in period_certs.values() if isinstance(res, Refusal)]
    if non_periodic or refused:
        return DiffuseOutcome(
            "NonPeriodic",
            not refused,
            {"U1_v_W_max": max(counting.values()), "U1": len(U1), "W": len(W)},
            paper_bound_display=f"(|U| / (8 * {consts.c_counting} * 2b^2))^{l}",
            reason="extraction_refused:" + ",".join(refused) if refused else "counting_bound_met",
            **known,
        )

    # every middle element extracted a period: check bi-periodicity of U2
    witness = is_biperiodic(space, U2, x0, threshold)
    if isinstance(witness, Refusal):
        return refuse("Failed", f"biperiodic_refused:{witness.reason}")
    known["witness"] = witness

    # coset handoff: with U2 inside E t, grow (V t')^n by ping pong.  When
    # the representative sits inside E itself, pick any s in U outside
    # <root> (only trees get here, and there one exists, else the
    # virtually-cyclic pre-check would have fired) and grow (U2 s)^n instead.
    root = witness.coset_root
    rep = witness.coset_rep
    handoff: dict = {"coset_root": str(root), "rep": str(rep)}
    if power_of(rep, root) is None:
        tail = rep
        V_E = ElementSet(
            ctx, [v * rep.inverse() for v in U2 if not (v * rep.inverse()).is_identity]
        )
    else:
        outside = [s for s in U if power_of(s, root) is None]
        if not outside:
            raise RuntimeError(f"every element of U is a power of {root}")
        tail = outside[0]
        V_E = ElementSet(ctx, [v for v in U2 if not v.is_identity])
        handoff["tail_from_U"] = str(tail)
    # neither refuses: the tail lies outside <root>, and V_E is nonempty
    # (|U2| >= 2) with every element a nonzero power of the root
    _, t_prime, _ = e_reduce(space, tail, root, x0)
    r_sep = 1
    sep = separate(space, V_E, r_sep, x0, root)
    e_len = translation_length(space, root).translation_length
    pp = pingpong_certify(
        space, sep, root, t_prime, min(n, 3), x0,
        a_value=None if mode.name == "paper" else e_len * r_sep / 10,
        budget=budget,
    )
    handoff["pingpong"] = pp.as_dict()
    handoff["separated_size"] = len(sep)
    return DiffuseOutcome(
        "BiPeriodic",
        pp.certified,
        {str(k): c for k, c in pp.counts.items()},
        pingpong=handoff,
        paper_bound_display=f"(|U2|/(4 gamma) |U|)^{l} with gamma = {consts.gamma}",
        reason="" if pp.certified else pp.reason,
        **known,
    )


def _practical_period_threshold(space, U2, x0) -> Fraction:
    """A reachable periodicity threshold for desk-scale roots: half the
    median displacement of U2 at x0 (certificates still record slack)."""
    disps = sorted(space.dist(x0, space.act(v, x0)) for v in U2)
    return disps[len(disps) // 2] / 2

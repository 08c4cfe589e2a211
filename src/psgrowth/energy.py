"""Normalized l^1-energy minimization, base point selection, displacement,
and the concentrated/diffuse case split.

On trees the energy is convex along geodesics, so steepest descent over
vertices from the basepoint reaches a global vertex minimizer; only steps
toward orbit points can decrease the energy, which keeps the candidate set
finite even when vertex links are infinite.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .exactmath import log2_upper
from .spaces import ActionSpace
from .words import ElementSet


class Case(enum.Enum):
    CONCENTRATED = "concentrated"
    DIFFUSE = "diffuse"
    BELOW_THRESHOLD = "below_threshold"


@dataclass(frozen=True)
class Mode:
    """Threshold regime for the case split and downstream certificates.

    Paper mode uses the growth theorems' original constants (concentration threshold
    10^10 * d * kappa0, displacement floor 10^14 * d * kappa0).  Practical
    mode takes user thresholds so the branches are reachable at desk scale;
    every report records which mode produced it.
    """

    name: str
    concentration_threshold: Optional[Fraction] = None
    displacement_floor: Optional[Fraction] = None

    @classmethod
    def paper(cls) -> "Mode":
        return cls("paper")

    @classmethod
    def practical(cls, concentration_threshold, displacement_floor=0) -> "Mode":
        return cls(
            "practical",
            Fraction(concentration_threshold),
            Fraction(displacement_floor),
        )


def d_factor(space: ActionSpace, U: ElementSet) -> Fraction:
    """1 on trees (delta = 0), log2(2|U|) for acylindrical actions on graphs
    with delta > 0 (certified dyadic upper bound when irrational)."""
    if space.delta == 0:
        return Fraction(1)
    return log2_upper(2 * len(U))


@dataclass(frozen=True)
class EnergyProfile:
    base_point: object
    energy: Fraction
    displacement: Fraction
    d_factor: Fraction
    case: Optional[Case] = None
    mode_name: Optional[str] = None
    descent_steps: int = 0


def energy_at(space: ActionSpace, U: ElementSet, x) -> Fraction:
    """(1/|U|) * sum over u of |x - ux|, exactly: the hops are summed as
    integers and scaled once."""
    if len(U) == 0:
        raise ValueError("U must be nonempty")
    return Fraction(sum(space.hops(x, space.act(u, x)) for u in U)) * space.rho0 / len(U)


def displacement_at(space: ActionSpace, U: ElementSet, x) -> Fraction:
    return max(space.hops(x, space.act(u, x)) for u in U) * space.rho0


def _descend(space: ActionSpace, U: ElementSet, x) -> tuple:
    """Steepest descent over tree vertices from x, one pass over U a step.

    Only the first steps toward the orbit points u x != x can lower the
    energy.  The pass reads, for every u, the displacement d(x, ux) and the
    first edges of [x, ux] and [x, u^-1 x] as one `orbit_prefix` with
    k = 1, an edge count and two one-label heads, so no path is spelled;
    the energy at each neighbour y
    then follows from counts, since with edge length rho
        d(y, uy) = d(x, ux) + 2 rho - 2 rho [y on [x, ux]] - 2 rho [y on [x, u^-1 x]]
    when u moves x, d(y, uy) = 2 rho when u != 1 fixes x, and 0 when u = 1
    (neither tree action has inversions or nontrivial edge stabilisers).
    Moves to the strictly lower neighbour of least (energy, point_key).
    Returns (vertex, energy, displacement, steps)."""
    steps = 0
    while True:
        total = widest = 0
        bump = 0  # sum over u != 1 of the +2 steps at a neighbour
        hits: dict = {}  # first edge label -> geodesics [x, ux], [x, u^-1 x] on it
        toward: dict = {}  # first edge label of some [x, ux] -> that u
        for u in U:
            n, out, back = space.orbit_prefix(u, x, 1)
            if n:
                total += n
                widest = max(widest, n)
                hits[out[0]] = hits.get(out[0], 0) + 1
                hits[back[0]] = hits.get(back[0], 0) + 1
                toward.setdefault(out[0], u)
            if not u.is_identity:
                bump += 2
        current = Fraction(total) * space.rho0 / len(U)
        options = []
        for label, u in toward.items():
            val = Fraction(total + bump - 2 * hits[label]) * space.rho0 / len(U)
            if val < current:
                cand = space.point_at(x, space.act(u, x), 1)
                options.append((val, space.point_key(cand), cand))
        if not options:
            return x, current, widest * space.rho0, steps
        _, _, x = min(options)
        steps += 1


def minimize_energy(space: ActionSpace, U: ElementSet, start=None) -> EnergyProfile:
    """Steepest descent over vertices (trees) or exhaustive scan (finite
    graphs); deterministic tie-break by vertex encoding."""
    if len(U) == 0:
        raise ValueError("U must be nonempty")

    if not space.is_tree:
        x = min(
            range(space.n), key=lambda v: (energy_at(space, U, v), space.point_key(v))
        )
        energy, displacement = energy_at(space, U, x), displacement_at(space, U, x)
        steps = 0
    else:
        x, energy, displacement, steps = _descend(
            space, U, space.basepoint() if start is None else start
        )

    return EnergyProfile(
        base_point=x,
        energy=energy,
        displacement=displacement,
        d_factor=d_factor(space, U),
        descent_steps=steps,
    )


def classify(
    space: ActionSpace, U: ElementSet, profile: EnergyProfile, mode: Mode
) -> EnergyProfile:
    """Fill in the case split: below-threshold if the displacement misses
    the theorem floor; else concentrated iff more than 1/4 of U moves the
    base point at most the threshold (diffuse iff at least 3/4 move it
    strictly further: the two are exact complements)."""
    d = profile.d_factor
    if mode.name == "paper":
        floor = Fraction(10) ** 14 * d * space.kappa0
        threshold = Fraction(10) ** 10 * d * space.kappa0
    else:
        floor = mode.displacement_floor
        threshold = mode.concentration_threshold
        if threshold is None:
            raise ValueError("practical mode needs a concentration threshold")

    if profile.displacement < floor:
        case = Case.BELOW_THRESHOLD
    else:
        # d(x, ux) = hops * rho0 with rho0 > 0, so it is at most the
        # threshold exactly when the integer hops are at most
        # floor(threshold / rho0)
        x = profile.base_point
        limit = math.floor(threshold / space.rho0)
        near = sum(1 for u in U if space.hops(x, space.act(u, x)) <= limit)
        case = Case.CONCENTRATED if 4 * near > len(U) else Case.DIFFUSE
    return replace(profile, case=case, mode_name=mode.name)

"""Normalized l^1-energy minimization, base point selection, displacement,
and the concentrated/diffuse case split.

On trees the energy is convex along geodesics, so steepest descent over
vertices from the basepoint reaches a global vertex minimizer; only steps
toward orbit points can decrease the energy, which keeps the candidate set
finite even when vertex links are infinite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .exactmath import log2_upper
from .spaces import ActionSpace, FiniteHypGraph
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
    d_choice: str = "auto"  # auto | tree | hyperbolic_group | acylindrical

    @classmethod
    def paper(cls, d_choice: str = "auto") -> "Mode":
        return cls("paper", d_choice=d_choice)

    @classmethod
    def practical(
        cls, concentration_threshold, displacement_floor=0, d_choice: str = "auto"
    ) -> "Mode":
        return cls(
            "practical",
            Fraction(concentration_threshold),
            Fraction(displacement_floor),
            d_choice,
        )


def d_factor(space: ActionSpace, U: ElementSet, mode: Mode) -> Fraction:
    """1 for tree and hyperbolic-group regimes, log2(2|U|) for general
    acylindrical actions (certified dyadic upper bound when irrational)."""
    choice = mode.d_choice
    if choice == "auto":
        choice = "acylindrical" if isinstance(space, FiniteHypGraph) and space.delta > 0 else "tree"
    if choice in ("tree", "hyperbolic_group"):
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
    """(1/|U|) * sum over u of |x - ux|, exactly."""
    if len(U) == 0:
        raise ValueError("U must be nonempty")
    return sum((space.dist(x, space.act(u, x)) for u in U), Fraction(0)) / len(U)


def displacement_at(space: ActionSpace, U: ElementSet, x) -> Fraction:
    return max(space.dist(x, space.act(u, x)) for u in U)


def _descend(space: ActionSpace, U: ElementSet, x) -> tuple:
    """Steepest descent over tree vertices from x, one pass over U a step.

    Only the first steps toward the orbit points u x != x can lower the
    energy.  The pass reads, for every u, the displacement d(x, ux) and the
    first edges of [x, ux] and [x, u^-1 x]; the energy at each neighbour y
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
            out, back = space.orbit_labels(u, x)
            if out:
                total += len(out)
                widest = max(widest, len(out))
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


def minimize_energy(
    space: ActionSpace, U: ElementSet, mode: Mode = Mode.paper(), start=None
) -> EnergyProfile:
    """Steepest descent over vertices (trees) or exhaustive scan (finite
    graphs); deterministic tie-break by vertex encoding."""
    if len(U) == 0:
        raise ValueError("U must be nonempty")

    if isinstance(space, FiniteHypGraph):
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
        d_factor=d_factor(space, U, mode),
        mode_name=mode.name,
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
        x = profile.base_point
        near = sum(
            1 for u in U if space.dist(x, space.act(u, x)) <= threshold
        )
        case = Case.CONCENTRATED if 4 * near > len(U) else Case.DIFFUSE
    return replace(profile, case=case, mode_name=mode.name)

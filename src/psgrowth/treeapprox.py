"""Tree approximation of a star of geodesics in a hyperbolic space.

Given a base point and target points, the union of geodesics [x0, x_i] is
mapped to a metric tree T: each geodesic becomes an isometric leg, and legs
i, j branch at depth div(i, j), the maximin closure over chains of the
pairwise Gromov products (x_i, x_j)_{x0}.  Taking the closure (rather than
attaching each leg at its single best predecessor) makes the no-expansion
half of the distortion bound a theorem of the triangle inequality alone:

    (x_i, x_j)_{x0} >= (x, x')_{x0}  for x on leg i, x' on leg j,

so d_T(f x, f x') = s + t - 2*min(s, t, div(i,j)) <= s + t - 2 (x,x')_{x0}
= |x - x'|.  The shrink side is the hyperbolicity content, verified
exhaustively over all sampled pairs against 2*delta*(log2 n + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactmath import to_float, within_log_bound
from .spaces import ActionSpace

_INF = Fraction(10**30)  # sentinel: larger than any hull diameter here


@dataclass(frozen=True)
class TreePoint:
    leg: int
    depth: Fraction


@dataclass
class ApproximationTree:
    """The tree T, the map f on all sampled geodesic vertices, and the
    verified distortion data."""

    space: ActionSpace
    x0: object
    targets: list
    legs: list  # list of geodesic vertex lists
    div: list  # maximin-closed divergence depths between legs
    samples: list  # (point, TreePoint) with first-leg assignment
    n_leaves: int
    # div in doubled hops: div[i][j] = div2[i][j] * rho0 / 2 off the
    # diagonal, and a sentinel above every doubled depth on it
    div2: list

    def tree_distance(self, a: TreePoint, b: TreePoint) -> Fraction:
        if a.leg == b.leg:
            return abs(a.depth - b.depth)
        meet = min(a.depth, b.depth, self.div[a.leg][b.leg])
        return a.depth + b.depth - 2 * meet

    def image_of(self, point) -> Optional[TreePoint]:
        key = self.space.point_key(point)
        for p, tp in self.samples:
            if self.space.point_key(p) == key:
                return tp
        return None

    def distortion_bound_holds(self, shrink: Fraction) -> bool:
        return within_log_bound(shrink, self.space.delta, max(self.n_leaves, 1))

    def glue_depth(self, i: int) -> Fraction:
        """Depth at which leg i attaches to the tree spanned by legs < i."""
        if i == 0:
            return Fraction(0)
        row = self.div2[i]
        return self.div[i][max(range(i), key=row.__getitem__)]

    def canonical_leg(self, leg: int, depth: Fraction) -> int:
        """The lowest-index leg through the point at `depth` on leg `leg`:
        the legs that have not yet diverged from it there, i.e. with
        div >= depth, or div2 >= 2 depth / rho0 rounded up."""
        bar = math.ceil(2 * depth / self.space.rho0)
        row = self.div2[leg]
        return next(j for j in range(len(self.legs)) if j == leg or row[j] >= bar)

    # -- explicit tree structure for export ---------------------------------

    def export(self) -> dict:
        """Vertices, parent pointers and edge lengths of the quotient tree,
        plus the image node of every sampled point."""
        depths_per_leg: dict[int, set[Fraction]] = {}

        node_keys: set[tuple[int, Fraction]] = set()
        for _, tp in self.samples:
            node_keys.add((self.canonical_leg(tp.leg, tp.depth), tp.depth))
        for i in range(1, len(self.legs)):
            d = self.glue_depth(i)
            node_keys.add((self.canonical_leg(i, d), d))
        node_keys.add((0, Fraction(0)))

        for leg, depth in node_keys:
            depths_per_leg.setdefault(leg, set()).add(depth)

        ordered = sorted(node_keys)
        ids = {key: i for i, key in enumerate(ordered)}
        parent = [-1] * len(ordered)
        edge_length = [Fraction(0)] * len(ordered)
        for key in ordered:
            leg, depth = key
            if depth == 0:
                continue
            below = [d for d in depths_per_leg.get(leg, ()) if d < depth]
            if leg != 0:
                below.append(self.glue_depth(leg))
            prev = max(d for d in below if d <= depth) if below else Fraction(0)
            pkey = (self.canonical_leg(leg, prev), prev)
            parent[ids[key]] = ids[pkey]
            edge_length[ids[key]] = depth - prev

        f_images = {
            self.space.encode_point(p): ids[
                (self.canonical_leg(tp.leg, tp.depth), tp.depth)
            ]
            for p, tp in self.samples
        }
        return {
            "vertices": [[key[0], str(key[1])] for key in ordered],
            "parent": parent,
            "edge_length": [str(l) for l in edge_length],
            "f_images": f_images,
        }


def approximate_tree(space: ActionSpace, x0, targets: Sequence) -> ApproximationTree:
    """Build the approximating tree for the geodesic star from x0 to the
    targets.  Sample set = every geodesic vertex; each sample maps to the
    first (lowest-index) leg through it."""
    import numpy as np

    targets = list(targets)
    if not targets:
        raise ValueError("need at least one target")
    legs = [space.geodesic(x0, t) for t in targets]
    n = len(legs)

    # twice the Gromov products (t_i, t_j)_{x0}, in hops
    out = [space.hops(t, x0) for t in targets]
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            G[i][j] = G[j][i] = out[i] + out[j] - space.hops(targets[i], targets[j])
    # maximin (widest-path) closure over chains of legs; the diagonal
    # sentinel exceeds every doubled depth 2 hops(x0, t_i)
    top = 2 * max(out) + 1
    R = np.array(G, dtype=np.int64)
    np.fill_diagonal(R, top)
    for k in range(n):
        np.maximum(R, np.minimum(R[:, k, None], R[None, k, :]), out=R)
    div2 = R.tolist()
    # decode each distinct value once: g doubled hops are g rho0 / 2
    depth = {g: Fraction(g, 2) * space.rho0 for g in set().union(*div2)}
    depth[top] = _INF
    div = [[depth[g] for g in row] for row in div2]

    samples: list = []
    assigned: dict = {}
    for i, leg in enumerate(legs):
        for step, point in enumerate(leg):
            key = space.point_key(point)
            if key not in assigned:
                tp = TreePoint(i, step * space.rho0)
                assigned[key] = tp
                samples.append((point, tp))

    return ApproximationTree(
        space=space,
        x0=x0,
        targets=targets,
        legs=legs,
        div=div,
        samples=samples,
        n_leaves=n,
        div2=div2,
    )


@dataclass(frozen=True)
class DistortionReport:
    max_shrink: Fraction
    expansion_found: bool
    ok: bool
    n_pairs: int
    delta: Fraction
    n_leaves: int
    leg_isometry_ok: bool
    bound_display: Optional[float]

    def as_dict(self) -> dict:
        return {
            "max_shrink": str(self.max_shrink),
            "expansion_found": self.expansion_found,
            "ok": self.ok,
            "n_pairs": self.n_pairs,
            "delta": str(self.delta),
            "n_leaves": self.n_leaves,
            "leg_isometry_ok": self.leg_isometry_ok,
            "bound_2delta_log2n_plus_1": self.bound_display,
        }


def distortion_report(approx: ApproximationTree) -> DistortionReport:
    """Exhaustive two-sided distortion check over all sampled pairs.

    ok means: no pair expanded (d_T > |x - x'|) and the worst shrink is
    within 2*delta*(log2(n)+1), compared exactly.  The pairs are compared
    in doubled hops (a sample s edges down its leg sits at depth 2 s), and
    the worst shrink is scaled by rho0 / 2 once."""
    space = approx.space
    points = [p for p, _ in approx.samples]
    legs = [tp.leg for _, tp in approx.samples]
    depths = [2 * space.steps(tp.depth) for _, tp in approx.samples]
    shrink = 0
    expansion = False
    for a, p in enumerate(points):
        s, row = depths[a], approx.div2[legs[a]]
        for b in range(a + 1, len(points)):
            t = depths[b]
            # the diagonal sentinel exceeds every depth, so this is also
            # |s - t| on a shared leg
            tree = s + t - 2 * min(s, t, row[legs[b]])
            real = 2 * space.hops(p, points[b])
            if tree > real:
                expansion = True
            elif real - tree > shrink:
                shrink = real - tree
    max_shrink = Fraction(shrink, 2) * space.rho0
    # the root (leg 0, depth 0) is at tree distance `depth` from every sample
    leg_iso = all(d == 2 * space.hops(approx.x0, p) for p, d in zip(points, depths))
    within = approx.distortion_bound_holds(max_shrink)
    n = max(approx.n_leaves, 1)
    bound = to_float(2 * approx.space.delta) * (math.log2(n) + 1)
    # a bound beyond the float range has no display: null, never Infinity
    bound_display = bound if bound < math.inf else None
    return DistortionReport(
        max_shrink=max_shrink,
        expansion_found=expansion,
        ok=within and not expansion and leg_iso,
        n_pairs=len(points) * (len(points) - 1) // 2,
        delta=space.delta,
        n_leaves=approx.n_leaves,
        leg_isometry_ok=leg_iso,
        bound_display=bound_display,
    )

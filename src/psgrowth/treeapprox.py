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

Every depth in the tree is an integer count of doubled hops: a point k edges
down its leg sits at depth 2 k, div(i, j) is the integer div2[i][j], and a
depth g is g * rho0 / 2 long.  Only `export`, which prints lengths, and the
worst shrink of `distortion_report` scale by rho0 / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactmath import to_float, within_log_bound
from .spaces import ActionSpace


@dataclass
class ApproximationTree:
    """The tree T, the map f on all sampled geodesic vertices, and the
    verified distortion data, with every depth in doubled hops."""

    space: ActionSpace
    x0: object
    targets: list
    legs: list  # list of geodesic vertex lists
    # maximin-closed divergence depths between legs, and a sentinel above
    # every depth on the diagonal
    div2: list
    samples: list  # (point, leg, depth), each point on the first leg through it
    n_leaves: int

    def distortion_bound_holds(self, shrink: Fraction) -> bool:
        return within_log_bound(shrink, self.space.delta, max(self.n_leaves, 1))

    def glue_depth(self, i: int) -> int:
        """Depth at which leg i attaches to the tree spanned by legs < i."""
        return max(self.div2[i][:i], default=0)

    def canonical_leg(self, leg: int, depth: int) -> int:
        """The lowest-index leg through the point at `depth` on leg `leg`:
        the legs that have not yet diverged from it there, i.e. with
        div2 >= depth."""
        row = self.div2[leg]
        return next(j for j in range(len(self.legs)) if j == leg or row[j] >= depth)

    # -- explicit tree structure for export ---------------------------------

    def export(self) -> dict:
        """Vertices, parent pointers and edge lengths of the quotient tree,
        plus the image node of every sampled point.

        A node is (canonical leg, depth).  Every node on a leg i > 0 lies
        deeper than the glue point of i, so in sorted order a node's parent
        is the node before it on its leg, or else its leg's glue point."""
        images = [(self.canonical_leg(leg, d), d) for _, leg, d in self.samples]
        glue = []
        for i in range(len(self.legs)):
            d = self.glue_depth(i)
            glue.append((self.canonical_leg(i, d), d))
        # the glue point of leg 0 is the root (0, 0), the least key
        ordered = sorted(set(glue).union(images))
        ids = {key: i for i, key in enumerate(ordered)}

        parent, edge_length = [-1], [0]
        for i, (leg, depth) in enumerate(ordered[1:]):
            up = i if ordered[i][0] == leg else ids[glue[leg]]
            parent.append(up)
            edge_length.append(depth - ordered[up][1])

        scale = self.space.rho0 / 2
        return {
            "vertices": [[leg, str(depth * scale)] for leg, depth in ordered],
            "parent": parent,
            "edge_length": [str(l * scale) for l in edge_length],
            "f_images": {
                self.space.encode_point(p): ids[key]
                for (p, _, _), key in zip(self.samples, images)
            },
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
    # sentinel exceeds every depth 2 hops(x0, t_i)
    R = np.array(G, dtype=np.int64)
    np.fill_diagonal(R, 2 * max(out) + 1)
    for k in range(n):
        np.maximum(R, np.minimum(R[:, k, None], R[None, k, :]), out=R)

    samples: list = []
    assigned: set = set()
    for i, leg in enumerate(legs):
        for step, point in enumerate(leg):
            key = space.point_key(point)
            if key not in assigned:
                assigned.add(key)
                samples.append((point, i, 2 * step))

    return ApproximationTree(
        space=space,
        x0=x0,
        targets=targets,
        legs=legs,
        div2=R.tolist(),
        samples=samples,
        n_leaves=n,
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
    in doubled hops, as the tree holds them, and the worst shrink is
    scaled by rho0 / 2 once."""
    space = approx.space
    points, legs, depths = zip(*approx.samples)
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

"""Metric-oracle backends for the group actions under study.

Three immutable backends:

* FreeGroupTree     -- the Cayley tree of a free group, vertices = reduced words
* FreeProductTree   -- the Bass-Serre tree of a free product of two cyclic
                       factors with trivial edge groups; vertices are cosets
                       (coset representative, factor tag)
* FiniteHypGraph    -- a finite connected graph with its exhaustively computed
                       hyperbolicity constant and an optional isometric action
                       given by adjacency-preserving vertex permutations

Every backend counts edges with an integer `hops(x, y)`; distances are the
exact `Fraction`s `hops(x, y) * rho0`, integer multiples of the edge length
rho0.  Infinite backends never materialize the space.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .words import (
    FREE_PRODUCT,
    GroupElement,
    PresentationContext,
    cyclic_reduce,
    free_group,
)


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# Bass-Serre edge label of a step that changes only the vertex tag; it
# sorts with the (generator, exponent) syllable labels.
TAG_STEP = (-1, 0)


def _check_steps(k: int, length: int) -> None:
    if not 0 <= k <= length:
        raise ValueError(f"no vertex {k} edges along a geodesic of {length} edges")


@dataclass(frozen=True)
class AxisData:
    """A translation length [g] with its witness: on a tree, a segment
    along the axis of a hyperbolic g (or the fixed vertex of an elliptic
    one), and a vertex of minimal displacement."""

    element: GroupElement
    translation_length: Fraction
    is_hyperbolic: bool
    axis_segment: tuple = ()
    min_point: object = None


class ActionSpace:
    """Common interface of the metric backends."""

    delta: Fraction
    rho0: Fraction
    kappa0: Fraction
    N0: int
    context: Optional[PresentationContext]
    # the tree backends: delta = 0, and the tree-only methods `orbit_labels`,
    # `orbit_prefix` and `point_at` exist
    is_tree = False

    # subclasses implement: hops, act, geodesic, basepoint, check_point,
    # point_key, encode_point, translation_length

    def _set_scale(self, rho0, kappa0, N0) -> None:
        """Store the edge length rho0, the acylindricity distance kappa0
        (default rho0) and the count N0, each checked positive."""
        self.rho0 = _as_fraction(rho0)
        if self.rho0 <= 0:
            raise ValueError("rho0 must be positive")
        self.kappa0 = _as_fraction(kappa0) if kappa0 is not None else self.rho0
        if self.kappa0 <= 0:
            raise ValueError("kappa0 must be positive")
        if N0 < 1:
            raise ValueError("N0 must be a positive integer")
        self.N0 = N0

    def dist(self, x, y) -> Fraction:
        return self.hops(x, y) * self.rho0

    def gromov_product(self, p, q, x) -> Fraction:
        return Fraction(self.hops(p, x) + self.hops(q, x) - self.hops(p, q), 2) * self.rho0

    def steps(self, length: Fraction) -> int:
        """Convert a length to an edge count; errors if not representable."""
        q = _as_fraction(length) / self.rho0
        if q.denominator != 1 or q < 0:
            raise ValueError(f"length {length} is not a multiple of rho0")
        return int(q)

    def hull_points(self, points: Sequence) -> list:
        """Vertices of the convex hull of the given points (tree backends:
        union of geodesics from the first point; convex because tree
        geodesics to a common point cover all pairwise geodesics)."""
        if not points:
            return []
        seen = {}
        base = points[0]
        for p in points:
            for v in self.geodesic(base, p):
                seen.setdefault(self.point_key(v), v)
        return [seen[k] for k in sorted(seen)]


class FreeGroupTree(ActionSpace):
    """Cayley tree of a free group; vertices are the group elements."""

    is_tree = True

    def __init__(self, rank: int, rho0=1, kappa0=None, N0: int = 1):
        self.context = free_group(rank)
        self._set_scale(rho0, kappa0, N0)
        self.delta = Fraction(0)

    def __repr__(self):
        return f"FreeGroupTree(rank={self.context.rank}, rho0={self.rho0})"

    def basepoint(self) -> GroupElement:
        return self.context.identity()

    def check_point(self, x) -> None:
        if not isinstance(x, GroupElement) or x.context != self.context:
            raise ValueError(f"{x!r} is not a vertex of {self!r}")

    def point_key(self, x) -> tuple:
        return x.sort_key()

    def encode_point(self, x) -> str:
        return str(x)

    def hops(self, x, y) -> int:
        return x.offset_length(y)

    # each backend binds the one `dist` in its own namespace, where perfbench's
    # traced run counts calls per backend class
    dist = ActionSpace.dist

    def act(self, g: GroupElement, x) -> GroupElement:
        if g.context != self.context:
            raise ValueError("group element from a different context")
        return g * x

    def geodesic(self, x, y) -> list:
        w = x.offset(y)
        points = [x]
        cur = x
        for g, s in w.letters():
            cur = cur * GroupElement(self.context, ((g, s),))
            points.append(cur)
        return points

    def point_at(self, x, y, k: int) -> GroupElement:
        """`geodesic(x, y)[k]`, without building the rest of the geodesic."""
        w = x.offset(y)
        _check_steps(k, w.word_length())
        prefix = []
        for g, e in w.syllables:
            if k == 0:
                break
            take = min(k, abs(e))
            prefix.append((g, take if e > 0 else -take))
            k -= take
        return x * GroupElement(self.context, tuple(prefix))

    def orbit_labels(self, g: GroupElement, x) -> tuple[tuple, tuple]:
        """Edge labels of [x, g x] and of [x, g^-1 x]: the letters of
        x^-1 g x and of its inverse (g x)^-1 x (`orbit_prefix` of every
        label).  Two geodesics from x share exactly k edges when their
        labels share a prefix of length k."""
        return self.orbit_prefix(g, x, sys.maxsize)[1:]

    def orbit_prefix(self, g: GroupElement, x, k: int) -> tuple[int, tuple, tuple]:
        """`(n, out[:k], back[:k])` for `(out, back) = orbit_labels(g, x)`
        and n = len(out) = hops(x, g x), read from the normal forms of x
        and g x past their common prefix (`GroupElement.fork_letters_head`)
        without spelling more of either path than its first k labels."""
        return x.fork_letters_head(g * x, k)

    def translation_length(self, g: GroupElement) -> AxisData:
        """[g] exactly, via cyclic reduction: the axis segment is a
        fundamental domain [p, gp] through a minimal-displacement vertex."""
        core, conj = cyclic_reduce(g)
        length = core.word_length() * self.rho0
        if length == 0:
            return AxisData(g, Fraction(0), False, (conj,), conj)
        end = self.act(g, conj)
        if self.dist(conj, end) != length:
            raise RuntimeError("free group translation length mismatch")
        return AxisData(g, length, True, tuple(self.geodesic(conj, end)), conj)


class FreeProductTree(ActionSpace):
    """Bass-Serre tree of a free product of two cyclic factors.

    Vertices are cosets w*G_tag encoded as (representative, tag) where the
    representative's normal form does not end in a factor-tag syllable.
    Every edge has length rho0 and trivial stabilizer, so the action is
    (kappa, 1)-acylindrical for any kappa > 0.
    """

    is_tree = True

    def __init__(self, orders, rho0=1, kappa0=None, N0: int = 1):
        orders = tuple(orders)
        if len(orders) != 2:
            raise ValueError(
                "the Bass-Serre backend supports exactly two factors; "
                "use words.free_product for bare arithmetic with more"
            )
        self.context = PresentationContext(FREE_PRODUCT, orders=orders)
        self._set_scale(rho0, kappa0, N0)
        self.delta = Fraction(0)

    def __repr__(self):
        return f"FreeProductTree({self.context}, rho0={self.rho0})"

    def vertex(self, w: GroupElement, tag: int):
        """Canonical vertex for the coset w * G_tag."""
        if w.context != self.context or tag not in (0, 1):
            raise ValueError("bad coset data")
        if w.syllables and w.syllables[-1][0] == tag:
            w = GroupElement(self.context, w.syllables[:-1])
        return (w, tag)

    def basepoint(self):
        return (self.context.identity(), 0)

    def check_point(self, x) -> None:
        if (
            not isinstance(x, tuple)
            or len(x) != 2
            or not isinstance(x[0], GroupElement)
            or (x[0].context is not self.context and x[0].context != self.context)
            or x[1] not in (0, 1)
            or (x[0].syllables and x[0].syllables[-1][0] == x[1])
        ):
            raise ValueError(f"{x!r} is not a canonical vertex of {self!r}")

    def point_key(self, x) -> tuple:
        w, tag = x
        return (w.syllable_count, str(w), tag)

    def encode_point(self, x) -> str:
        return f"{x[0]}|{x[1]}"

    def act(self, g: GroupElement, x):
        if g.context != self.context:
            raise ValueError("group element from a different context")
        return self.vertex(g * x[0], x[1])

    @staticmethod
    def _labels(start_tag: int, syllables: tuple, end_tag: int) -> tuple:
        """Edge labels of the geodesic from (1, start_tag) to (w, end_tag),
        for the normal form `syllables` of w.  An edge is labelled by the
        syllable it consumes, or by `TAG_STEP` when it only changes the tag.
        A trailing syllable of end_tag stays inside the end coset; normal
        forms alternate factors, so only the first edge can be tag-only."""
        if syllables and syllables[-1][0] == end_tag:
            syllables = syllables[:-1]
        if not syllables:
            return () if start_tag == end_tag else (TAG_STEP,)
        if syllables[0][0] != start_tag:
            return (TAG_STEP,) + syllables
        return syllables

    def _path(self, x, y) -> tuple:
        """Edge labels of the geodesic [x, y]."""
        self.check_point(x)
        self.check_point(y)
        return self._labels(x[1], x[0].offset(y[0]).syllables, y[1])

    def hops(self, x, y) -> int:
        return len(self._path(x, y))

    # each backend binds the one `dist` in its own namespace, where perfbench's
    # traced run counts calls per backend class
    dist = ActionSpace.dist

    def geodesic(self, x, y) -> list:
        points = [x]
        prefix, side = x
        for label in self._path(x, y):
            if label != TAG_STEP:
                prefix = prefix * GroupElement(self.context, (label,))
            side = 1 - side
            points.append(self.vertex(prefix, side))
        if points[-1] != y:
            raise RuntimeError("geodesic endpoint mismatch")
        return points

    def point_at(self, x, y, k: int):
        """`geodesic(x, y)[k]`, without building the rest of the geodesic."""
        labels = self._path(x, y)
        _check_steps(k, len(labels))
        consumed = tuple(label for label in labels[:k] if label != TAG_STEP)
        return self.vertex(x[0] * GroupElement(self.context, consumed), x[1] ^ (k % 2))

    def orbit_labels(self, g: GroupElement, x) -> tuple[tuple, tuple]:
        """Edge labels of [x, g x] and of [x, g^-1 x], from the conjugate
        w^-1 g w and its inverse (g w)^-1 w, where x = (w, tag)
        (`orbit_prefix` of every label).  Two geodesics from x share
        exactly k edges when their labels share a prefix of length k."""
        return self.orbit_prefix(g, x, sys.maxsize)[1:]

    def orbit_prefix(self, g: GroupElement, x, k: int) -> tuple[int, tuple, tuple]:
        """`(n, out[:k], back[:k])` for `(out, back) = orbit_labels(g, x)`
        and n = len(out) = hops(x, g x), from the syllable count of
        c = w^-1 g w and the first k + 1 syllables of c and of c^-1
        (`GroupElement.fork_head`).  `_labels` of a head drops at most its
        last syllable, which no label of the first k reads."""
        w, tag = x
        count, there, back = w.fork_head(g * w, k + 1)
        if not count:
            return 0, (), ()
        # c^-1 begins in the factor that c ends in; a last syllable of the
        # tag's factor stays inside the coset, and a first one of the other
        # factor takes a tag-only edge first
        n = count - (back[0][0] == tag)
        if n:
            n += there[0][0] != tag
        return n, self._labels(tag, there, tag)[:k], self._labels(tag, back, tag)[:k]

    def translation_length(self, g: GroupElement) -> AxisData:
        """[g] exactly, via cyclic reduction: an elliptic g fixes a vertex;
        a hyperbolic one translates by its cyclic syllable count, and the
        axis segment is a fundamental domain [p, gp]."""
        core, conj = cyclic_reduce(g)
        m = core.syllable_count
        if m <= 1:
            fixed = self.vertex(conj, core.first_factor() if m else 0)
            if self.act(g, fixed) != fixed:
                raise RuntimeError("elliptic element moves its fixed vertex")
            return AxisData(g, Fraction(0), False, (fixed,), fixed)
        anchor = self.vertex(conj, 1 - core.first_factor())
        end = self.act(g, anchor)
        length = self.dist(anchor, end)
        if length != m * self.rho0:
            raise RuntimeError("free product translation length mismatch")
        return AxisData(g, length, True, tuple(self.geodesic(anchor, end)), anchor)


# why a finite graph gets no product-set certificate: its orbits are bounded,
# so none of its isometries is loxodromic
NO_HYPERBOLIC_ELEMENT = (
    "a finite graph has no hyperbolic element: every isometry of it has finite order"
)


class FiniteHypGraph(ActionSpace):
    """A finite connected graph with exact four-point hyperbolicity constant.

    An optional group action is supplied as adjacency-preserving vertex
    permutations; group elements are then words in the free group over those
    generators, acting through the permutations.
    """

    def __init__(
        self,
        n_vertices: int,
        edges: Iterable[tuple[int, int]],
        generators: Sequence[Sequence[int]] = (),
        rho0=1,
        kappa0=None,
        N0: int = 1,
    ):
        self.n = n_vertices
        self.edges = sorted({(min(i, j), max(i, j)) for i, j in edges})
        for i, j in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n) or i == j:
                raise ValueError(f"bad edge ({i},{j})")
        self._set_scale(rho0, kappa0, N0)

        self._adj = [[] for _ in range(self.n)]
        for i, j in self.edges:
            self._adj[i].append(j)
            self._adj[j].append(i)
        for nbrs in self._adj:
            nbrs.sort()

        self._hops = self._all_pairs_hops()
        if any(self.n + 1 in row for row in self._hops):
            raise ValueError("graph is disconnected")

        self.delta = self._four_point_delta()
        self.kappa0 = max(self.delta, self.kappa0)

        self.generators = [tuple(p) for p in generators]
        for p in self.generators:
            self._check_permutation(p)
        self.context = free_group(len(self.generators)) if self.generators else None
        self._inverse_perms = [self._invert(p) for p in self.generators]
        self._pred_cache: dict[int, list[int]] = {}

    def __repr__(self):
        return f"FiniteHypGraph({self.n} vertices, delta={self.delta})"

    def _check_permutation(self, p):
        if sorted(p) != list(range(self.n)):
            raise ValueError("generator is not a vertex permutation")
        edge_set = set(self.edges)
        for i, j in self.edges:
            im = (min(p[i], p[j]), max(p[i], p[j]))
            if im not in edge_set:
                raise ValueError("generator permutation does not preserve adjacency")

    @staticmethod
    def _invert(p):
        q = [0] * len(p)
        for i, v in enumerate(p):
            q[v] = i
        return tuple(q)

    def _all_pairs_hops(self) -> list[list[int]]:
        """Hop counts by one BFS per source, n + 1 where unreachable."""
        hops = []
        for s in range(self.n):
            row = [self.n + 1] * self.n
            row[s] = 0
            frontier = [s]
            d = 0
            while frontier:
                d += 1
                nxt = []
                for u in frontier:
                    for v in self._adj[u]:
                        if row[v] > d:
                            row[v] = d
                            nxt.append(v)
                frontier = nxt
            hops.append(row)
        return hops

    def _four_point_delta(self) -> Fraction:
        """Max over quadruples of the four-point defect, by (max, min) products
        per base point w (Fournier, Ismail and Vigneron, IPL 2015).  With G =
        2 (.|.)_w, min(G[x,y], G[y,z]) - G[x,z] = S2 - max(S1, S3) for the sums
        S1 = d(w,x) + d(y,z), S2 = d(w,y) + d(x,z), S3 = d(w,z) + d(x,y), so its
        max is the gap of the two largest pairing sums, in integer hops (the
        result may be a half-integer times rho0); n^4 time, 4 n^3 bytes."""
        import numpy as np

        D = np.array(self._hops, dtype=np.int32)
        gap = 0
        for w in range(self.n):
            G = D[w, :, None] + D[w, None, :] - D
            widest = np.minimum(G[:, None, :], G[None, :, :]).max(axis=2)
            gap = max(gap, int((widest - G).max()))
        return Fraction(gap, 2) * self.rho0

    def basepoint(self) -> int:
        return 0

    def check_point(self, x) -> None:
        if not isinstance(x, int) or not 0 <= x < self.n:
            raise ValueError(f"{x!r} is not a vertex id in 0..{self.n - 1}")

    def point_key(self, x) -> tuple:
        return (x,)

    def encode_point(self, x) -> str:
        return f"v{x}"

    def hops(self, x, y) -> int:
        self.check_point(x)
        self.check_point(y)
        return self._hops[x][y]

    # each backend binds the one `dist` in its own namespace, where perfbench's
    # traced run counts calls per backend class
    dist = ActionSpace.dist

    def act(self, g: GroupElement, x) -> int:
        if self.context is None or g.context != self.context:
            raise ValueError("graph has no matching group action")
        self.check_point(x)
        for gen, exp in reversed(g.syllables):
            perm = self.generators[gen] if exp > 0 else self._inverse_perms[gen]
            for _ in range(abs(exp)):
                x = perm[x]
        return x

    def _predecessors(self, s: int) -> list[int]:
        """Smallest-id BFS predecessor of every vertex, from source s."""
        if s in self._pred_cache:
            return self._pred_cache[s]
        pred = [-1] * self.n
        hops = self._hops[s]
        for v in range(self.n):
            if v == s:
                continue
            for u in self._adj[v]:
                if hops[u] == hops[v] - 1:
                    pred[v] = u
                    break
        self._pred_cache[s] = pred
        return pred

    def geodesic(self, x, y) -> list:
        self.check_point(x)
        self.check_point(y)
        pred = self._predecessors(x)
        path = [y]
        while path[-1] != x:
            path.append(pred[path[-1]])
        path.reverse()
        return path

    def translation_length(self, g: GroupElement) -> AxisData:
        """The minimum displacement as an exhaustive minimum over vertices,
        with the least vertex attaining it.  No element is hyperbolic: g
        permutes finitely many vertices, so it has finite order."""
        least, argmin = min((self.hops(v, self.act(g, v)), v) for v in range(self.n))
        return AxisData(g, least * self.rho0, False, min_point=argmin)


def estimate_delta(space: FiniteHypGraph) -> Fraction:
    """The minimal delta satisfying the four-point condition over every
    vertex quadruple, recomputed exhaustively (construction already stores
    it in `space.delta`; this is the query surface and the recheck)."""
    if not isinstance(space, FiniteHypGraph):
        raise ValueError("estimate_delta is defined for finite graph backends")
    value = space._four_point_delta()
    if value != space.delta:
        raise RuntimeError(
            f"stored delta {space.delta} differs from the recomputed {value}"
        )
    return value


def cycle_graph(n: int, rho0=1) -> FiniteHypGraph:
    """The n-cycle, with the rotation-by-one permutation as generator."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    rot = [(i + 1) % n for i in range(n)]
    return FiniteHypGraph(n, edges, [rot], rho0=rho0)


def random_connected_graph(rng: random.Random, n_max: int = 40) -> FiniteHypGraph:
    """A seeded random connected graph on 4..n_max vertices: a random
    spanning tree plus up to n extra edges, with no group action."""
    n = rng.randint(4, n_max)
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        j = rng.choice(order[:i])
        edges.add((min(order[i], j), max(order[i], j)))
    for _ in range(rng.randint(0, n)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return FiniteHypGraph(n, edges)


def load_graph(data: dict, rho0=1, kappa0=None, N0: int = 1) -> FiniteHypGraph:
    """Build a graph backend from adjacency-list JSON:
    {"vertices": n, "edges": [[i,j],...], "generators": [perm,...]}."""
    required = {"vertices", "edges"}
    allowed = required | {"generators"}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown graph keys: {sorted(unknown)}")
    if not required <= set(data):
        raise ValueError("graph spec needs 'vertices' and 'edges'")
    return FiniteHypGraph(
        data["vertices"],
        [tuple(e) for e in data["edges"]],
        data.get("generators", ()),
        rho0=rho0,
        kappa0=kappa0,
        N0=N0,
    )

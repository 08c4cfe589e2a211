"""Metric-oracle backends for the group actions under study.

Three immutable backends:

* FreeGroupTree     -- the Cayley tree of a free group, vertices = reduced words
* FreeProductTree   -- the Bass-Serre tree of a free product of two cyclic
                       factors with trivial edge groups; vertices are cosets
                       (coset representative, factor tag)
* FiniteHypGraph    -- a finite connected graph with its exhaustively computed
                       hyperbolicity constant and an optional isometric action
                       given by adjacency-preserving vertex permutations

All distances are exact `Fraction`s (integer multiples of the edge length
rho0).  Infinite backends never materialize the space: sphere queries are
scoped to the convex hull of explicitly supplied points.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .words import FREE_PRODUCT, GroupElement, PresentationContext, free_group, parse

Length = Fraction


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# Bass-Serre edge label of a step that changes only the vertex tag; it
# sorts with the (generator, exponent) syllable labels.
TAG_STEP = (-1, 0)


def _check_steps(k: int, length: int) -> None:
    if not 0 <= k <= length:
        raise ValueError(f"no vertex {k} edges along a geodesic of {length} edges")


class ActionSpace:
    """Common interface of the metric backends."""

    delta: Fraction
    rho0: Fraction
    kappa0: Fraction
    N0: int
    context: Optional[PresentationContext]

    # subclasses implement: dist, act, geodesic, sphere, basepoint,
    # check_point, point_key, encode_point

    def gromov_product(self, p, q, x) -> Fraction:
        return (self.dist(p, x) + self.dist(q, x) - self.dist(p, q)) / 2

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

    def __init__(self, rank: int, rho0=1, kappa0=None, N0: int = 1):
        self.context = free_group(rank)
        self.rho0 = _as_fraction(rho0)
        if self.rho0 <= 0:
            raise ValueError("rho0 must be positive")
        self.kappa0 = _as_fraction(kappa0) if kappa0 is not None else self.rho0
        self.N0 = N0
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

    def parse_point(self, text: str) -> GroupElement:
        return parse(self.context, text)

    def dist(self, x, y) -> Fraction:
        return (x.inverse() * y).word_length() * self.rho0

    def act(self, g: GroupElement, x) -> GroupElement:
        if g.context != self.context:
            raise ValueError("group element from a different context")
        return g * x

    def geodesic(self, x, y) -> list:
        w = x.inverse() * y
        points = [x]
        cur = x
        for g, s in w.letters():
            cur = cur * GroupElement(self.context, ((g, s),))
            points.append(cur)
        return points

    def point_at(self, x, y, k: int) -> GroupElement:
        """`geodesic(x, y)[k]`, without building the rest of the geodesic."""
        w = x.inverse() * y
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
        """Edge labels of [x, g x] and of [x, g^-1 x], from the one
        conjugate x^-1 g x: its letters, and the inverses of its letters
        in reverse order.  Two geodesics from x share exactly k edges when
        their labels share a prefix of length k."""
        labels = tuple((x.inverse() * g * x).letters())
        return labels, tuple((h, -s) for h, s in reversed(labels))

    def sphere(self, x, r, scope: Optional[Sequence] = None, cap: int = 200_000) -> list:
        k = self.steps(r)
        if scope is not None:
            hull = self.hull_points(list(scope) + [x])
            return [v for v in hull if self.dist(x, v) == _as_fraction(r)]
        if k == 0:
            return [x]
        m = self.context.rank
        count = 2 * m * (2 * m - 1) ** (k - 1)
        if count > cap:
            raise ValueError(f"unscoped sphere would have {count} points; pass a scope")
        out = []
        stack = [(x, None, 0)]
        letters = [
            GroupElement(self.context, ((g, s),))
            for g in range(m)
            for s in (1, -1)
        ]
        while stack:
            v, last, depth = stack.pop()
            if depth == k:
                out.append(v)
                continue
            for l in letters:
                g, s = l.syllables[0]
                if last is not None and last == (g, -s):
                    continue
                stack.append((v * l, (g, s), depth + 1))
        return sorted(out, key=self.point_key)

    def ball_size(self, x, r) -> int:
        """|B(x, r)|: vertex count of the closed ball (valence is uniform,
        so this is a closed form independent of x)."""
        k = self.steps(r)
        m = self.context.rank
        return 1 + sum(2 * m * (2 * m - 1) ** (j - 1) for j in range(1, k + 1))


class FreeProductTree(ActionSpace):
    """Bass-Serre tree of a free product of two cyclic factors.

    Vertices are cosets w*G_tag encoded as (representative, tag) where the
    representative's normal form does not end in a factor-tag syllable.
    Every edge has length rho0 and trivial stabilizer, so the action is
    (kappa, 1)-acylindrical for any kappa > 0.
    """

    def __init__(self, orders, rho0=1, kappa0=None, N0: int = 1):
        orders = tuple(orders)
        if len(orders) != 2:
            raise ValueError(
                "the Bass-Serre backend supports exactly two factors; "
                "use words.free_product for bare arithmetic with more"
            )
        self.context = PresentationContext(FREE_PRODUCT, orders=orders)
        self.rho0 = _as_fraction(rho0)
        if self.rho0 <= 0:
            raise ValueError("rho0 must be positive")
        self.kappa0 = _as_fraction(kappa0) if kappa0 is not None else self.rho0
        self.N0 = N0
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
            or x[0].context != self.context
            or x[1] not in (0, 1)
            or (x[0].syllables and x[0].syllables[-1][0] == x[1])
        ):
            raise ValueError(f"{x!r} is not a canonical vertex of {self!r}")

    def point_key(self, x) -> tuple:
        w, tag = x
        return (w.syllable_count, str(w), tag)

    def encode_point(self, x) -> str:
        return f"{x[0]}|{x[1]}"

    def parse_point(self, text: str):
        w, tag = text.rsplit("|", 1)
        return self.vertex(parse(self.context, w), int(tag))

    def act(self, g: GroupElement, x):
        if g.context != self.context:
            raise ValueError("group element from a different context")
        return self.vertex(g * x[0], x[1])

    def _edge_steps(self, start_tag: int, word: GroupElement, end_tag: int) -> int:
        steps = 0
        side = start_tag
        idx, syllables = 0, word.syllables
        while idx < len(syllables):
            if syllables[idx][0] == side:
                idx += 1
            steps += 1
            side = 1 - side
        if side != end_tag:
            steps += 1
        return steps

    def _path_word(self, x, y) -> GroupElement:
        """x[0]^-1 y[0] without a trailing syllable of y's tag: the
        syllables that the geodesic [x, y] consumes."""
        self.check_point(x)
        self.check_point(y)
        w = x[0].inverse() * y[0]
        if w.syllables and w.syllables[-1][0] == y[1]:
            w = GroupElement(self.context, w.syllables[:-1])
        return w

    def dist(self, x, y) -> Fraction:
        w = self._path_word(x, y)
        if not w.syllables and x[1] == y[1]:
            return Fraction(0)
        return self._edge_steps(x[1], w, y[1]) * self.rho0

    def geodesic(self, x, y) -> list:
        w = self._path_word(x, y)
        points = [x]
        prefix = x[0]
        side = x[1]
        idx, syllables = 0, w.syllables
        while idx < len(syllables):
            if syllables[idx][0] == side:
                prefix = prefix * GroupElement(self.context, (syllables[idx],))
                idx += 1
            side = 1 - side
            points.append(self.vertex(prefix, side))
        if side != y[1]:
            points.append(self.vertex(prefix, y[1]))
        assert points[-1] == y, "geodesic endpoint mismatch"
        return points

    def point_at(self, x, y, k: int):
        """`geodesic(x, y)[k]`, without building the rest of the geodesic."""
        w = self._path_word(x, y)
        _check_steps(k, self._edge_steps(x[1], w, y[1]))
        side = x[1]
        idx, syllables = 0, w.syllables
        for _ in range(k):
            if idx < len(syllables) and syllables[idx][0] == side:
                idx += 1
            side = 1 - side
        return self.vertex(x[0] * GroupElement(self.context, syllables[:idx]), side)

    def orbit_labels(self, g: GroupElement, x) -> tuple[tuple, tuple]:
        """Edge labels of [x, g x] and of [x, g^-1 x], from the one
        conjugate c = w^-1 g w, where x = (w, tag).  An edge is labelled by
        the syllable it consumes, or by `TAG_STEP` when it only changes the
        tag.  Two geodesics from x share exactly k edges when their labels
        share a prefix of length k."""
        w, tag = x
        c = w.inverse() * g * w
        return self._labels_from_base(c, tag), self._labels_from_base(c.inverse(), tag)

    @staticmethod
    def _labels_from_base(c: GroupElement, tag: int) -> tuple:
        """Edge labels of [(1, tag), (c, tag)]: the syllables of the coset
        representative, after one tag-only edge when the first syllable lies
        in the other factor (normal forms alternate factors, so no other
        edge is tag-only)."""
        syllables = c.syllables
        if syllables and syllables[-1][0] == tag:
            syllables = syllables[:-1]
        if syllables and syllables[0][0] != tag:
            return (TAG_STEP,) + syllables
        return syllables

    def sphere(self, x, r, scope: Optional[Sequence] = None) -> list:
        if scope is None:
            raise ValueError("FreeProductTree spheres require a scope")
        hull = self.hull_points(list(scope) + [x])
        return [v for v in hull if self.dist(x, v) == _as_fraction(r)]

    def neighbors(self, v) -> list:
        """All tree neighbors: the edges through the elements of the coset
        (finite factor orders only)."""
        word, tag = v
        order = self.context.orders[tag]
        if order is None:
            raise ValueError("infinite factor: the vertex link is infinite")
        out = [self.vertex(word, 1 - tag)]
        gen = self.context.generator(tag)
        cur = word
        for _ in range(order - 1):
            cur = cur * gen
            out.append(self.vertex(cur, 1 - tag))
        return out

    def ball_size(self, x, r) -> int:
        """|B(x, r)| by breadth-first enumeration (finite factors only)."""
        k = self.steps(r)
        seen = {self.point_key(x)}
        frontier = [x]
        for _ in range(k):
            nxt = []
            for v in frontier:
                for u in self.neighbors(v):
                    key = self.point_key(u)
                    if key not in seen:
                        seen.add(key)
                        nxt.append(u)
            frontier = nxt
        return len(seen)


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
        self.rho0 = _as_fraction(rho0)
        if self.rho0 <= 0:
            raise ValueError("rho0 must be positive")
        self.N0 = N0

        self._adj = [[] for _ in range(self.n)]
        for i, j in self.edges:
            self._adj[i].append(j)
            self._adj[j].append(i)
        for nbrs in self._adj:
            nbrs.sort()

        self._hops = self._all_pairs_hops()
        if self._hops.max(initial=0) >= self.n + 1:
            raise ValueError("graph is disconnected")

        self.delta = self._four_point_delta()
        user_kappa = _as_fraction(kappa0) if kappa0 is not None else self.rho0
        self.kappa0 = max(self.delta, user_kappa)

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

    def _all_pairs_hops(self) -> np.ndarray:
        big = self.n + 1
        hops = np.full((self.n, self.n), big, dtype=np.int64)
        for s in range(self.n):
            hops[s, s] = 0
            frontier = [s]
            d = 0
            while frontier:
                d += 1
                nxt = []
                for u in frontier:
                    for v in self._adj[u]:
                        if hops[s, v] > d:
                            hops[s, v] = d
                            nxt.append(v)
                frontier = nxt
        return hops

    def _four_point_delta(self) -> Fraction:
        """Max over quadruples of the four-point defect, via the standard
        two-largest-pairing-sums form (hops stay integer; result may be a
        half-integer times rho0)."""
        D = self._hops
        s1 = D[:, :, None, None] + D[None, None, :, :]  # d(w,x) + d(y,z)
        s2 = D[:, None, :, None] + D[None, :, None, :]  # d(w,y) + d(x,z)
        s3 = D[:, None, None, :] + D[None, :, :, None]  # d(w,z) + d(x,y)
        stack = np.stack([s1, s2, s3], axis=-1)
        stack.sort(axis=-1)
        gap = int((stack[..., 2] - stack[..., 1]).max())
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

    def parse_point(self, text: str) -> int:
        return int(text.lstrip("v"))

    def dist(self, x, y) -> Fraction:
        self.check_point(x)
        self.check_point(y)
        return int(self._hops[x, y]) * self.rho0

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

    def sphere(self, x, r, scope=None) -> list:
        self.check_point(x)
        k = self.steps(r)
        return [v for v in range(self.n) if self._hops[x, v] == k]

    def ball_size(self, x, r) -> int:
        k = self.steps(r)
        return int((self._hops[x] <= k).sum())


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

"""Reference computations the benchmark checks psgrowth against.

Nothing here imports psgrowth: every oracle works on the letter strings the
benchmark generates, so a fault in the library cannot hide behind shared
code.  Elements are written as in psgrowth's serialization: generators
``a..z``, inverses ``A..Z``; in a free product the letter of factor i
carries that factor's exponent in 1..order-1 ("aa" is the square of a).
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction

F2_LETTERS = "abAB"

# -- free groups: freely reduced strings --------------------------------------


def f2_reduce(word: str) -> str:
    """Free reduction by cancelling adjacent inverse letters."""
    out: list[str] = []
    for ch in word:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def f2_inv(word: str) -> str:
    return word[::-1].swapcase()


def f2_mul(x: str, y: str) -> str:
    """Product of two reduced words: cancellation happens only at the seam."""
    i, n = 0, min(len(x), len(y))
    while i < n and x[len(x) - 1 - i] == y[i].swapcase():
        i += 1
    return x[: len(x) - i] + y[i:]


def f2_conj(word: str, by: str) -> str:
    """by * word * by^-1."""
    return f2_mul(f2_mul(by, word), f2_inv(by))


def f2_cyclic_length(word: str) -> int:
    """Length of the cyclic reduction: the translation length of the word
    acting on the Cayley tree."""
    while len(word) >= 2 and word[0] == word[-1].swapcase():
        word = word[1:-1]
    return len(word)


def is_proper_power(word: str) -> bool:
    """Whether a cyclically reduced word is s^k for some k >= 2."""
    n = len(word)
    return any(n % d == 0 and word[:d] * (n // d) == word for d in range(1, n))


def sphere_size_f2(k: int) -> int:
    return 1 if k == 0 else 4 * 3 ** (k - 1)


def symmetric_power_size(n: int) -> int:
    """|{a,A,b,B}^n|: the reduced words of length <= n with the parity of n."""
    return sum(sphere_size_f2(k) for k in range(n % 2, n + 1, 2))


def power_levels(members, n: int, mul) -> list[set]:
    """[U, U^2, ..., U^n] by level-wise multiplication under `mul`."""
    factors = list(members)
    levels = [set(factors)]
    for _ in range(n - 1):
        levels.append({mul(x, u) for x in levels[-1] for u in factors})
    return levels


def lcp(a, b) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def max_cross_lcp(left, right) -> int:
    """max lcp(p, q) over p in left, q in right, from neighbours in one
    sorted list (the best partner of a sequence is adjacent to it)."""
    tagged = sorted([(tuple(p), 0) for p in left] + [(tuple(q), 1) for q in right])
    best = 0
    last = [None, None]
    for seq, side in tagged:
        other = last[1 - side]
        if other is not None:
            best = max(best, lcp(seq, other))
        last[side] = seq
    return best


def f2_cross_products(u1, u2, x0: str) -> tuple[int, int]:
    """Both maximal cross Gromov products ((u^-1 x0, v x0)_{x0} over u in
    u1, v in u2, and the same with the roles swapped) in the Cayley tree:
    translated to the identity, a product is a common-prefix length."""
    x0i = f2_inv(x0)

    def moved(u):
        return f2_mul(f2_mul(x0i, u), x0)

    inv1 = [moved(f2_inv(u)) for u in u1]
    inv2 = [moved(f2_inv(v)) for v in u2]
    return (
        max_cross_lcp(inv1, [moved(v) for v in u2]),
        max_cross_lcp(inv2, [moved(u) for u in u1]),
    )


def f2_displacement(u: str, x: str) -> int:
    """|x - u x| in the Cayley tree: the length of x^-1 u x."""
    return len(f2_conj(u, f2_inv(x)))


def f2_energy(members, x: str) -> Fraction:
    return Fraction(sum(f2_displacement(u, x) for u in members), len(members))


def f2_neighbours(x: str) -> list[str]:
    return [f2_mul(x, ch) for ch in F2_LETTERS]


# -- free products of two cyclic groups: syllable normal form ------------------


class FreeProduct:
    """Z/p * Z/q on syllable tuples ((factor, exponent), ...), exponents in
    1..order-1, consecutive syllables in different factors."""

    def __init__(self, orders: tuple[int, int]):
        self.orders = tuple(orders)

    def parse(self, text: str) -> tuple:
        out: list[list[int]] = []
        for ch in text:
            factor = ord(ch.lower()) - ord("a")
            self._push(out, factor, 1 if ch.islower() else -1)
        return tuple((f, e) for f, e in out)

    def _push(self, stack: list, factor: int, exp: int) -> None:
        exp %= self.orders[factor]
        if not exp:
            return
        if stack and stack[-1][0] == factor:
            merged = (stack[-1][1] + exp) % self.orders[factor]
            if merged:
                stack[-1] = [factor, merged]
            else:
                stack.pop()
        else:
            stack.append([factor, exp])

    def mul(self, x: tuple, y: tuple) -> tuple:
        stack = [list(s) for s in x]
        i = 0
        # cancellation cascades only while whole syllables vanish at the seam
        while i < len(y) and stack and stack[-1][0] == y[i][0]:
            f, e = y[i]
            merged = (stack[-1][1] + e) % self.orders[f]
            i += 1
            if merged:
                stack[-1] = [f, merged]
                break
            stack.pop()
        return tuple((f, e) for f, e in stack) + tuple(y[i:])

    def inv(self, x: tuple) -> tuple:
        return tuple((f, (-e) % self.orders[f]) for f, e in reversed(x))

    def to_str(self, x: tuple) -> str:
        return "".join(chr(ord("a") + f) * e for f, e in x) or "1"

    # Bass-Serre tree: vertex (w, tag) is the coset w * G_tag, with w not
    # ending in a syllable of factor tag.  The path from (1, t) to (w, tag)
    # changes factor once per syllable boundary, so its length is the number
    # of changes in the factor sequence t, f(s_1), ..., f(s_k), tag.

    def vertex(self, w: tuple, tag: int) -> tuple:
        if w and w[-1][0] == tag:
            w = w[:-1]
        return (w, tag)

    def act(self, g: tuple, v: tuple) -> tuple:
        return self.vertex(self.mul(g, v[0]), v[1])

    def dist(self, v: tuple, w: tuple) -> int:
        rel = self.vertex(self.mul(self.inv(v[0]), w[0]), w[1])[0]
        seq = [v[1]] + [f for f, _ in rel] + [w[1]]
        return sum(1 for a, b in zip(seq, seq[1:]) if a != b)

    def path_tokens(self, v0: tuple, v: tuple) -> tuple:
        """Edges of the geodesic from v0 to v, as one token per edge: the
        edge after i syllables of v0^-1 v is labelled by that prefix, with
        a leading marker edge when the first syllable leaves v0's factor.
        Two geodesics from v0 share exactly their common token prefix."""
        rel = self.vertex(self.mul(self.inv(v0[0]), v[0]), v[1])[0]
        first = rel[0][0] if rel else v[1]
        marker = ((-1, 0),) if first != v0[1] else ()
        return marker + rel

    def cross_products(self, u1, u2, x0: tuple) -> tuple[int, int]:
        """The two maximal cross Gromov products at x0 (see f2_cross_products)."""

        def path(g):
            return self.path_tokens(x0, self.act(g, x0))

        inv1 = [path(self.inv(u)) for u in u1]
        inv2 = [path(self.inv(v)) for v in u2]
        return (
            max_cross_lcp(inv1, [path(v) for v in u2]),
            max_cross_lcp(inv2, [path(u) for u in u1]),
        )

    def displacement(self, g: tuple, x: tuple) -> int:
        return self.dist(x, self.act(g, x))

    def energy(self, members, x: tuple) -> Fraction:
        return Fraction(sum(self.displacement(u, x) for u in members), len(members))

    def neighbours(self, v: tuple) -> list[tuple]:
        w, tag = v
        gen = ((tag, 1),)
        out, cur = [], w
        for _ in range(self.orders[tag]):
            out.append(self.vertex(cur, 1 - tag))
            cur = self.mul(cur, gen)
        return out


# -- finite graphs ---------------------------------------------------------------


def bfs_distances(n: int, edges) -> list[list[int]]:
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    table = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        table.append(dist)
    return table


def four_point_delta(d: list[list[int]]) -> Fraction:
    """Half the largest gap between the two largest of the three pairing
    sums, over all quadruples of distinct vertices (a repeated vertex gives
    gap 0 by the triangle inequality)."""
    best = 0
    for w, x, y, z in itertools.combinations(range(len(d)), 4):
        dw, dx, dy = d[w], d[x], d[y]
        s1 = dw[x] + dy[z]
        s2 = dw[y] + dx[z]
        s3 = dw[z] + dx[y]
        if s1 < s2:
            s1, s2 = s2, s1
        if s2 < s3:
            s2, s3 = s3, s2
            if s1 < s2:
                s1, s2 = s2, s1
        if s1 - s2 > best:
            best = s1 - s2
    return Fraction(best, 2)


def within_log_bound(shrink: Fraction, delta: Fraction, n: int) -> bool:
    """shrink <= 2 delta (log2 n + 1), decided with integers only:
    with q = shrink / (2 delta) - 1 = a/b > 0 it is 2^a <= n^b."""
    if shrink <= 0:
        return True
    if delta == 0:
        return False
    q = Fraction(shrink) / (2 * delta) - 1
    if q <= 0:
        return True
    return 2**q.numerator <= n**q.denominator


def tree_distances(parent: list[int], edge_length: list[Fraction], nodes) -> dict:
    """Pairwise distances between the given nodes of a rooted tree given by
    parent pointers."""
    depth: dict[int, Fraction] = {}

    def depth_of(i: int) -> Fraction:
        if i not in depth:
            depth[i] = Fraction(0) if parent[i] < 0 else depth_of(parent[i]) + edge_length[i]
        return depth[i]

    def ancestors(i: int) -> list[int]:
        out = [i]
        while parent[out[-1]] >= 0:
            out.append(parent[out[-1]])
        return out

    anc = {i: ancestors(i) for i in nodes}
    out = {}
    for i, j in itertools.combinations(nodes, 2):
        seen = set(anc[i])
        meet = next(k for k in anc[j] if k in seen)
        out[i, j] = depth_of(i) + depth_of(j) - 2 * depth_of(meet)
    return out

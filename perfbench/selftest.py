"""Self-test of the reference code on cases small enough to check by hand.

    python3 perfbench/selftest.py

Runs without psgrowth and without the workloads; run.py also runs it
before every benchmark run, so a broken oracle can never pass a check.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402


def cases():
    # free reduction, products, inverses
    yield ref.f2_reduce("aAbB"), ""
    yield ref.f2_reduce("abBA"), ""
    yield ref.f2_reduce("abAB"), "abAB"
    yield ref.f2_mul("ab", "Ba"), "aa"
    yield ref.f2_mul("abA", "aB"), "a"
    yield ref.f2_mul("abA", "aBA"), ""
    yield ref.f2_inv("abA"), "aBA"
    yield ref.f2_conj("b", "a"), "abA"
    yield ref.f2_cyclic_length("abA"), 1
    yield ref.f2_cyclic_length("abab"), 4
    yield [ref.is_proper_power(w) for w in ("abab", "aaa", "ab", "aab")], [True, True, False, False]
    # {a,A,b,B}^n: 4 words, then 12 of length 2 plus the identity, then
    # 4 + 36 of lengths 1 and 3
    yield [ref.symmetric_power_size(n) for n in (1, 2, 3)], [4, 13, 40]
    yield ([len(level) for level in ref.power_levels(list("abAB"), 6, ref.f2_mul)],
           [ref.symmetric_power_size(n) for n in range(1, 7)])
    # U_1 = {A, 1, a, b}: U^2 = {AA, A, 1, Ab, a, aa, ab, b, bA, ba, bb}
    yield [len(level) for level in ref.power_levels(["A", "", "a", "b"], 2, ref.f2_mul)], [4, 11]
    # Cayley-tree Gromov products at x0 are common-prefix lengths:
    # (u^-1, v)_1 for u = ab, v = BAb is lcp(BA, BAb) = 2
    yield ref.f2_cross_products(["ab"], ["BAb"], ""), (2, 0)
    yield ref.f2_cross_products(["ab"], ["aB"], ""), (0, 0)
    # moving the base point to x0 = a conjugates: a^-1 (ab)^-1 a = AB and
    # a^-1 ab a = ba share no prefix
    yield ref.f2_cross_products(["ab"], ["ab"], "a"), (0, 0)
    yield ref.f2_displacement("ab", ""), 2
    yield ref.f2_displacement("abA", "a"), 1
    yield ref.f2_energy(["ab", "abA"], ""), Fraction(5, 2)
    yield ref.f2_neighbours("a"), ["aa", "ab", "", "aB"]

    fp = ref.FreeProduct((5, 7))
    yield fp.parse("aaaaa"), ()
    yield fp.parse("A"), ((0, 4),)
    yield fp.parse("abBa"), ((0, 2),)
    yield fp.mul(fp.parse("ab"), fp.parse("bbbbbba")), ((0, 2),)
    yield fp.mul(fp.parse("aab"), fp.parse("Baaaa")), ((0, 1),)
    yield fp.inv(fp.parse("abb")), ((1, 5), (0, 4))
    yield fp.to_str(fp.parse("AB")), "aaaabbbbbb"
    ab = [fp.parse("a"), fp.parse("b")]
    yield [len(level) for level in ref.power_levels(ab, 2, fp.mul)], [2, 4]
    # Bass-Serre tree of Z/5 * Z/7 from A = (1, 0): B is adjacent, aB is
    # adjacent through the edge a, bA is two steps away through B
    base = ((), 0)
    yield fp.dist(base, ((), 1)), 1
    yield fp.dist(base, fp.vertex(fp.parse("a"), 1)), 1
    yield fp.dist(base, fp.vertex(fp.parse("b"), 0)), 2
    yield fp.dist(base, fp.vertex(fp.parse("ab"), 0)), 2
    yield fp.displacement(fp.parse("ab"), base), 2
    yield len(fp.neighbours(base)), 5
    yield len(fp.neighbours(((), 1))), 7
    # geodesics A -> B -> b^6 A and A -> B -> b^2 A share the edge A-B
    yield fp.cross_products([fp.parse("b")], [fp.parse("bb")], base), (1, 1)
    yield fp.cross_products([fp.parse("a")], [fp.parse("b")], base), (0, 0)

    # graphs: the path 0-1-2-3 is a tree (delta 0); the 4-cycle has
    # pairing sums 2, 4, 2, so delta = (4 - 2) / 2 = 1
    path = ref.bfs_distances(4, [(0, 1), (1, 2), (2, 3)])
    yield path[0], [0, 1, 2, 3]
    yield ref.four_point_delta(path), Fraction(0)
    yield ref.four_point_delta(ref.bfs_distances(4, [(0, 1), (1, 2), (2, 3), (3, 0)])), Fraction(1)
    # 2 delta (log2 n + 1) with delta = 1, n = 2 is exactly 4
    yield ([ref.within_log_bound(Fraction(s), Fraction(1), 2) for s in (0, 4, 5)],
           [True, True, False])
    yield ref.within_log_bound(Fraction(1), Fraction(0), 8), False
    yield ref.tree_distances([-1, 0, 0, 1], [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2)],
                             [1, 2, 3]), {(1, 2): 3, (1, 3): Fraction(1, 2), (2, 3): Fraction(7, 2)}


def run() -> int:
    failures = 0
    for index, (got, want) in enumerate(cases()):
        if got != want:
            failures += 1
            print(f"reference self-test case {index}: got {got!r}, want {want!r}", file=sys.stderr)
    return failures


if __name__ == "__main__":
    bad = run()
    print("reference self-test:", "ok" if not bad else f"{bad} failed")
    sys.exit(1 if bad else 0)

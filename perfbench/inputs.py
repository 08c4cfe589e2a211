"""Seeded input generation: element strings, edge lists and CLI configs.

Everything is derived from the workload seed with `random.Random` seeded by
a string (hashed with SHA-512, so independent of PYTHONHASHSEED); psgrowth's
own random samplers are never used.  Sizes are fixed per workload, so the
seed changes which elements and graphs are drawn, not how much work a round
does.
"""

from __future__ import annotations

import random

from reference import F2_LETTERS, FreeProduct, f2_conj, f2_inv, f2_mul, f2_reduce, is_proper_power

Z57 = (5, 7)
FP = FreeProduct(Z57)


def rng_for(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


def f2_word(rng: random.Random, length: int) -> str:
    out: list[str] = []
    while len(out) < length:
        ch = rng.choice(F2_LETTERS)
        if not out or out[-1] != ch.swapcase():
            out.append(ch)
    return "".join(out)


def random_set(rng: random.Random, make, size: int, lo: int, hi: int) -> list[str]:
    """`size` distinct words of random lengths in lo..hi."""
    members: set[str] = set()
    while len(members) < size:
        members.add(make(rng, rng.randint(lo, hi)))
    return sorted(members)


def distinct_words(rng: random.Random, make, lengths) -> list[str]:
    """One word of each listed length, all distinct: a fixed total length
    keeps the work and memory of a product set the same across seeds."""
    members: set[str] = set()
    for n in lengths:
        word = make(rng, n)
        while word in members:
            word = make(rng, n)
        members.add(word)
    return sorted(members)


def fp_word(rng: random.Random, syllables: int) -> str:
    """A Z/5 * Z/7 normal form with the given number of syllables."""
    factor = rng.randrange(2)
    text = ""
    for _ in range(syllables):
        text += chr(ord("a") + factor) * rng.randint(1, Z57[factor] - 1)
        factor = 1 - factor
    return text


def connected_graph(rng: random.Random, n: int, extra: int) -> list[list[int]]:
    """A random spanning tree on n vertices plus `extra` further edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        j = rng.choice(order[:i])
        edges.add((min(order[i], j), max(order[i], j)))
    while len(edges) < n - 1 + extra:
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return [list(e) for e in sorted(edges)]


# -- enumerate ---------------------------------------------------------------------


def safin_strings(g: str, h: str, N: int) -> list[str]:
    """The optimality family {g^-N, ..., 1, ..., g^N, h} as strings."""
    powers = [(g if k > 0 else f2_inv(g)) * abs(k) or "1" for k in range(-N, N + 1)]
    return powers + [h]


def enumerate_inputs(seed: int) -> dict:
    rng = rng_for(seed, "enumerate")
    # the family over a random pair of signed generators (an automorphic
    # image of {a^-N..a^N, b}, so its counts do not depend on the seed)
    g = rng.choice(F2_LETTERS)
    h = rng.choice([ch for ch in F2_LETTERS if ch.lower() != g.lower()])
    return {
        "safin_n4": safin_strings(g, h, 12),
        "safin_n5": safin_strings(g, h, 8),
        "symmetric": list(F2_LETTERS),
        "fp_product": distinct_words(rng, fp_word, [1, 2, 3] * 4),
        "fp_growth": distinct_words(rng, fp_word, [1, 2, 3] * 5),
        "cli_growth": {
            "command": "growth",
            "space": {"backend": "free_group", "rank": 2},
            "set": {"kind": "explicit",
                    "elements": distinct_words(rng, f2_word, [4, 5, 6, 7, 8] * 10)},
            "mode": {"name": "paper"},
            "n_max": 3,
            "seed": seed,
        },
    }


# -- certify_tree ------------------------------------------------------------------


def _cyclic_root(rng: random.Random, lo: int, hi: int) -> str:
    """A cyclically reduced word that is not a proper power."""
    while True:
        w = f2_word(rng, rng.randint(lo, hi))
        if w[0] != w[-1].swapcase() and not is_proper_power(w):
            return w


def equation_system(rng: random.Random) -> dict:
    """Two reduced-product equations u_i v w_i = g with u_i, v, g powers of
    one root conjugated by c, as in the paper's period extraction: the
    period recovered must be the conjugated root."""
    root = _cyclic_root(rng, 2, 4)
    i, j = rng.sample(range(1, 11), 2)
    vp = rng.randint(40, 70)
    gp = vp + rng.randint(12, 25)
    c = f2_word(rng, rng.randint(1, 3))
    v = f2_conj(root * vp, c)
    g = f2_conj(root * gp, c)
    eqs = []
    for e in (i, j):
        u = f2_conj(root * e, c)
        w = f2_mul(f2_mul(f2_inv(v), f2_inv(u)), g)
        eqs.append([u, v, w])
    return {"root": f2_conj(root, c), "base": c, "equations": eqs}


# ping-pong instances that certify, taken to a seeded automorphic image:
# a signed letter permutation of F_2 and the exponent automorphisms
# a -> a^i, b -> b^j of Z/5 * Z/7 are isometries fixing the base vertex, so
# the certificate survives; the powers are scaled by a seeded factor.
F2_PINGPONG = [("ab", "b", 10), ("aab", "b", 8), ("abb", "a", 6), ("a", "bab", 7)]
FP_PINGPONG = [("ab", "aa", 10), ("aabb", "a", 5), ("abb", "a", 7), ("aab", "bb", 5)]


def _f2_automorphism(rng: random.Random):
    x, y = rng.sample("ab", 2)
    image = {"a": rng.choice([x, x.upper()]), "b": rng.choice([y, y.upper()])}
    image.update({k.upper(): v.swapcase() for k, v in list(image.items())})
    return lambda w: f2_reduce("".join(image[ch] for ch in w))


def _fp_automorphism(rng: random.Random):
    mult = {"a": rng.randint(1, 4), "b": rng.randint(1, 6)}
    orders = {"a": Z57[0], "b": Z57[1]}

    def apply(w: str) -> str:
        out, i = "", 0
        while i < len(w):
            j = i
            while j < len(w) and w[j] == w[i]:
                j += 1
            ch = w[i]
            out += ch * ((j - i) * mult[ch] % orders[ch])
            i = j
        return out

    return apply


def pingpong_instances(rng: random.Random) -> list[dict]:
    out = []
    for kind, specs, auto in (
        ("free_group", F2_PINGPONG, _f2_automorphism),
        ("free_product", FP_PINGPONG, _fp_automorphism),
    ):
        for root, t, base in rng.sample(specs, 2):
            phi = auto(rng)
            root, t = phi(root), phi(t)
            k = base + rng.randint(0, 4)
            powers = [k, 2 * k, 3 * k]
            if kind == "free_group":
                elements = [f2_reduce(root * p) for p in powers]
            else:
                elements = [FP.to_str(FP.parse(root * p)) for p in powers]
            out.append({"space": kind, "root": root, "t": t, "powers": powers,
                        "elements": elements})
    return out


def fp_conj(word: str, by: str) -> str:
    c = FP.parse(by)
    return FP.to_str(FP.mul(FP.mul(c, FP.parse(word)), FP.inv(c)))


def certify_tree_inputs(seed: int) -> dict:
    rng = rng_for(seed, "certify_tree")
    f2_conjugator = f2_word(rng, 4)
    fp_conjugator = fp_word(rng, 3)
    return {
        "f2_big": random_set(rng, f2_word, 1200, 4, 12),
        # conjugated sets: their energy minimiser sits at the conjugator's
        # end, so descent takes several steps (zero on an unconjugated set)
        "f2_conj": [f2_conj(u, f2_conjugator) for u in random_set(rng, f2_word, 400, 4, 12)],
        "fp_conj": [fp_conj(u, fp_conjugator) for u in random_set(rng, fp_word, 400, 4, 8)],
        "equations": [equation_system(rng) for _ in range(8)],
        "pingpong": pingpong_instances(rng),
        "diffuse": random_set(rng, f2_word, 60, 4, 9),
        "cli_reduce": {
            "command": "reduce",
            "space": {"backend": "free_group", "rank": 2},
            "set": {"kind": "explicit", "elements": random_set(rng, f2_word, 300, 4, 10)},
            "mode": {"name": "practical", "concentration_threshold": "1",
                     "displacement_floor": "1"},
            "reduce": {"r": "1"},
            "seed": seed,
        },
    }


# -- graph -------------------------------------------------------------------------

GRAPH_SIZES = (24, 32, 40, 48)
APPROX_SIZES = (32, 40, 48)
CYCLE_SIZE = 36
CLI_GRAPH_SIZE = 28


def graph_inputs(seed: int) -> dict:
    rng = rng_for(seed, "graph")
    graphs = {n: connected_graph(rng, n, n // 2) for n in GRAPH_SIZES}
    bases = {n: rng.randrange(n) for n in APPROX_SIZES}
    steps = sorted(rng.sample(range(1, CYCLE_SIZE), 8))
    cli_edges = connected_graph(rng, CLI_GRAPH_SIZE, CLI_GRAPH_SIZE // 2)
    cli_base = rng.randrange(CLI_GRAPH_SIZE)
    return {
        "graphs": graphs,
        "approx_bases": bases,
        "rotations": ["a" * k for k in steps],
        "cli_treeapprox": {
            "command": "treeapprox",
            "space": {
                "backend": "graph",
                "graph": {"vertices": CLI_GRAPH_SIZE, "edges": cli_edges},
            },
            "treeapprox": {"base": cli_base},
        },
    }


INPUTS = {
    "enumerate": enumerate_inputs,
    "certify_tree": certify_tree_inputs,
    "graph": graph_inputs,
}

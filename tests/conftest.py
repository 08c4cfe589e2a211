import random

import pytest

from psgrowth.spaces import FiniteHypGraph, FreeGroupTree, FreeProductTree
from psgrowth.words import parse


@pytest.fixture
def f2_tree():
    return FreeGroupTree(2)


@pytest.fixture
def z5z7_tree():
    return FreeProductTree((5, 7))


@pytest.fixture
def z2z3_tree():
    return FreeProductTree((2, 3))


# the two tree backends, for Hypothesis tests that draw one by name
TREES = {"F2": FreeGroupTree(2), "Z5*Z7": FreeProductTree((5, 7))}


def make_random_connected_graph(rng: random.Random, n_max: int = 40):
    """Random connected graph: a random spanning tree plus extra edges."""
    n = rng.randint(4, n_max)
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        j = rng.choice(order[:i])
        edges.add((min(order[i], j), max(order[i], j)))
    extra = rng.randint(0, n)
    for _ in range(extra):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return FiniteHypGraph(n, edges)


def w(space_or_ctx, text):
    ctx = getattr(space_or_ctx, "context", space_or_ctx)
    return parse(ctx, text)


def random_reduced_word(rng: random.Random, ctx, length: int):
    """Uniform random reduced word of exactly the given length (free group)."""
    letters = []
    prev = None
    for _ in range(length):
        while True:
            g = rng.randrange(ctx.rank)
            s = rng.choice((1, -1))
            if prev != (g, -s):
                break
        letters.append((g, s))
        prev = (g, s)
    el = ctx.identity()
    from psgrowth.words import GroupElement

    for g, s in letters:
        el = el * GroupElement(ctx, ((g, s),))
    return el

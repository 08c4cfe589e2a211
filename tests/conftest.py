import hashlib
import json

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


def w(space_or_ctx, text):
    ctx = getattr(space_or_ctx, "context", space_or_ctx)
    return parse(ctx, text)


def tree_vertex(tree, text, tag):
    """The vertex of a word (and, on the Bass-Serre tree, a tag)."""
    g = w(tree, text)
    return g if isinstance(tree, FreeGroupTree) else tree.vertex(g, tag)


def digest(report: dict) -> str:
    """A short sha256 of a report's canonical JSON, to pin it in full."""
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()[:16]


def sun_graph(n):
    """C_n with one pendant vertex per cycle vertex, rotated together."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)]
    perm = [(i + 1) % n for i in range(n)] + [n + (i + 1) % n for i in range(n)]
    return FiniteHypGraph(2 * n, edges, [perm])

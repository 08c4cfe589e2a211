import hashlib
import json

import pytest

from psgrowth.spaces import FreeGroupTree, FreeProductTree
from psgrowth.words import ElementSet, parse, product_set


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


def ball(tree, r):
    """The ball of radius r >= 1 about 1 in a free-group tree, in shortlex
    order: the r-th power of the set of 1, the generators and their inverses."""
    ctx = tree.context
    letters = ctx.generators()
    step = ElementSet(ctx, [ctx.identity(), *letters, *(g.inverse() for g in letters)])
    return list(product_set(step, r))


def tree_vertex(tree, text, tag):
    """The vertex of a word (and, on the Bass-Serre tree, a tag)."""
    g = w(tree, text)
    return g if isinstance(tree, FreeGroupTree) else tree.vertex(g, tag)


def digest(report: dict) -> str:
    """A short sha256 of a report's canonical JSON, to pin it in full."""
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()[:16]

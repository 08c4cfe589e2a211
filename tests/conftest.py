import pytest

from psgrowth.spaces import FreeGroupTree, FreeProductTree
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

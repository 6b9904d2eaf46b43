import itertools
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from indeq.graphcore import FamilySpec, Graph

QUARTER = Fraction(-1, 4)


def fs(family, *params):
    return FamilySpec(family, tuple(params))


def grid_graph(rows, cols):
    """rows x cols grid, numbered column by column (2 x k is the ladder)."""
    edges = []
    for c in range(cols):
        for r in range(rows):
            v = c * rows + r
            if r + 1 < rows:
                edges.append((v, v + 1))
            if c + 1 < cols:
                edges.append((v, v + rows))
    return Graph.from_edges(rows * cols, edges)


@st.composite
def random_graphs(draw, max_vertices):
    """Any simple graph on up to max_vertices vertices; the edge count is
    drawn first, so empty, sparse, disconnected and dense graphs all occur."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    size = draw(st.integers(min_value=0, max_value=len(pairs)))
    return Graph.from_edges(n, draw(st.permutations(pairs))[:size])


@pytest.fixture
def quarter():
    return QUARTER

from itertools import combinations

import pytest
from hypothesis import strategies as st

from monotile.graphs import Colour, ColouredGraph, Graph
from monotile.patterns import PatternStats


@pytest.fixture(scope="session")
def k2():
    return PatternStats.from_graph(Graph.complete(2))


@pytest.fixture(scope="session")
def k3():
    return PatternStats.from_graph(Graph.complete(3))


@pytest.fixture(scope="session")
def k4():
    return PatternStats.from_graph(Graph.complete(4))


@pytest.fixture(scope="session")
def p4():
    return PatternStats.from_graph(Graph.path(4))


@st.composite
def graphs(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        edges = []
    return Graph.from_edges(n, edges)


@st.composite
def coloured_graphs(draw, min_n=1, max_n=6):
    g = draw(graphs(min_n=min_n, max_n=max_n))
    colour = {
        e: (Colour.RED if draw(st.booleans()) else Colour.BLUE) for e in sorted(g.edges)
    }
    return ColouredGraph(g, colour)


def all_colourings(g: Graph):
    """Every 2-colouring of g's edges, raw."""
    edges = sorted(g.edges)
    for bits in range(2 ** len(edges)):
        yield ColouredGraph(
            g,
            {e: (Colour.RED if (bits >> i) & 1 else Colour.BLUE) for i, e in enumerate(edges)},
        )


class CountingMasks(list):
    """Adjacency masks that count their reads (``reads``), for bounds on mask work."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

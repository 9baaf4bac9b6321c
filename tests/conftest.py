import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import strategies as st

from monotile.graphs import Colour, ColouredGraph, Graph, mask_of
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


def recheck_trace(inst, H, eta, trace):
    """Recheck a ``cluster_process`` trace on ``inst`` from the documented split
    rule, independently of the process; the last state, or None for no steps.

    Every step removes ``k`` pool vertices, at most ``k - alpha`` of them from
    the side it did not hit; both copy-accounting identities hold; the pools
    stay inside their base halves and never meet the kept vertices; and the
    loop stops below the guard ``ceil(eta^2 * s)``, with ``eta`` read as its
    shortest decimal, as the process reads it.
    """
    k, s = H.k, len(inst.x_vertices)
    half = (s // k + 1) // 2
    x1 = mask_of(v for c in inst.blue_tiling.copies[:half] for v in c.vertex_map)
    y1 = mask_of(v for c in inst.red_tiling.copies[:half] for v in c.vertex_map)
    for rec in trace:
        st = rec.state_after
        assert rec.removed_from_x + rec.removed_from_y == k
        assert rec.removed_from_y <= k - H.alpha or rec.step_type is Colour.BLUE
        assert rec.removed_from_x <= k - H.alpha or rec.step_type is Colour.RED
        removed_x = x1.bit_count() - len(st.active_x)
        removed_y = y1.bit_count() - len(st.active_y)
        assert removed_x == k * st.red_steps - len(st.saved_y) + len(st.saved_x)
        assert removed_y == k * st.blue_steps - len(st.saved_x) + len(st.saved_y)
        assert mask_of(st.active_x) & ~x1 == 0
        assert mask_of(st.active_y) & ~y1 == 0
        pools = mask_of(st.active_x) | mask_of(st.active_y)
        assert (mask_of(st.saved_x) | mask_of(st.saved_y)) & pools == 0
    if not trace:
        return None
    final = trace[-1].state_after
    assert min(len(final.active_x), len(final.active_y)) < math.ceil(Fraction(str(eta)) ** 2 * s)
    return final

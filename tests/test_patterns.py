from fractions import Fraction

import pytest
from hypothesis import given, settings

from monotile import patterns
from monotile.graphs import Graph
from monotile.oracles import independence_number_bruteforce, m2_density_bruteforce
from monotile.patterns import PatternStats, independence_number, m2_density

from .conftest import graphs


def is_matching_graph(pattern: Graph) -> bool:
    """Every component spans at most one edge, i.e. maximum degree <= 1."""
    return all(pattern.degree(v) <= 1 for v in range(pattern.n))


@pytest.mark.parametrize(
    "graph,expect",
    [
        (Graph.complete(2), Fraction(1, 2)),
        (Graph.complete(3), Fraction(2)),
        (Graph.complete(4), Fraction(5, 2)),
        (Graph.path(4), Fraction(1)),
        (Graph.matching(2), Fraction(1, 2)),
        (Graph.empty(4), Fraction(1, 2)),
        (Graph.path(3), Fraction(1)),
    ],
)
def test_m2_fixed_points(graph, expect):
    assert m2_density(graph) == expect


def test_m2_needs_a_vertex():
    with pytest.raises(ValueError):
        m2_density(Graph.empty(0))


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=6))
def test_m2_matches_edge_subset_oracle(g):
    assert m2_density(g) == m2_density_bruteforce(g)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=6))
def test_m2_below_one_iff_matching(g):
    assert (m2_density(g) < 1) == is_matching_graph(g)


def test_m2_below_one_iff_matching_exhaustive_up_to_six():
    import networkx as nx

    for nxg in nx.graph_atlas_g():
        n = nxg.number_of_nodes()
        if not 1 <= n <= 6:
            continue
        g = Graph.from_edges(n, nxg.edges())
        assert (m2_density(g) < 1) == is_matching_graph(g), g


@pytest.mark.parametrize(
    "graph,expect",
    [
        (Graph.complete(3), 1),
        (Graph.empty(4), 4),
        (Graph.path(4), 2),
        (Graph.cycle(5), 2),
        (Graph.matching(3), 3),
    ],
)
def test_independence_examples(graph, expect):
    assert independence_number(graph) == expect


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=8))
def test_independence_matches_subset_oracle(g):
    assert independence_number(g) == independence_number_bruteforce(g)


def test_independence_ceiling(monkeypatch):
    with pytest.raises(ValueError):
        independence_number(Graph.empty(21))
    monkeypatch.setattr(patterns, "INDEPENDENCE_CEILING", 25)
    assert independence_number(Graph.empty(21)) == 21


def test_pattern_stats_caches():
    stats = PatternStats.from_graph(Graph.path(4))
    assert (stats.k, stats.alpha, stats.ell) == (4, 2, 3)
    assert stats.m2 == 1
    assert stats.tiling_denominator == 6
    assert stats.m2_or_one == Fraction(1)


def test_pattern_stats_rejects_bad_cache():
    good = PatternStats.from_graph(Graph.complete(3))
    with pytest.raises(ValueError):
        PatternStats(good.pattern, k=4, alpha=good.alpha, m2=good.m2, ell=good.ell).check()

import math
from typing import Iterable

import pytest

from monotile.aux_hypergraph import AuxHypergraph, HVertex, aux_degree_check, build_aux_hypergraph
from monotile.budget import BudgetExceededError
from monotile.graphs import Colour, Graph


def shadow_graph(n: int, vertices: Iterable[HVertex]) -> Graph:
    """Project hypergraph vertices onto the host edges they mention."""
    return Graph(n, frozenset(e for e, _ in vertices))


def hyperedge_degree(aux: AuxHypergraph, subset: Iterable[HVertex]) -> int:
    """Number of hyperedges containing every element of ``subset``."""
    want = frozenset(subset)
    return sum(1 for h in aux.hyperedges if want <= h)


def test_small_build_has_eight_hyperedges(k3):
    aux = build_aux_hypergraph(4, [0, 1], [2, 3], k3)
    assert len(aux.hyperedges) == 8
    reds = [h for h in aux.hyperedges if all(c is Colour.RED for _, c in h)]
    blues = [h for h in aux.hyperedges if all(c is Colour.BLUE for _, c in h)]
    assert len(reds) == 4 and len(blues) == 4


def test_uniformity(k3, p4):
    aux = build_aux_hypergraph(6, range(3), range(3, 6), k3)
    assert all(len(h) == 3 for h in aux.hyperedges)
    aux_p4 = build_aux_hypergraph(6, range(3), range(3, 6), p4)
    assert all(len(h) == p4.ell for h in aux_p4.hyperedges)


def test_edge_count_bound_at_n10(k3):
    aux = build_aux_hypergraph(10, range(5), range(5, 10), k3)
    assert len(aux.hyperedges) <= 2**3 * 10**3


def test_partition_validation(k3):
    with pytest.raises(ValueError):
        build_aux_hypergraph(4, [0, 1], [1, 2, 3], k3)
    with pytest.raises(ValueError):
        build_aux_hypergraph(4, [0], [1, 2, 3], k3)  # unbalanced


def test_budget_refusal(k3):
    with pytest.raises(BudgetExceededError):
        build_aux_hypergraph(10, range(5), range(5, 10), k3, budget=10.0)


def test_degree_check_passes(k3, p4):
    for stats, n in ((k3, 6), (k3, 8), (p4, 6)):
        aux = build_aux_hypergraph(n, range(n // 2), range(n // 2, n), stats)
        report = aux_degree_check(aux)
        assert report.all_passed
        assert report.single_degree_refined


def test_pair_degree_bound_value_at_n8(k3):
    aux = build_aux_hypergraph(8, range(4), range(4, 8), k3)
    report = aux_degree_check(aux)
    j2 = report.checks[1]
    assert j2.j == 2
    assert j2.bound == pytest.approx(6 * 8 ** (-0.5) * 8)
    assert j2.delta <= j2.bound


def test_mixed_colour_subset_has_degree_zero(k3):
    aux = build_aux_hypergraph(6, range(3), range(3, 6), k3)
    assert hyperedge_degree(aux, [((0, 1), Colour.RED), ((0, 1), Colour.BLUE)]) == 0


def test_single_vertex_degree_positive(k3):
    aux = build_aux_hypergraph(6, range(3), range(3, 6), k3)
    assert hyperedge_degree(aux, [((0, 1), Colour.RED)]) > 0


def test_tau_value(k3, p4):
    aux = build_aux_hypergraph(6, range(3), range(3, 6), k3)
    assert aux.tau == pytest.approx(6 ** (-0.5))
    aux_p4 = build_aux_hypergraph(6, range(3), range(3, 6), p4)
    assert aux_p4.tau == pytest.approx(1 / 6)


def test_vertex_count(k3):
    aux = build_aux_hypergraph(6, range(3), range(3, 6), k3)
    assert aux.num_vertices == 2 * math.comb(6, 2)


def test_shadow_graph():
    shadow = shadow_graph(5, [((0, 1), Colour.RED), ((0, 1), Colour.BLUE), ((2, 3), Colour.BLUE)])
    assert shadow == Graph.from_edges(5, [(0, 1), (2, 3)])


def test_edgeless_pattern_rejected():
    from monotile.patterns import PatternStats

    stats = PatternStats.from_graph(Graph.empty(3))
    with pytest.raises(ValueError):
        build_aux_hypergraph(6, range(3), range(3, 6), stats)

from itertools import combinations, permutations
from typing import Iterable, Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotile import oracles
from monotile.budget import BudgetExceededError
from monotile.graphs import Colour, ColouredGraph, Edge, Graph, colour_all, normalize_edge, pattern_by_name
from monotile.oracles import (
    RAMSEY_TABLE,
    _atlas,
    atlas_graphs,
    clique_supersat_count,
    count_cliques,
    densest_t,
    exact_rt,
    good_copy_count,
    good_copy_witness_count,
    iter_colourings,
    iter_copies_bruteforce,
    max_disjoint_copies,
    max_mono_tiling_size,
    richness_decide,
)
from monotile.patterns import PatternStats

from .conftest import all_colourings, graphs


def test_good_copy_count_k6_all_red(k3):
    g = colour_all(Graph.complete(6), Colour.RED)
    assert good_copy_count(g, k3, [0, 1, 2], [3, 4, 5]) == 19
    assert good_copy_count(g, k3, [0, 2, 4], [1, 3, 5]) == 19


def test_good_copy_count_empty_graph(k3):
    g = ColouredGraph(Graph.empty(6), {})
    assert good_copy_count(g, k3, [0, 1, 2], [3, 4, 5]) == 0


def test_good_copy_count_all_blue_symmetry(k3):
    g = colour_all(Graph.complete(6), Colour.BLUE)
    assert good_copy_count(g, k3, [0, 1, 2], [3, 4, 5]) == 19


def test_good_copy_count_requires_partition(k3):
    g = colour_all(Graph.complete(4), Colour.RED)
    with pytest.raises(ValueError):
        good_copy_count(g, k3, [0, 1], [1, 2, 3])
    with pytest.raises(ValueError):
        good_copy_count(g, k3, [0, 1], [2])


def test_good_copy_budget(k3):
    g = colour_all(Graph.complete(12), Colour.RED)
    with pytest.raises(BudgetExceededError):
        good_copy_count(g, k3, range(6), range(6, 12), budget=100.0)


def test_witness_count_restricted(k3):
    g = colour_all(Graph.complete(6), Colour.RED)
    # copies confined to X+Y; a red copy must still hit X
    assert good_copy_witness_count(g, k3, [0, 1], [2, 3]) > 0
    assert good_copy_witness_count(g, k3, [], [0, 1, 2]) == 0  # red can't hit empty X


def test_max_disjoint_copies():
    assert max_disjoint_copies([0b111, 0b111000, 0b110001], 3) == 2
    assert max_disjoint_copies([], 3) == 0
    assert max_disjoint_copies([0b11, 0b110, 0b1100, 0b11000], 2) == 2


def test_max_mono_tiling_k6_all_red(k3):
    g = colour_all(Graph.complete(6), Colour.RED)
    assert max_mono_tiling_size(g, k3, Colour.RED) == 2
    assert max_mono_tiling_size(g, k3, Colour.BLUE) == 0


def test_atlas_counts():
    assert [len(atlas_graphs(n)) for n in range(8)] == [1, 1, 2, 4, 11, 34, 156, 1044]
    with pytest.raises(ValueError):
        atlas_graphs(8)


def test_atlas_lists_are_copies():
    first = atlas_graphs(4)
    first.clear()
    assert len(atlas_graphs(4)) == 11


def test_atlas_read_once_per_process(monkeypatch, k3):
    calls = []
    real = oracles.nx.graph_atlas_g

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(oracles.nx, "graph_atlas_g", counting)
    _atlas.cache_clear()
    assert exact_rt(k3, Graph.complete(6)) == exact_rt(k3, Graph.complete(6))
    assert len(calls) == 1


# Reference enumeration: every permutation of every vertex subset, with no
# cut on the number of host edges a subset spans.

def _reference_iter_copies(
    host_edges: frozenset[Edge], pattern: Graph, universe: Iterable[int]
) -> Iterator[tuple[tuple[int, ...], frozenset[Edge]]]:
    pattern_edges = sorted(pattern.edges)
    for subset in combinations(sorted(universe), pattern.n):
        seen: set[frozenset[Edge]] = set()
        for perm in permutations(subset):
            mapped = []
            ok = True
            for u, v in pattern_edges:
                e = normalize_edge(perm[u], perm[v])
                if e not in host_edges:
                    ok = False
                    break
                mapped.append(e)
            if ok:
                edge_set = frozenset(mapped)
                if edge_set not in seen:
                    seen.add(edge_set)
                    yield subset, edge_set


ENUMERATION_PATTERNS = tuple(map(pattern_by_name, ("k3", "p3", "p4", "c4", "k4", "matching-2"))) + (
    Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),  # paw
    Graph.from_edges(4, [(0, 1), (1, 2)]),  # path plus an isolated vertex
)


@st.composite
def hosts_with_universes(draw):
    g = draw(graphs(max_n=8))
    universe = draw(st.lists(st.integers(0, g.n - 1), unique=True))
    return g, universe


@settings(max_examples=200, deadline=None)
@given(hosts_with_universes(), st.sampled_from(ENUMERATION_PATTERNS))
def test_copy_enumeration_matches_reference(host_and_universe, pattern):
    g, universe = host_and_universe
    got = list(iter_copies_bruteforce(g.edges, pattern, universe))
    assert got == list(_reference_iter_copies(g.edges, pattern, universe))


def test_iter_colourings_raw_counts():
    g = Graph.complete(3)
    assert sum(1 for _ in iter_colourings(g, reduce=False)) == 8
    path = Graph.path(3)
    assert sum(1 for _ in iter_colourings(path)) == 2  # swap cut


def test_rt_fixtures(k2, k3):
    assert exact_rt(k2, Graph.complete(3)).value == 1
    assert exact_rt(k3, Graph.complete(5)).value == 0
    assert exact_rt(k3, Graph.complete(6)).value == 1


def test_rt_monotone_in_host_size(k2, k3):
    p3 = PatternStats.from_graph(Graph.path(3))
    for stats in (k2, k3, p3):
        values = [exact_rt(stats, Graph.complete(n)).value for n in range(2, 8)]
        assert values == sorted(values), (stats.pattern, values)


def test_rt_bracket_on_budget_exhaustion(k3):
    res = exact_rt(k3, Graph.complete(6), budget=5.0)
    assert not res.exact
    assert res.lower == 0 and res.upper >= 0
    with pytest.raises(ValueError):
        _ = res.value


def test_rt_general_host(k2):
    # path on 4 vertices: worst colouring alternates, max mono matching 1
    res = exact_rt(k2, Graph.path(4))
    assert res.exact and res.value == 1 and res.mode == "raw"


def test_richness_k4_not_rich(k3):
    verdict = richness_decide(Graph.complete(4), k3, 2)
    assert verdict.rich is False and verdict.mode == "exhaustive"
    assert verdict.counterexample is not None


def test_richness_k6_rich(k3):
    verdict = richness_decide(Graph.complete(6), k3, 3)
    assert verdict.rich is True and verdict.mode == "exhaustive"


def test_richness_empty_graph_not_rich(k3):
    verdict = richness_decide(Graph.empty(4), k3, 2)
    assert verdict.rich is False


def test_richness_vacuous_when_no_pairs(k3):
    verdict = richness_decide(Graph.complete(3), k3, 2)
    assert verdict.rich is True and verdict.mode == "vacuous"


def test_richness_sampled_mode(k3):
    verdict = richness_decide(Graph.complete(10), k3, 2, budget=10.0, samples=3)
    assert verdict.mode == "sampled"
    assert verdict.trials > 0
    assert verdict.rich in (None, False)


def test_clique_counts_match_binomials():
    import math

    for n in (5, 8, 10):
        for r in (2, 3, 4):
            assert count_cliques(Graph.complete(n), r) == math.comb(n, r)
    assert count_cliques(Graph.empty(5), 3) == 0
    assert count_cliques(Graph.cycle(5), 3) == 0


def test_supersat_k10_explicit_t():
    report = clique_supersat_count(Graph.complete(10), 3, t=3)
    assert report.count == 120
    assert report.hypothesis_met
    assert report.bound == pytest.approx(37.037, rel=1e-3)
    assert report.meets_bound


def test_supersat_hypothesis_not_met_flag():
    sparse = Graph.path(8)
    report = clique_supersat_count(sparse, 3)
    assert not report.hypothesis_met
    assert report.count == 0
    assert report.bound is None and report.meets_bound is None


def test_supersat_k9_minus_matching():
    g9 = Graph.complete(9)
    removed = {(0, 1), (2, 3), (4, 5), (6, 7)}
    g = Graph(9, g9.edges - removed)
    report = clique_supersat_count(g, 3)
    assert report.count == 84 - 4 * 7
    assert report.hypothesis_met and report.meets_bound


def test_densest_t_on_complete():
    assert densest_t(Graph.complete(10)) == 10
    assert densest_t(Graph.complete(4)) == 4


def test_ramsey_table_reference():
    assert RAMSEY_TABLE[(3, 3)] == 6


def test_good_copy_symmetry_sample(k3):
    # full exhaustive sweep lives in the acceptance suite
    for i, cg in enumerate(all_colourings(Graph.complete(5))):
        if i % 37:
            continue
        swapped = cg.swap_colours()
        a = good_copy_count(cg, k3, [0, 1], [2, 3, 4])
        b = good_copy_count(swapped, k3, [2, 3, 4], [0, 1])
        assert a == b

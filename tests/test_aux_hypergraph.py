import math
import tracemalloc
from collections import Counter
from itertools import combinations
from typing import Iterable

import numpy as np
import pytest

from monotile.aux_hypergraph import (
    AuxHypergraph,
    DegreeCheck,
    DegreeReport,
    HVertex,
    _bound_holds,
    aux_degree_check,
    build_aux_hypergraph,
)
from monotile.budget import BudgetExceededError
from monotile.graphs import Colour, Graph, pattern_by_name
from monotile.oracles import iter_copies_bruteforce
from monotile.patterns import PatternStats

from .test_oracles import _reference_iter_copies


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


def test_budget_refusal(k3, p4):
    with pytest.raises(BudgetExceededError):
        build_aux_hypergraph(10, range(5), range(5, 10), k3, budget=10.0)
    # 84^4 fits the default budget, but the build would hold comb(84, 4) * 12
    # images * 3 pairs codes: refused before any of them is allocated.
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="estimate 6.95e[+]07 exceeds budget 5e[+]07"):
            build_aux_hypergraph(84, range(42), range(42, 84), p4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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


# Reference build and degree check: tagged edge sets from the permutation
# enumeration, and j-subsets of hypervertices sorted by (edge, colour name)
# counted one Counter update at a time.

def _reference_hyperedges(n: int, H: PatternStats) -> frozenset[frozenset[HVertex]]:
    part_a, part_b = frozenset(range(n // 2)), frozenset(range(n // 2, n))
    hyperedges = set()
    for subset, edge_set in _reference_iter_copies(Graph.complete(n).edges, H.pattern, range(n)):
        if len(part_a.intersection(subset)) >= H.alpha:
            hyperedges.add(frozenset((e, Colour.RED) for e in edge_set))
        if len(part_b.intersection(subset)) >= H.alpha:
            hyperedges.add(frozenset((e, Colour.BLUE) for e in edge_set))
    return frozenset(hyperedges)


def _reference_aux_degree_check(aux: AuxHypergraph) -> DegreeReport:
    ell, k, n = aux.uniformity, aux.pattern.k, aux.n
    fact = math.factorial(ell)
    counters: dict[int, Counter] = {j: Counter() for j in range(1, ell + 1)}
    for h in aux.hyperedges:
        elems = sorted(h, key=lambda vc: (vc[0], vc[1].value))
        for j in range(1, ell + 1):
            for sub in combinations(elems, j):
                counters[j][sub] += 1
    checks = []
    for j in range(1, ell + 1):
        delta = max(counters[j].values(), default=0)
        passed = _bound_holds(delta, fact, n, k, j, aux.pattern.m2_or_one)
        checks.append(DegreeCheck(j, delta, fact * aux.tau ** (j - 1) * n ** (k - 2), passed))
    refined = (checks[0].delta if checks else 0) <= ell * n ** (k - 2)
    return DegreeReport(tuple(checks), refined, all(c.passed for c in checks) and refined)


@pytest.mark.parametrize(
    "pattern",
    [pattern_by_name("k3"), pattern_by_name("p4"), pattern_by_name("c4"), Graph.from_edges(4, [(0, 1), (1, 2)])],
    ids=["k3", "p4", "c4", "p3+k1"],
)
@pytest.mark.parametrize("n", [4, 6, 8])
def test_build_and_degree_check_match_reference(pattern, n):
    H = PatternStats.from_graph(pattern)
    aux = build_aux_hypergraph(n, range(n // 2), range(n // 2, n), H)
    assert aux.hyperedges == _reference_hyperedges(n, H)
    assert aux_degree_check(aux) == _reference_aux_degree_check(aux)


# Frozenset reference from the oracles' edge-set enumeration: j-degrees as a
# Counter over sorted j-subsets of each hyperedge.

def _frozenset_build_and_deltas(n: int, H: PatternStats) -> tuple[frozenset[frozenset[HVertex]], list[int]]:
    part_a, part_b = frozenset(range(n // 2)), frozenset(range(n // 2, n))
    hyperedges = set()
    for subset, edge_set in iter_copies_bruteforce(Graph.complete(n).adjacency, H.pattern, range(n)):
        if len(part_a.intersection(subset)) >= H.alpha:
            hyperedges.add(frozenset((e, Colour.RED) for e in edge_set))
        if len(part_b.intersection(subset)) >= H.alpha:
            hyperedges.add(frozenset((e, Colour.BLUE) for e in edge_set))
    deltas = []
    for j in range(1, H.ell + 1):
        counts = Counter(sub for h in hyperedges for sub in combinations(sorted(h), j))
        deltas.append(max(counts.values(), default=0))
    return frozenset(hyperedges), deltas


@pytest.mark.parametrize("name", ["k3", "p4"])
@pytest.mark.parametrize("n", [6, 12])
def test_int_rows_match_frozenset_reference(name, n):
    H = PatternStats.from_graph(pattern_by_name(name))
    aux = build_aux_hypergraph(n, range(n // 2), range(n // 2, n), H)
    hyperedges, deltas = _frozenset_build_and_deltas(n, H)
    assert aux.num_hyperedges == len(hyperedges)
    assert [check.delta for check in aux_degree_check(aux).checks] == deltas
    assert aux.hyperedges == hyperedges
    assert aux.rows.shape == (len(hyperedges), H.ell) and not aux.rows.flags.writeable


def test_degree_keys_stay_exact_past_int64():
    # K5 has 10 edges, so at n = 8 ten codes in base 2n^2 = 2^7 pass 2^63.
    H = PatternStats.from_graph(pattern_by_name("k5"))
    aux = build_aux_hypergraph(8, range(4), range(4, 8), H)
    assert (2 * 8 * 8) ** H.ell >= 2**63
    assert aux_degree_check(aux) == _reference_aux_degree_check(aux)
    # Two red rows that differ only in their first code, 3 against 5: modulo
    # 2^64 their packed 10-subsets would be equal.
    rest = [(0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 2), (1, 3), (1, 4), (1, 5)]
    rows = np.array([[(u * 8 + v) << 1 | 1 for u, v in [first] + rest] for first in ((0, 1), (0, 2))])
    crafted = AuxHypergraph(8, aux.part_a, aux.part_b, H, rows)
    assert aux_degree_check(crafted) == _reference_aux_degree_check(crafted)
    assert aux_degree_check(crafted).checks[-1].delta == 1


def test_build_peak_memory_at_n40(k3):
    tracemalloc.start()
    try:
        aux = build_aux_hypergraph(40, range(20), range(20, 40), k3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert aux.num_hyperedges == 2 * (math.comb(40, 3) - math.comb(20, 3))
    assert peak < 8 * 2**20

import ast
import gc
import math
import weakref
from itertools import combinations, permutations
from pathlib import Path
from typing import Iterable, Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotile import oracles
from monotile.budget import DEFAULT_WORK_BUDGET, BudgetExceededError
from monotile.graphs import Colour, ColouredGraph, Edge, Graph, colour_all, mask_of, normalize_edge, pattern_by_name
from monotile.oracles import (
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
    iter_disjoint_pairs,
    max_disjoint_copies,
    max_mono_tiling_size,
    richness_decide,
)
from monotile.patterns import PatternStats

from .conftest import CountingMasks, all_colourings, coloured_graphs, graphs


@pytest.mark.parametrize("module", ["oracles", "aux_hypergraph"])
def test_oracle_modules_import_only_the_substrate(module):
    """A second route calls none of the code it checks, not even from a function body."""
    tree = ast.parse(Path(oracles.__file__).with_name(f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.update([node.module] if node.module else [alias.name for alias in node.names])
    assert imported <= {"budget", "graphs", "patterns", "oracles"}, imported


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
    with pytest.raises(ValueError):
        good_copy_witness_count(g, k3, [0, 1], iter([1, 2]))


@pytest.mark.parametrize("X, Y", [((0, 99), (3, 4)), ((0, 1), (3, 6)), ((0, -1), (3, 4)), ((0, 1), (-2, 4))])
def test_witness_count_rejects_vertices_outside_the_host(k3, X, Y):
    # (0, 99), (3, 4) used to count the red triangle (0, 3, 4) once.
    g = colour_all(Graph.complete(6), Colour.RED)
    with pytest.raises(ValueError, match=r"range\(6\)"):
        good_copy_witness_count(g, k3, X, Y)


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
    real = oracles._read_atlas_table

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(oracles, "_read_atlas_table", counting)
    _atlas.cache_clear()
    assert exact_rt(k3, Graph.complete(6)) == exact_rt(k3, Graph.complete(6))
    assert len(calls) == 1


def test_atlas_table_equals_the_networkx_atlas():
    import networkx as nx

    expected: dict[int, list[Graph]] = {}
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        expected.setdefault(n, []).append(Graph.from_edges(n, g.edges()))
    regenerate = "src/monotile/atlas.txt is stale: regenerate it with scripts/build_atlas_table.py"
    for n in range(8):
        table = atlas_graphs(n)
        assert len(table) == len(expected[n]), regenerate
        for i, (ours, theirs) in enumerate(zip(table, expected[n])):
            assert ours == theirs and ours.edges == theirs.edges, f"order {n}, graph {i}: {regenerate}"


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
    got = list(iter_copies_bruteforce(g.adjacency, pattern, universe))
    assert got == list(_reference_iter_copies(g.edges, pattern, universe))


def _automorphism_count(pattern: Graph) -> int:
    return sum(
        1
        for perm in permutations(range(pattern.n))
        if frozenset(normalize_edge(perm[u], perm[v]) for u, v in pattern.edges) == pattern.edges
    )


def test_pattern_image_counts():
    counts = [len(oracles._image_pairs(pattern)[1]) for pattern in ENUMERATION_PATTERNS]
    # k3, p3, p4, c4, k4, matching-2, paw, path plus an isolated vertex
    assert counts == [1, 3, 12, 3, 1, 3, 12, 12]
    for pattern in ENUMERATION_PATTERNS:
        pairs, decoded = oracles._image_pairs(pattern)
        for image, covered in decoded.items():
            assert covered == tuple(p for bit, p in enumerate(pairs) if image >> bit & 1)
            assert len(covered) == pattern.num_edges
    for pattern, count in zip(ENUMERATION_PATTERNS, counts):
        assert count == math.factorial(pattern.n) // _automorphism_count(pattern)


# Reference counts: the per-call enumeration the copy-mask memo replaced, over
# edge frozensets, with the branch and bound that had no covered-vertex cut.

def _reference_count_good_copies(
    G: ColouredGraph,
    H: PatternStats,
    red_side: frozenset[int],
    blue_side: frozenset[int],
    universe: Iterable[int],
) -> int:
    count = 0
    for colour, side in ((Colour.RED, red_side), (Colour.BLUE, blue_side)):
        edges = frozenset(e for e, c in G.colour.items() if c is colour)
        for subset, _ in _reference_iter_copies(edges, H.pattern, universe):
            if len(side.intersection(subset)) >= H.alpha:
                count += 1
    return count


def _reference_max_disjoint_copies(copy_masks: list[int]) -> int:
    masks = sorted(set(copy_masks))
    best = 0

    def branch(index: int, used: int, size: int) -> None:
        nonlocal best
        if size + (len(masks) - index) <= best:
            return
        for i in range(index, len(masks)):
            if not masks[i] & used:
                branch(i + 1, used | masks[i], size + 1)
        best = max(best, size)

    branch(0, 0, 0)
    return best


def _reference_max_mono_tiling_size(G: ColouredGraph, H: PatternStats, colour: Colour) -> int:
    masks = []
    edges = frozenset(e for e, c in G.colour.items() if c is colour)
    for subset, _ in _reference_iter_copies(edges, H.pattern, range(G.n)):
        m = 0
        for v in subset:
            m |= 1 << v
        masks.append(m)
    return _reference_max_disjoint_copies(masks)


ENUMERATION_STATS = tuple(map(PatternStats.from_graph, ENUMERATION_PATTERNS))


@st.composite
def coloured_hosts_with_sides(draw):
    """A coloured host with each vertex put in X (0), Y (1) or neither (2)."""
    cg = draw(coloured_graphs(max_n=7))
    sides = draw(st.lists(st.sampled_from((0, 1, 2)), min_size=cg.n, max_size=cg.n))
    return cg, sides


@settings(max_examples=150, deadline=None)
@given(coloured_hosts_with_sides(), st.sampled_from(ENUMERATION_STATS))
def test_copy_mask_counts_match_reference(host_and_sides, H):
    cg, sides = host_and_sides
    X = frozenset(v for v, side in enumerate(sides) if side == 0)
    Y = frozenset(v for v, side in enumerate(sides) if side == 1)
    rest = frozenset(range(cg.n)) - X
    twin = ColouredGraph.from_masks(cg.graph, cg.red_adjacency)
    assert twin == cg and twin is not cg
    witnesses = _reference_count_good_copies(cg, H, X, Y, sorted(X | Y))
    partition = _reference_count_good_copies(cg, H, X, rest, range(cg.n))
    tilings = [_reference_max_mono_tiling_size(cg, H, c) for c in Colour]
    for g in (cg, twin):
        assert good_copy_witness_count(g, H, X, Y) == witnesses
        assert good_copy_witness_count(g, H, Y, X) == _reference_count_good_copies(cg, H, Y, X, sorted(X | Y))
        assert good_copy_count(g, H, X, rest) == partition
        assert [max_mono_tiling_size(g, H, c) for c in Colour] == tilings


def test_copy_masks_live_as_long_as_the_colouring(k3, p4):
    cg = ColouredGraph.from_masks(Graph.complete(9), Graph.path(9).adjacency)
    twin = ColouredGraph.from_masks(cg.graph, cg.red_adjacency)
    X, Y = frozenset(range(4)), frozenset(range(4, 9))
    expected = [_reference_count_good_copies(cg, H, X, Y, range(9)) for H in (k3, p4)]
    for g in (cg, twin):
        assert [good_copy_witness_count(g, H, X, Y) for H in (k3, p4)] == expected
        assert oracles._copy_masks(g, k3.pattern) is oracles._copy_masks(g, k3.pattern)
    # Each colouring holds its own lists, so nothing outside it keeps it alive.
    refs = [weakref.ref(cg), weakref.ref(twin)]
    del cg, twin, g
    gc.collect()
    assert all(ref() is None for ref in refs)


# Reference listing: a colour class swept over its own masks.

def _reference_colour_copies(G: ColouredGraph, pattern: Graph, colour: Colour) -> tuple[int, ...]:
    listed: list[int] = []
    for subset, held in oracles._iter_subset_images(G.adjacency_for(colour), pattern, range(G.n)):
        listed += [mask_of(subset)] * len(held)
    return tuple(listed)


@settings(max_examples=200, deadline=None)
@given(coloured_graphs(max_n=8), st.sampled_from(ENUMERATION_PATTERNS))
def test_copy_masks_match_colour_sweeps(cg, pattern):
    expected = tuple(_reference_colour_copies(cg, pattern, c) for c in Colour)
    assert oracles._copy_masks(cg, pattern) == expected
    assert oracles._copy_masks(cg.swap_colours(), pattern) == expected[::-1]


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("pattern", ENUMERATION_PATTERNS, ids=("k3", "p3", "p4", "c4", "k4", "matching-2", "paw", "p3+k1"))
def test_atlas_table_listings_match_colour_sweeps(n, pattern):
    host = Graph.complete(n)
    table = oracles.host_copies(host, pattern)
    assert tuple(vm for vm, _ in table) == _reference_colour_copies(colour_all(host, Colour.RED), pattern, Colour.RED)
    for cg in iter_colourings(host):
        for c in Colour:
            listing = _reference_colour_copies(cg, pattern, c)
            assert tuple(oracles._covered(table, oracles.pair_mask(cg.adjacency_for(c)))) == listing


def test_raw_exact_rt_builds_no_host_table(monkeypatch, k3):
    def refuse(*args):
        raise AssertionError("host_copies called on a raw host")

    monkeypatch.setattr(oracles, "host_copies", refuse)
    host = Graph.cycle(9)
    res = exact_rt(k3, host)
    assert res.mode == "raw" and (res.upper, res.colourings_checked, res.exact) == _reference_exact_rt(k3, host)
    assert exact_rt(k3, Graph.complete(8), budget=2000.0).mode == "raw"


def test_pair_mask_numbers_pairs_lexicographically():
    g = Graph.from_edges(5, [(0, 1), (0, 4), (1, 2), (2, 4), (3, 4)])
    pairs = list(combinations(range(5), 2))
    pm = oracles.pair_mask(g.adjacency)
    assert [pairs[b] for b in range(len(pairs)) if pm >> b & 1] == sorted(g.edges)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 2**9 - 1), max_size=12), st.integers(1, 4), st.integers(0, 5))
def test_stopped_packing_is_the_packing_cut_at_stop(masks, k, stop):
    assert max_disjoint_copies(masks, k, stop) == min(stop, max_disjoint_copies(masks, k))


# Reference tiling Ramsey sweep: both colours' full packings for every
# colouring, with the same budget accounting (no budget is the default one)
# and zero cut.

def _reference_exact_rt(H: PatternStats, G: Graph, budget: float | None = None) -> tuple[int, int, bool]:
    best = G.n // max(H.k, 1)
    checked, spent = 0, 0.0
    limit = DEFAULT_WORK_BUDGET if budget is None else budget
    per_colouring = max(1.0, float(G.n) ** H.k)
    for coloured in iter_colourings(G):
        if spent + per_colouring > limit:
            return best, checked, False
        spent += per_colouring
        checked += 1
        best = min(best, max(max_mono_tiling_size(coloured, H, c) for c in Colour))
        if best == 0:
            break
    return best, checked, True


RT_STATS = tuple(PatternStats.from_graph(pattern_by_name(name)) for name in ("k2", "k3", "p3", "p4"))


@pytest.mark.parametrize("H", RT_STATS, ids=("k2", "k3", "p3", "p4"))
def test_rt_stop_matches_full_packings(H):
    hosts = [Graph.complete(n) for n in range(3, 8)]
    hosts.append(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (0, 3)]))
    hosts.append(Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]))
    hosts.append(Graph.from_edges(4, [(0, 1)]))  # no colouring's blue side beats its red one
    for G in hosts:
        res = exact_rt(H, G)
        assert res.mode == ("atlas" if oracles.is_complete_host(G) else "raw")
        assert (res.upper, res.colourings_checked, res.exact) == _reference_exact_rt(H, G)
        assert res.lower == res.upper
    for budget in (250.0, 5000.0, 30000.0):
        res = exact_rt(H, Graph.complete(7), budget=budget)
        assert (res.upper, res.colourings_checked, res.exact) == _reference_exact_rt(H, Graph.complete(7), budget)
        assert not res.exact and res.lower == 0


def test_iter_colourings_raw_counts():
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


def test_colouring_counts_past_the_float_range(k3):
    host = Graph.complete(46)  # 1,035 edges: 2^1034 colourings overflow a float
    verdict = richness_decide(host, k3, 1, budget=float("inf"))
    assert (verdict.rich, verdict.mode) == (False, "exhaustive")
    for budget in (None, 1e6):
        with pytest.raises(BudgetExceededError, match=r"^richness enumeration estimate 3\.71e\+319 exceeds"):
            richness_decide(host, k3, 1, budget=budget)
    assert str(BudgetExceededError(2**1100, 5e7)) == "work estimate 1.36e+331 exceeds budget 5e+07"


def test_rt_bracket_on_budget_exhaustion(k3):
    res = exact_rt(k3, Graph.complete(6), budget=5.0)
    assert not res.exact
    assert res.lower == 0 and res.upper >= 0
    with pytest.raises(ValueError):
        _ = res.value


def test_no_budget_means_the_default_budget(k3):
    petersen = Graph.from_edges(
        10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    )
    c5 = PatternStats.from_graph(pattern_by_name("c5"))
    res = exact_rt(c5, petersen)  # 10^5 work per colouring against the default 5e7
    assert (res.exact, res.colourings_checked, res.mode) == (False, DEFAULT_WORK_BUDGET // 10**5, "raw")
    assert (res.upper, res.colourings_checked, res.exact) == _reference_exact_rt(c5, petersen)
    with pytest.raises(BudgetExceededError, match="exceeds budget 5e\\+07$"):
        richness_decide(Graph.complete(10), k3, 2)  # ~2^44 colourings


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
    assert verdict.trials == len(atlas_graphs(6)) * math.comb(6, 3)  # every colouring, every pair


def test_richness_empty_graph_not_rich(k3):
    verdict = richness_decide(Graph.empty(4), k3, 2)
    assert verdict.rich is False


def test_richness_vacuous_when_no_pairs(k3):
    verdict = richness_decide(Graph.complete(3), k3, 2)
    assert verdict.rich is True and verdict.mode == "vacuous"
    for n in range(11):  # the pair count richness_decide reads instead of listing
        for s in range(1, n + 1):
            assert len(list(iter_disjoint_pairs(n, s))) == math.comb(n, s) * math.comb(n - s, s), (n, s)


def test_sampled_richness_does_not_list_every_pair(k3):
    import tracemalloc

    from monotile.sampling import sample_gnp

    # 756,756 disjoint 5-set pairs on 15 vertices: listing them took over 100 MiB
    host = sample_gnp(15, 0.5, 1)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            richness_decide(host, k3, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_clique_counts_match_binomials():
    import math

    for n in (5, 8, 10):
        for r in (2, 3, 4):
            assert count_cliques(Graph.complete(n), r) == math.comb(n, r)
    assert count_cliques(Graph.empty(5), 3) == 0
    assert count_cliques(Graph.cycle(5), 3) == 0


def test_clique_estimate_bounds_the_extension_loop():
    from monotile.sampling import sample_gnp

    hosts = [Graph.complete(6), Graph.complete(9), Graph.cycle(7)]
    hosts += [sample_gnp(12, 0.6, seed) for seed in range(3)]
    for host in hosts:
        for r in range(2, 7):
            with pytest.raises(BudgetExceededError) as refused:
                count_cliques(host, r, budget=0)
            adj = CountingMasks(host.adjacency)  # one read per clique the extension grows
            assert count_cliques(Graph.from_adjacency(host.n, adj), r) == count_cliques(host, r)
            assert refused.value.estimate >= adj.reads > 0, (host.n, r)
    # K30 holds 30,045,015 10-cliques, far past what a 1e5 budget allows
    with pytest.raises(BudgetExceededError, match="clique enumeration"):
        count_cliques(Graph.complete(30), 10, budget=1e5)


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


@pytest.mark.parametrize("t", [0, -1, "3", 2.5])
def test_supersat_rejects_a_t_that_is_not_a_positive_int(t):
    # t = 0 used to raise ZeroDivisionError and a str or float TypeError
    with pytest.raises(ValueError, match="t must be a positive int"):
        clique_supersat_count(Graph.complete(5), 3, t=t)


def test_densest_t_on_complete():
    assert densest_t(Graph.complete(10)) == 10
    assert densest_t(Graph.complete(4)) == 4


def test_densest_t_rejects_the_zero_vertex_host():
    assert densest_t(Graph(1)) == 1
    with pytest.raises(ValueError, match="at least one vertex"):
        densest_t(Graph(0))


def test_good_copy_symmetry_sample(k3):
    # full exhaustive sweep lives in the acceptance suite
    for i, cg in enumerate(all_colourings(Graph.complete(5))):
        if i % 37:
            continue
        swapped = cg.swap_colours()
        a = good_copy_count(cg, k3, [0, 1], [2, 3, 4])
        b = good_copy_count(swapped, k3, [2, 3, 4], [0, 1])
        assert a == b

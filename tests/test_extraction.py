import json
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monotile import extraction
from monotile.clusters import (
    ClusterCertificate, FailureReport, InvariantViolation, cluster_process, probe_window_size,
    verify_cluster,
)
from monotile.embeddings import EmbeddedCopy, copy_leads, find_mono_copy, iter_copies
from monotile.extraction import (
    extract_tiling,
    extraction_target,
    greedy_packing,
    maximal_cluster_family,
)
from monotile.graphs import Colour, ColouredGraph, Graph, colour_all, mask_of, pattern_by_name
from monotile.instances import bowtie_union, planted_process_instance
from monotile.adversaries import AdversarySpec, colour_with
from monotile.patterns import PatternStats
from monotile.richness import find_side_good_copy
from monotile.tilings import Tiling, validate_tiling


def test_target_formula(k3):
    assert extraction_target(50, k3, 0.1) == 5
    assert extraction_target(300, k3, 0.15) == 15
    assert extraction_target(10, k3, 0.9) == 0


def test_all_red_complete_host(k3):
    for n in (9, 20, 31):
        cg = colour_all(Graph.complete(n), Colour.RED)
        tiling, report = extract_tiling(cg, k3, epsilon=0.1, seed=0)
        assert tiling.colour is Colour.RED
        assert tiling.size == n // 3
        assert report.achieved_size == n // 3
        assert validate_tiling(cg, k3, tiling)


def test_planted_ten_set_on_k50(k3):
    host = Graph.complete(50)
    cg = colour_with(host, AdversarySpec("planted-partition", {"part_size": 10}, 0))
    tiling, report = extract_tiling(cg, k3, epsilon=0.1, seed=3)
    assert validate_tiling(cg, k3, tiling)
    assert report.achieved_size >= 5


def test_report_json_schema(k3):
    cg = colour_all(Graph.complete(12), Colour.BLUE)
    _, report = extract_tiling(cg, k3, epsilon=0.2, seed=1)
    payload = json.loads(report.to_json())
    assert set(payload) == {
        "target_size", "achieved_size", "colour", "cluster_vertices",
        "seed", "eta", "epsilon", "rounding_table_version",
    }
    assert payload["colour"] == "blue"
    assert payload["eta"] == pytest.approx(0.2 / 5)


def test_extraction_deterministic(k3):
    inst = planted_process_instance(k3, 24, seed=5, cross_red_fraction=0.5)
    a = extract_tiling(inst.coloured, k3, epsilon=0.2, seed=11)
    b = extract_tiling(inst.coloured, k3, epsilon=0.2, seed=11)
    assert a == b


def test_epsilon_validation(k3):
    cg = colour_all(Graph.complete(6), Colour.RED)
    with pytest.raises(ValueError):
        extract_tiling(cg, k3, epsilon=0.0)
    with pytest.raises(ValueError):
        extract_tiling(cg, k3, epsilon=1.0)


def test_single_edge_pattern_substitution(k2):
    cg = colour_all(Graph.complete(12), Colour.RED)
    tiling, report = extract_tiling(cg, k2, epsilon=0.1, seed=0)
    assert validate_tiling(cg, k2, tiling)
    assert tiling.size == 12 // 2  # a perfect matching
    assert report.achieved_size == tiling.size
    assert report.target_size == extraction_target(12, k2, 0.1)


def test_edgeless_pattern_rejected():
    stats = PatternStats.from_graph(Graph.empty(3))
    cg = colour_all(Graph.complete(6), Colour.RED)
    with pytest.raises(ValueError):
        extract_tiling(cg, stats, epsilon=0.1)


def test_family_empty_on_all_red(k3):
    cg = colour_all(Graph.complete(15), Colour.RED)
    fam = maximal_cluster_family(cg, k3, eta=0.05)
    assert fam.certificates == ()
    assert not fam.truncated


def test_family_finds_planted_bowties(k3):
    for b in (1, 3, 5):
        cg = bowtie_union(b, isolated=4)
        fam = maximal_cluster_family(cg, k3, eta=0.0)
        assert len(fam.certificates) == b
        for cert in fam.certificates:
            assert verify_cluster(cg, k3, cert)


def test_family_members_disjoint_and_verified_on_random_host(k3):
    from monotile.sampling import sample_gnp

    host = sample_gnp(50, 1.0, 0)
    cg = colour_with(host, AdversarySpec("uniform-random", {}, 77))
    fam = maximal_cluster_family(cg, k3, eta=0.05)
    assert fam.certificates
    seen = set()
    for cert in fam.certificates:
        assert verify_cluster(cg, k3, cert)
        assert not (cert.vertices & seen)
        seen |= cert.vertices


def test_family_eta_one_covers_everything(k3):
    cg = bowtie_union(2)
    fam = maximal_cluster_family(cg, k3, eta=1.0)
    assert len(fam.certificates) == 1
    assert fam.certificates[0].vertices == frozenset(range(10))
    assert verify_cluster(cg, k3, fam.certificates[0])


def test_family_rejects_an_edgeless_pattern():
    cg = colour_all(Graph.complete(5), Colour.RED)
    with pytest.raises(ValueError, match="at least one edge"):
        maximal_cluster_family(cg, PatternStats.from_graph(Graph(2)), eta=0.1)


def test_family_budget_truncation(k3):
    cg = bowtie_union(4)
    fam = maximal_cluster_family(cg, k3, eta=0.0, builder_budget=2)
    assert fam.truncated
    assert len(fam.certificates) < 4


def _reference_ties(G: ColouredGraph, H: PatternStats) -> list[tuple[EmbeddedCopy, EmbeddedCopy]]:
    """The tie phase with every red scan restarted from vertex 0 of the free set."""
    free = (1 << G.n) - 1
    ties = []
    while find_mono_copy(G, H, free, Colour.BLUE) is not None:
        for red_map in iter_copies(G.red_adjacency, H.pattern, free):
            blue = find_side_good_copy(G, H, Colour.BLUE, free, mask_of(red_map), H.alpha)
            if blue is not None:
                red = EmbeddedCopy(red_map, Colour.RED)
                ties.append((red, blue))
                free &= ~(red.vertex_mask | blue.vertex_mask)
                break
        else:
            break
    return ties


@st.composite
def _dense_coloured_graphs(draw, min_n=5, max_n=14):
    """Each pair is absent, red or blue with equal odds, so hosts hold several ties."""
    n = draw(st.integers(min_n, max_n))
    colour = {}
    for e in combinations(range(n), 2):
        c = draw(st.sampled_from([None, Colour.RED, Colour.BLUE]))
        if c is not None:
            colour[e] = c
    return ColouredGraph(Graph.from_edges(n, list(colour)), colour)


def _coloured(n: int, red: list[tuple[int, int]], blue: list[tuple[int, int]]) -> ColouredGraph:
    colour = {e: Colour.RED for e in red} | {e: Colour.BLUE for e in blue}
    return ColouredGraph(Graph.from_edges(n, red + blue), colour)


def _triangle_edges(*triangles: tuple[int, int, int]) -> list[tuple[int, int]]:
    return [e for t in triangles for e in combinations(t, 2)]


# Two ties whose red copies lead with vertices 0 and 1: a cursor set beyond
# the first tie's lead vertex plus one skips the second tie.
_ADJACENT_LEADS = _coloured(
    10, _triangle_edges((0, 2, 3), (1, 6, 7)), _triangle_edges((3, 4, 5), (7, 8, 9))
)


@settings(max_examples=200, deadline=None)
@given(_dense_coloured_graphs(), st.sampled_from(["k3", "c4", "p4"]))
@example(_ADJACENT_LEADS, "k3")
def test_cursor_resumed_ties_match_restarted_scan(cg, name):
    H = PatternStats.from_graph(pattern_by_name(name))
    fam = maximal_cluster_family(cg, H, eta=0.0)
    ties = [(c.red_tiling.copies[0], c.blue_tiling.copies[0]) for c in fam.certificates]
    assert ties == _reference_ties(cg, H)


@settings(max_examples=200, deadline=None)
@given(_dense_coloured_graphs(), st.sampled_from(["k3", "c4", "p4"]))
@example(_ADJACENT_LEADS, "k3")
def test_ties_under_copy_leads_match_restarted_scan(cg, name):
    H = PatternStats.from_graph(pattern_by_name(name))
    leads = {c: copy_leads(cg.adjacency_for(c), H.pattern) for c in Colour}
    fam = maximal_cluster_family(cg, H, eta=0.0, leads=leads)
    ties = [(c.red_tiling.copies[0], c.blue_tiling.copies[0]) for c in fam.certificates]
    assert ties == _reference_ties(cg, H)


def test_disjoint_colour_blocks_still_give_greedy_tiling(k3):
    # Two far-apart colour classes leave no ties; the extraction must still
    # return its greedy result.
    inst = planted_process_instance(k3, 30, with_cross=False)
    tiling, report = extract_tiling(inst.coloured, k3, epsilon=0.3, seed=0)
    assert validate_tiling(inst.coloured, k3, tiling)
    assert report.achieved_size >= 10  # one block's worth of copies


def _two_cliques() -> ColouredGraph:
    """A red K6 on 0..5 and a blue K6 on 6..11, with no edges between them."""
    red = list(combinations(range(6), 2))
    return _coloured(12, red, [(u + 6, v + 6) for u, v in red])


def _two_clique_process(k3, eta: float):
    """``cluster_process`` with X the blue triangles on 6..11 and Y the red ones on 0..5."""
    cg = _two_cliques()
    x = Tiling(Colour.BLUE, tuple(EmbeddedCopy(t, Colour.BLUE) for t in ((6, 7, 8), (9, 10, 11))))
    y = Tiling(Colour.RED, tuple(EmbeddedCopy(t, Colour.RED) for t in ((0, 1, 2), (3, 4, 5))))
    return cg, cluster_process(cg, k3, x.vertices, y.vertices, eta, x, y)


def test_process_with_room_for_a_copy_reports_a_real_failure(k3):
    # s = 6, windows of ceil(0.49 * 6) = 3 vertices per side can hold a
    # triangle, but no copy crosses the cliques.
    assert probe_window_size(0.7, 6) == 3
    _, out = _two_clique_process(k3, 0.7)
    assert isinstance(out, FailureReport)


def test_process_residual_case_on_two_cliques(k3):
    # At eta = 0.75 the guard (4) exceeds each active half (3 vertices), so
    # the process stops at once and assembles the residual case: the first
    # blue copy plus one reserve red copy.
    cg, out = _two_clique_process(k3, 0.75)
    assert isinstance(out, ClusterCertificate)
    assert out.vertices == frozenset(range(3, 9))
    assert verify_cluster(cg, k3, out)


def test_two_cliques_extract_a_red_tiling(k3):
    cg = _two_cliques()
    tiling, report = extract_tiling(cg, k3, epsilon=0.1, eta=0.75)
    assert tiling.colour is Colour.RED
    assert tiling.size == report.achieved_size == 2
    assert validate_tiling(cg, k3, tiling)


def test_invalid_result_raises(k3, monkeypatch):
    cg = _two_cliques()
    bad = (EmbeddedCopy((6, 7, 8), Colour.RED),)
    monkeypatch.setattr(extraction, "greedy_packing", lambda G, H, colour, free, leads: bad)
    with pytest.raises(InvariantViolation, match="blue edge"):
        extract_tiling(cg, k3, epsilon=0.1)


def test_lead_masks_found_once_per_colour(monkeypatch):
    # Every scan of one extraction shares its colour's mask; none walks the class again.
    from monotile.sampling import sample_gnp

    cg = colour_with(sample_gnp(150, 0.08, 3), AdversarySpec("majority-degree", {}, 3))
    for name in ("k3", "c4"):
        H = PatternStats.from_graph(pattern_by_name(name))
        calls = []
        monkeypatch.setattr(
            extraction, "copy_leads", lambda adj, pattern: calls.append(adj) or copy_leads(adj, pattern)
        )
        tiling, report = extract_tiling(cg, H, epsilon=0.1)
        assert report.achieved_size > 0
        assert calls == [cg.red_adjacency, cg.blue_adjacency]


@settings(max_examples=150, deadline=None)
@given(_dense_coloured_graphs(), st.sampled_from(["k2", "k3", "c4", "p4"]))
def test_achieved_is_at_least_every_candidate(cg, name):
    H = PatternStats.from_graph(pattern_by_name(name))
    tiling, report = extract_tiling(cg, H, epsilon=0.1)
    assert validate_tiling(cg, H, tiling)
    everything = (1 << cg.n) - 1
    fam = maximal_cluster_family(cg, H, report.eta)
    rest = everything & ~mask_of(fam.vertices)
    largest = {}
    for colour in Colour:
        with_ties = len(fam.certificates) + len(greedy_packing(cg, H, colour, rest))
        largest[colour] = max(with_ties, len(greedy_packing(cg, H, colour, everything)))
    assert report.achieved_size == tiling.size == max(largest.values())
    assert (report.red_copies, report.blue_copies) == (largest[Colour.RED], largest[Colour.BLUE])


def test_full_slack_cluster_still_packs_greedily(k3):
    # At eta = 1 one cluster with empty tilings covers the host; the plain
    # greedy candidates still see every vertex.
    cg = colour_all(Graph.complete(12), Colour.RED)
    tiling, report = extract_tiling(cg, k3, epsilon=0.1, eta=1.0)
    assert tiling.colour is Colour.RED
    assert tiling.size == report.achieved_size == 4
    assert report.cluster_vertices == 12


def _greedy_matching(G: ColouredGraph, colour: Colour) -> int:
    """Edges of one colour taken in lexicographic order whenever both ends are free."""
    used: set[int] = set()
    size = 0
    for (u, v), c in sorted(G.colour.items()):
        if c is colour and u not in used and v not in used:
            used |= {u, v}
            size += 1
    return size


def test_single_edge_extraction_is_at_least_a_greedy_matching(k2):
    from monotile.sampling import sample_gnp, threshold_probability

    host = sample_gnp(300, threshold_probability(300, 5.0, k2), 7)
    cg = colour_with(host, AdversarySpec("majority-degree", {}, 7))
    tiling, report = extract_tiling(cg, k2, epsilon=0.15)
    assert validate_tiling(cg, k2, tiling)
    assert report.achieved_size >= max(_greedy_matching(cg, c) for c in Colour)

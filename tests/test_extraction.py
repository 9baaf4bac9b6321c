import json
from itertools import combinations

import pytest

from monotile import extraction
from monotile.clusters import InvariantViolation, probe_window_size, verify_cluster
from monotile.embeddings import EmbeddedCopy
from monotile.extraction import (
    ClusterFamily,
    extract_tiling,
    extraction_target,
    maximal_cluster_family,
)
from monotile.graphs import Colour, ColouredGraph, Graph, colour_all
from monotile.instances import bowtie_union, planted_process_instance
from monotile.adversaries import AdversarySpec, colour_with
from monotile.patterns import PatternStats
from monotile.tilings import validate_tiling


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
        "probe_failures", "seed", "eta", "epsilon", "rounding_table_version",
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
    assert tiling.size == 2 * (12 // 4)  # flattened disjoint-pair copies
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


def test_family_budget_truncation(k3):
    cg = bowtie_union(4)
    fam = maximal_cluster_family(cg, k3, eta=0.0, builder_budget=2)
    assert fam.truncated
    assert len(fam.certificates) < 4


def test_probe_failures_reported_not_raised(k3):
    # Two far-apart colour classes leave fold probes nothing to find; the
    # extraction must still return its greedy result.  At eta = 0.06 the
    # probe windows hold one vertex per side, too few for a triangle, so the
    # fold is skipped rather than counted as a probe failure.
    inst = planted_process_instance(k3, 30, with_cross=False)
    tiling, report = extract_tiling(inst.coloured, k3, epsilon=0.3, seed=0)
    assert validate_tiling(inst.coloured, k3, tiling)
    assert report.achieved_size >= 10  # one block's worth of copies
    assert report.probe_failures == 0


def _two_cliques() -> ColouredGraph:
    """A red K6 on 0..5 and a blue K6 on 6..11, with no edges between them."""
    red = list(combinations(range(6), 2))
    blue = [(u + 6, v + 6) for u, v in red]
    colour = {e: Colour.RED for e in red} | {e: Colour.BLUE for e in blue}
    return ColouredGraph(Graph.from_edges(12, red + blue), colour)


def test_fold_with_room_for_a_copy_reports_a_real_failure(k3):
    # Piles of two triangles per colour: s = 6, windows of ceil(0.49 * 6) = 3
    # vertices per side can hold a triangle, but no copy crosses the cliques.
    cg = _two_cliques()
    assert probe_window_size(0.7, 6) == 3
    fam = maximal_cluster_family(cg, k3, eta=0.7)
    assert fam.certificates == ()
    assert fam.probe_failures == 1
    assert len(fam.leftovers) == 4
    _, report = extract_tiling(cg, k3, epsilon=0.1, eta=0.7)
    assert report.probe_failures == 1


def test_fold_fires_and_greedy_resumes_on_released_vertices(k3):
    # At eta = 0.75 the guard (4) exceeds each active half (3 vertices), so
    # the process stops at once and assembles the residual case: the first
    # blue copy plus one reserve red copy.
    cg = _two_cliques()
    fam = maximal_cluster_family(cg, k3, eta=0.75)
    (cert,) = fam.certificates
    assert cert.vertices == frozenset(range(3, 9))
    assert verify_cluster(cg, k3, cert)
    assert fam.probe_failures == 0
    # The fold released {0,1,2} and {9,10,11}; the greedy scan finds them
    # again only because its cursors restart after the fold.
    assert [c.vertex_map for c in fam.leftovers] == [(0, 1, 2), (9, 10, 11)]
    tiling, report = extract_tiling(cg, k3, epsilon=0.1, eta=0.75)
    assert tiling.colour is Colour.RED
    assert tiling.size == report.achieved_size == 2
    assert validate_tiling(cg, k3, tiling)


def test_invalid_result_raises(k3, monkeypatch):
    cg = _two_cliques()
    fake = ClusterFamily((), False, 0, 0, leftovers=(EmbeddedCopy((6, 7, 8), Colour.RED),))
    monkeypatch.setattr(extraction, "maximal_cluster_family", lambda *args: fake)
    with pytest.raises(InvariantViolation, match="blue edge"):
        extract_tiling(cg, k3, epsilon=0.1)

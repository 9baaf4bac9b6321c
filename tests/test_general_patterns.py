"""The engine beyond triangles: paths (alpha = 2) and larger cliques.

The side-constrained probing and the cluster accounting are where a
non-clique pattern can diverge from the triangle behaviour, so every stage
gets exercised with the 4-path and with K4.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotile.adversaries import AdversarySpec, colour_with
from monotile.clusters import ClusterCertificate, FailureReport, cluster_process, verify_cluster
from monotile.extraction import extract_tiling, maximal_cluster_family
from monotile.graphs import Colour, Graph, colour_all
from monotile.instances import planted_process_instance
from monotile.oracles import good_copy_witness_count
from monotile.patterns import PatternStats
from monotile.richness import richness_probe
from monotile.sampling import derive_seed, sample_gnp, threshold_probability
from monotile.tilings import validate_tiling

from .conftest import coloured_graphs


@pytest.mark.parametrize("fraction,eta", [(1.0, 0.4), (0.0, 0.4), (0.5, 0.5)])
def test_p4_cluster_process_on_planted_instances(p4, fraction, eta):
    inst = planted_process_instance(p4, 24, seed=3, cross_red_fraction=fraction)
    trace = []
    out = cluster_process(
        inst.coloured, p4, inst.x_vertices, inst.y_vertices, eta,
        inst.blue_tiling, inst.red_tiling, seed=3, trace=trace,
    )
    assert isinstance(out, ClusterCertificate)
    assert trace
    assert verify_cluster(inst.coloured, p4, out)
    # with alpha = 2, every step banks at most k - alpha = 2 far-side vertices
    for rec in trace:
        st_after = rec.state_after
        assert len(st_after.saved_x) <= 2 * st_after.blue_steps
        assert len(st_after.saved_y) <= 2 * st_after.red_steps


def test_k4_cluster_process_on_planted_instance(k4):
    inst = planted_process_instance(k4, 24, seed=5, cross_red_fraction=1.0)
    out = cluster_process(
        inst.coloured, k4, inst.x_vertices, inst.y_vertices, 0.55,
        inst.blue_tiling, inst.red_tiling, seed=5,
    )
    assert isinstance(out, ClusterCertificate)
    assert verify_cluster(inst.coloured, k4, out)


def test_p4_probe_needs_two_side_vertices(p4):
    # all cross edges red, both blocks internally red as well: a red path
    # reaching two X-vertices exists, so the pair is served through X
    inst = planted_process_instance(p4, 8, seed=0, cross_red_fraction=1.0)
    hit = richness_probe(
        inst.coloured, p4, sorted(inst.x_vertices)[:4], sorted(inst.y_vertices)[:4]
    )
    assert hit is not None
    assert hit.colour is Colour.RED and len(hit.vertices & inst.x_vertices) >= 2


@settings(max_examples=60, deadline=None)
@given(coloured_graphs(min_n=4, max_n=8), st.data())
def test_p4_probe_agrees_with_witness_enumeration(p4, cg, data):
    verts = list(range(cg.n))
    xs = data.draw(st.lists(st.sampled_from(verts), unique=True, max_size=cg.n))
    rest = [v for v in verts if v not in xs]
    ys = data.draw(st.lists(st.sampled_from(rest), unique=True, max_size=len(rest))) if rest else []
    hit = richness_probe(cg, p4, xs, ys)
    assert (hit is None) == (good_copy_witness_count(cg, p4, xs, ys) == 0)


def test_p4_extraction_on_complete_hosts(p4):
    for n in (24, 36):
        cg = colour_all(Graph.complete(n), Colour.BLUE)
        tiling, report = extract_tiling(cg, p4, epsilon=0.1, seed=1)
        assert tiling.size == n // 4
        assert validate_tiling(cg, p4, tiling)
        assert report.achieved_size >= report.target_size


def test_p4_extraction_on_random_hosts(p4):
    p = threshold_probability(120, 8.0, p4)
    for seed in range(5):
        host = sample_gnp(120, p, derive_seed("p4-host", seed))
        cg = colour_with(host, AdversarySpec("uniform-random", {}, derive_seed("p4-col", seed)))
        tiling, report = extract_tiling(cg, p4, epsilon=0.1, seed=seed)
        assert validate_tiling(cg, p4, tiling)
        assert report.achieved_size >= report.target_size, (seed, report)


def test_p4_family_certificates_verify_on_random_host(p4):
    host = Graph.complete(36)
    cg = colour_with(host, AdversarySpec("uniform-random", {}, 9))
    fam = maximal_cluster_family(cg, p4)
    assert fam.certificates
    seen = set()
    for cert in fam.certificates:
        assert verify_cluster(cg, p4, cert)
        assert not (cert.vertices & seen)
        assert len(cert.vertices) <= cg.n
        seen |= cert.vertices


def test_k4_extraction_on_complete_host(k4):
    cg = colour_all(Graph.complete(29), Colour.RED)
    tiling, report = extract_tiling(cg, k4, epsilon=0.1, seed=0)
    assert tiling.size == 29 // 4
    assert validate_tiling(cg, k4, tiling)


def test_matching_pattern_extraction():
    # two disjoint edges: k = 4, alpha = 2, the smallest non-connected case
    two_k2 = PatternStats.from_graph(Graph.matching(2))
    cg = colour_all(Graph.complete(16), Colour.RED)
    tiling, report = extract_tiling(cg, two_k2, epsilon=0.2, seed=0)
    assert tiling.size == 4
    assert validate_tiling(cg, two_k2, tiling)

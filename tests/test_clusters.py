import math
from fractions import Fraction

import pytest

from monotile.clusters import (
    ClusterCertificate,
    FailureReport,
    cluster_process,
    required_tiling_size,
    verify_cluster,
)
from monotile.embeddings import EmbeddedCopy
from monotile.graphs import Colour, Graph, colour_all, mask_of
from monotile.instances import bowtie_union, planted_process_instance
from monotile.patterns import PatternStats
from monotile.tilings import Tiling


def tightest_eta(cert: ClusterCertificate, H: PatternStats) -> Fraction:
    """Smallest slack this certificate's tilings actually achieve."""
    t = len(cert.vertices)
    if t == 0:
        return Fraction(1)
    smallest = min(cert.red_tiling.size, cert.blue_tiling.size)
    return max(Fraction(0), Fraction(1, H.tiling_denominator) - Fraction(smallest, t))


def _single_red_triangle():
    return colour_all(Graph.complete(3), Colour.RED)


def test_required_size_clamps(k3):
    assert required_tiling_size(5, k3, 0) == 1
    assert required_tiling_size(3, k3, 0) == 1
    assert required_tiling_size(3, k3, Fraction(1, 5)) == 0
    assert required_tiling_size(10, k3, 1.0) == 0


def test_verify_bowtie_is_zero_slack_cluster(k3):
    cg = bowtie_union(1)
    cert = ClusterCertificate(
        vertices=frozenset(range(5)),
        red_tiling=Tiling(Colour.RED, (EmbeddedCopy((0, 1, 2), Colour.RED),)),
        blue_tiling=Tiling(Colour.BLUE, (EmbeddedCopy((2, 3, 4), Colour.BLUE),)),
        eta=0.0,
    )
    assert verify_cluster(cg, k3, cert)
    assert tightest_eta(cert, k3) == 0


def test_verify_single_triangle_fails_at_zero_slack(k3):
    cg = _single_red_triangle()
    cert = ClusterCertificate(
        vertices=frozenset(range(3)),
        red_tiling=Tiling(Colour.RED, (EmbeddedCopy((0, 1, 2), Colour.RED),)),
        blue_tiling=Tiling(Colour.BLUE, ()),
        eta=0.0,
    )
    assert not verify_cluster(cg, k3, cert)


def test_verify_single_triangle_passes_at_one_fifth(k3):
    cg = _single_red_triangle()
    cert = ClusterCertificate(
        vertices=frozenset(range(3)),
        red_tiling=Tiling(Colour.RED, (EmbeddedCopy((0, 1, 2), Colour.RED),)),
        blue_tiling=Tiling(Colour.BLUE, ()),
        eta=0.2,
    )
    assert verify_cluster(cg, k3, cert)


def test_verify_rejects_empty_vertex_set(k3):
    cert = ClusterCertificate(
        vertices=frozenset(),
        red_tiling=Tiling(Colour.RED, ()),
        blue_tiling=Tiling(Colour.BLUE, ()),
        eta=1.0,
    )
    assert not verify_cluster(_single_red_triangle(), k3, cert)


def _run_planted(k3, s, seed, fraction, eta=0.3, trace=None):
    inst = planted_process_instance(k3, s, seed=seed, cross_red_fraction=fraction)
    return inst, cluster_process(
        inst.coloured, k3, inst.x_vertices, inst.y_vertices, eta,
        inst.blue_tiling, inst.red_tiling, seed=seed, trace=trace,
    )


def test_process_succeeds_on_red_cross(k3):
    inst, out = _run_planted(k3, 30, seed=1, fraction=1.0)
    assert isinstance(out, ClusterCertificate)
    assert verify_cluster(inst.coloured, k3, out)
    assert out.vertices <= inst.x_vertices | inst.y_vertices


def test_process_succeeds_on_blue_cross_swapped_side(k3):
    inst, out = _run_planted(k3, 30, seed=2, fraction=0.0)
    assert isinstance(out, ClusterCertificate)
    assert verify_cluster(inst.coloured, k3, out)


def test_process_mixed_cross(k3):
    for seed in range(5):
        inst, out = _run_planted(k3, 24, seed=seed, fraction=0.5)
        assert isinstance(out, ClusterCertificate)
        assert verify_cluster(inst.coloured, k3, out)


def test_process_failure_without_cross_edges(k3):
    inst = planted_process_instance(k3, 12, with_cross=False)
    out = cluster_process(
        inst.coloured, k3, inst.x_vertices, inst.y_vertices, 0.5,
        inst.blue_tiling, inst.red_tiling,
    )
    assert isinstance(out, FailureReport)
    assert out.exhausted_at.red_steps == 0 and out.exhausted_at.blue_steps == 0
    assert out.probe_x and out.probe_y


def test_process_eta_one_degenerate(k3):
    inst = planted_process_instance(k3, 12, with_cross=False)
    out = cluster_process(
        inst.coloured, k3, inst.x_vertices, inst.y_vertices, 1.0,
        inst.blue_tiling, inst.red_tiling,
    )
    assert isinstance(out, ClusterCertificate)
    assert out.red_tiling.size == 0 and out.blue_tiling.size == 0
    assert verify_cluster(inst.coloured, k3, out)


def test_process_validates_inputs(k3):
    inst = planted_process_instance(k3, 12)
    with pytest.raises(ValueError):
        cluster_process(
            inst.coloured, k3, inst.x_vertices, inst.y_vertices, 0.0,
            inst.blue_tiling, inst.red_tiling,
        )
    with pytest.raises(ValueError):  # sides must be disjoint
        cluster_process(
            inst.coloured, k3, inst.x_vertices, inst.x_vertices, 0.3,
            inst.blue_tiling, inst.red_tiling,
        )
    with pytest.raises(ValueError):  # tilings must cover their side
        cluster_process(
            inst.coloured, k3, inst.x_vertices, inst.y_vertices, 0.3,
            inst.red_tiling, inst.blue_tiling,
        )
    host = colour_all(Graph.complete(6), Colour.RED)
    one_blue = Tiling(Colour.BLUE, (EmbeddedCopy((0, 1, 2), Colour.BLUE),))
    one_red = Tiling(Colour.RED, (EmbeddedCopy((3, 4, 5), Colour.RED),))
    with pytest.raises(ValueError):  # below twice the pattern order
        cluster_process(host, k3, [0, 1, 2], [3, 4, 5], 0.3, one_blue, one_red)


def test_process_rejects_tiny_patterns(k2, k3):
    inst = planted_process_instance(k3, 12)
    with pytest.raises(ValueError):
        cluster_process(
            inst.coloured, k2, inst.x_vertices, inst.y_vertices, 0.3,
            inst.blue_tiling, inst.red_tiling,
        )


def _recheck_trace(inst, k3, eta, trace):
    """Independent accounting recheck from the documented split rule."""
    s = len(inst.x_vertices)
    m = s // k3.k
    half = (m + 1) // 2
    x1 = mask_of(v for c in inst.blue_tiling.copies[:half] for v in c.vertex_map)
    y1 = mask_of(v for c in inst.red_tiling.copies[:half] for v in c.vertex_map)
    guard = math.ceil(Fraction(eta) ** 2 * s)
    for rec in trace:
        st = rec.state_after
        assert rec.removed_from_x + rec.removed_from_y == k3.k
        removed_x = x1.bit_count() - len(st.active_x)
        removed_y = y1.bit_count() - len(st.active_y)
        assert removed_x == k3.k * st.red_steps - len(st.saved_y) + len(st.saved_x)
        assert removed_y == k3.k * st.blue_steps - len(st.saved_x) + len(st.saved_y)
        assert mask_of(st.active_x) & ~x1 == 0
        assert mask_of(st.active_y) & ~y1 == 0
        pools = mask_of(st.active_x) | mask_of(st.active_y)
        assert (mask_of(st.saved_x) | mask_of(st.saved_y)) & pools == 0
    if trace:
        final = trace[-1].state_after
        assert min(len(final.active_x), len(final.active_y)) < guard


def test_process_trace_invariants(k3):
    for seed, fraction in [(0, 1.0), (1, 0.0), (2, 0.6), (3, 0.4)]:
        trace = []
        inst, out = _run_planted(k3, 24, seed=seed, fraction=fraction, trace=trace)
        assert isinstance(out, ClusterCertificate)
        assert trace, "the loop must run on planted instances"
        _recheck_trace(inst, k3, 0.3, trace)


def test_residual_case_size_identity(k3):
    # A mixed instance that terminates with few events on both sides: use a
    # sparse red cross so red steps stay rare, and blue steps cannot fire
    # (blue copies need two X-pool vertices, but the X pool is all blue only
    # inside X and the cross is mostly red).
    hit_residual = False
    for seed in range(40):
        trace = []
        inst, out = _run_planted(k3, 24, seed=seed, fraction=0.35, eta=0.4, trace=trace)
        if not isinstance(out, ClusterCertificate):
            continue
        final = trace[-1].state_after if trace else None
        if final and max(final.red_steps, final.blue_steps) < (24 // 3) // 2:
            hit_residual = True
            s = 24
            guard = math.ceil(Fraction("0.4") ** 2 * s)
            exhausted_x = len(final.active_x) < guard
            saved = final.saved_y if exhausted_x else final.saved_x
            t_events = final.red_steps if exhausted_x else final.blue_steps
            assert len(out.vertices) == s + len(saved) - k3.k * t_events
            assert len(out.vertices) < s - Fraction(k3.alpha * s, 2 * k3.k) + Fraction("0.4") ** 2 * s
    assert hit_residual, "no run exercised the residual case"


def _mutate(cert, **changes):
    from dataclasses import replace

    return replace(cert, **changes)


def test_verify_rejects_tampered_certificates(k3):
    inst, out = _run_planted(k3, 30, seed=1, fraction=1.0)
    assert isinstance(out, ClusterCertificate)
    cg = inst.coloured

    # dropping a vertex that hosts a copy breaks containment
    victim = next(iter(out.red_tiling.copies[0].vertices))
    assert not verify_cluster(cg, k3, _mutate(out, vertices=out.vertices - {victim}))

    # deleting copies breaks the size bound once the slack is tight enough
    # for the requirement to be positive (at eta = 0.3 the clamp makes an
    # empty tiling legitimately sufficient, so tighten eta as well)
    starved = _mutate(out, red_tiling=Tiling(Colour.RED, ()), eta=0.01)
    assert required_tiling_size(len(out.vertices), k3, 0.01) > 0
    assert not verify_cluster(cg, k3, starved)

    # swapping the tilings mislabels the colours
    swapped = _mutate(
        out,
        red_tiling=Tiling(Colour.RED, out.blue_tiling.copies),
        blue_tiling=Tiling(Colour.BLUE, out.red_tiling.copies),
    )
    assert not verify_cluster(cg, k3, swapped)

    # padding the vertex set inflates the requirement past the tilings
    padding = frozenset(range(cg.n)) - out.vertices
    bloated = _mutate(out, vertices=out.vertices | padding, eta=0.01)
    assert not verify_cluster(cg, k3, bloated)

    # the original still stands
    assert verify_cluster(cg, k3, out)


def test_process_is_deterministic(k3):
    a_trace, b_trace = [], []
    inst, a = _run_planted(k3, 24, seed=9, fraction=0.7, trace=a_trace)
    _, b = _run_planted(k3, 24, seed=9, fraction=0.7, trace=b_trace)
    assert a == b
    assert a_trace == b_trace

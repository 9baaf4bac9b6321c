import itertools
import math
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotile import clusters

from monotile.clusters import (
    ClusterCertificate,
    FailureReport,
    cluster_process,
    probe_window_size,
    required_tiling_size,
    verify_cluster,
)
from monotile.embeddings import EmbeddedCopy
from monotile.graphs import Colour, Graph, colour_all, iter_bits, mask_of
from monotile.instances import bowtie_union, planted_process_instance
from monotile.patterns import PatternStats
from monotile.sampling import derive_seed, philox_generator
from monotile.tilings import Tiling

from .conftest import recheck_trace


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


def test_process_rejects_a_window_too_small_for_a_good_copy(k3):
    """A one-vertex window cannot hold a good triangle, so the run is refused
    rather than reported as a failure of the host."""
    for s, eta in ((6, 0.1), (12, 0.2), (24, 0.2), (48, 0.1)):
        inst = planted_process_instance(k3, s, 0, 1.0)
        assert probe_window_size(eta, s) == 1
        with pytest.raises(ValueError, match="^a probe window of 1 vertices per side cannot hold a good copy"):
            cluster_process(
                inst.coloured, k3, inst.x_vertices, inst.y_vertices, eta,
                inst.blue_tiling, inst.red_tiling,
            )
    # The s = 24 instance with a three-vertex window builds a certificate.
    out = cluster_process(
        inst.coloured, k3, inst.x_vertices, inst.y_vertices, 0.3,
        inst.blue_tiling, inst.red_tiling,
    )
    assert isinstance(out, ClusterCertificate) and verify_cluster(inst.coloured, k3, out)


def test_process_eta_one_degenerate(k3):
    """At eta >= 1 no step runs: X's base half pairs with Y's whole reserve on all s vertices."""
    for s, eta in itertools.product((6, 9, 12), (1, 1.0, 1.5, 7)):
        inst = planted_process_instance(k3, s, with_cross=False)
        half = (s // k3.k + 1) // 2
        trace = []
        out = cluster_process(
            inst.coloured, k3, inst.x_vertices, inst.y_vertices, eta,
            inst.blue_tiling, inst.red_tiling, trace=trace,
        )
        assert isinstance(out, ClusterCertificate) and not trace, (s, eta)
        assert verify_cluster(inst.coloured, k3, out)
        assert len(out.vertices) == s
        assert out.red_tiling == Tiling(Colour.RED, inst.red_tiling.copies[half:])
        assert out.blue_tiling == Tiling(Colour.BLUE, inst.blue_tiling.copies[:half])


def _invalid_process_inputs(k2, k3):
    """(host, pattern, X, Y, X's tiling, Y's tiling) that every slack must reject."""
    inst = planted_process_instance(k3, 12)
    G, X, Y, blue, red = inst.coloured, inst.x_vertices, inst.y_vertices, inst.blue_tiling, inst.red_tiling
    short_y = Tiling(Colour.RED, red.copies[:-1])
    x_only = colour_all(Graph.complete(12), Colour.BLUE)  # Y = 12..23 lies outside it
    return {
        "k2-pattern": (G, k2, X, Y, blue, red),
        "unequal-sides": (G, k3, X, short_y.vertices, blue, short_y),
        "swapped-tilings": (G, k3, X, Y, red, blue),
        "sides-outside-host": (x_only, k3, X, Y, blue, red),
    }


@pytest.mark.parametrize("case", ["k2-pattern", "unequal-sides", "swapped-tilings", "sides-outside-host"])
def test_process_validates_inputs_at_every_slack(k2, k3, case):
    G, H, X, Y, blue, red = _invalid_process_inputs(k2, k3)[case]
    with pytest.raises(ValueError) as reference:
        cluster_process(G, H, X, Y, 0.5, blue, red)
    for eta in (1, 1.5, 7):
        with pytest.raises(ValueError, match=f"^{re.escape(str(reference.value))}$"):
            cluster_process(G, H, X, Y, eta, blue, red)


def test_process_validates_inputs(k3):
    inst = planted_process_instance(k3, 12)
    for eta in (0.0, -1, math.nan, math.inf):
        with pytest.raises(ValueError, match="^eta must be positive and finite"):
            cluster_process(
                inst.coloured, k3, inst.x_vertices, inst.y_vertices, eta,
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


def test_process_rejects_input_tilings_of_the_wrong_colour_in_the_host(k3):
    # The tilings cover their sides with the right colour tags and sizes, but
    # in the swapped host X's copies are red, and in the all-blue host Y's are blue.
    inst = planted_process_instance(k3, 12, 0, 1.0)
    all_blue = colour_all(inst.coloured.graph, Colour.BLUE)
    for host, side in ((inst.coloured.swap_colours(), "X"), (all_blue, "Y")):
        for eta in (0.1, 0.3, 0.5):
            with pytest.raises(ValueError, match=f"^{side} tiling is not a valid tiling of the host: copy 0: "):
                cluster_process(
                    host, k3, inst.x_vertices, inst.y_vertices, eta,
                    inst.blue_tiling, inst.red_tiling,
                )


def test_process_rejects_tiny_patterns(k2, k3):
    inst = planted_process_instance(k3, 12)
    with pytest.raises(ValueError, match="at least 3 vertices"):
        cluster_process(
            inst.coloured, k2, inst.x_vertices, inst.y_vertices, 0.3,
            inst.blue_tiling, inst.red_tiling,
        )


def test_process_trace_invariants(k3):
    for seed, fraction in [(0, 1.0), (1, 0.0), (2, 0.6), (3, 0.4)]:
        trace = []
        inst, out = _run_planted(k3, 24, seed=seed, fraction=fraction, trace=trace)
        assert isinstance(out, ClusterCertificate)
        assert trace, "the loop must run on planted instances"
        recheck_trace(inst, k3, 0.3, trace)


def _rescanned_window(shuffle, active, size):
    """The first ``size`` vertices of ``shuffle`` still in ``active``, scanning from its start."""
    return mask_of([v for v in shuffle if active >> v & 1][:size])


@settings(max_examples=40, deadline=None)
@given(
    s=st.sampled_from([12, 24, 48]),
    seed=st.integers(0, 2**32),
    fraction=st.sampled_from([0.0, 0.3, 0.65, 1.0]),
    eta=st.sampled_from([0.3, 0.35, 0.4, 0.5]),
    with_cross=st.booleans(),
)
def test_probe_windows_are_the_first_pool_vertices_in_shuffle_order(k3, s, seed, fraction, eta, with_cross):
    """Every probe searches the windows a full rescan of each side's shuffle gives."""
    inst = planted_process_instance(k3, s, seed=seed, cross_red_fraction=fraction, with_cross=with_cross)
    calls, trace = [], []
    search = clusters.find_side_good_copy

    def spy(G, H, colour, universe, side, min_side, leads=-1):
        calls.append((colour, universe, side))
        return search(G, H, colour, universe, side, min_side, leads)

    with mock.patch.object(clusters, "find_side_good_copy", spy):
        out = cluster_process(
            inst.coloured, k3, inst.x_vertices, inst.y_vertices, eta,
            inst.blue_tiling, inst.red_tiling, seed=seed, trace=trace,
        )
    half = (s // k3.k + 1) // 2
    pools = [mask_of(v for c in t.copies[:half] for v in c.vertex_map) for t in (inst.blue_tiling, inst.red_tiling)]
    shuffles = []
    for i, pool in enumerate(pools):
        order = sorted(iter_bits(pool))
        shuffles.append([order[j] for j in philox_generator(derive_seed("window", seed, "xy"[i])).permutation(len(order))])
    guard = math.ceil(Fraction(str(eta)) ** 2 * s)
    states = [pools] + [[mask_of(r.state_after.active_x), mask_of(r.state_after.active_y)] for r in trace]
    expected = []
    for t, active in enumerate(states):
        if t < len(trace):
            colours = (Colour.RED,) if trace[t].step_type is Colour.RED else (Colour.RED, Colour.BLUE)
        elif isinstance(out, FailureReport):
            colours = (Colour.RED, Colour.BLUE)
            assert (mask_of(out.probe_x), mask_of(out.probe_y)) == tuple(
                _rescanned_window(shuffles[i], active[i], guard) for i in (0, 1)
            )
        else:
            break
        windows = [_rescanned_window(shuffles[i], active[i], guard) for i in (0, 1)]
        expected += [(c, windows[0] | windows[1], windows[i]) for i, c in enumerate(colours)]
    assert calls == expected


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


def test_every_termination_pattern_in_both_orientations(k3):
    """The first runs of the planted acceptance grid end in all four patterns,
    each certificate pairing one side's base half with the events that hit it
    (topped up from the other side's reserve in the residual case)."""
    fractions = (1.0, 0.0, 0.65, 0.45, 0.55)
    etas = (0.3, 0.35, 0.4, 0.5)
    first_run = {}
    for i in range(12):
        s = 24 if i % 2 == 0 else 48
        inst = planted_process_instance(
            k3, s, seed=derive_seed("acceptance4", i), cross_red_fraction=fractions[i % len(fractions)]
        )
        eta = etas[i % len(etas)]
        trace = []
        out = cluster_process(
            inst.coloured, k3, inst.x_vertices, inst.y_vertices, eta,
            inst.blue_tiling, inst.red_tiling, seed=i, trace=trace,
        )
        assert isinstance(out, ClusterCertificate) and trace, i
        assert verify_cluster(inst.coloured, k3, out), i
        m = s // k3.k
        half = (m + 1) // 2
        # Red copies hit the blue-tiled X, blue copies the red-tiled Y.
        base = {Colour.RED: inst.blue_tiling.copies[:half], Colour.BLUE: inst.red_tiling.copies[:half]}
        reserve = {Colour.RED: inst.red_tiling.copies[half:], Colour.BLUE: inst.blue_tiling.copies[half:]}
        events = {c: tuple(rec.copy for rec in trace if rec.step_type is c) for c in Colour}
        crossing = [c for c in Colour if len(events[c]) >= half]
        if crossing:
            hit = crossing[0]
            pattern = f"crossing-{hit.value}"
            expected = events[hit][:half]
        else:
            guard = math.ceil(Fraction(eta) ** 2 * s)
            hit = Colour.RED if len(trace[-1].state_after.active_x) < guard else Colour.BLUE
            pattern = "residual-" + ("X" if hit is Colour.RED else "Y")
            expected = events[hit] + tuple(reserve[hit][: m // 2 - len(events[hit])])
        assert out.tiling(hit).copies == expected, i
        assert out.tiling(hit.other).copies == tuple(base[hit]), i
        first_run.setdefault(pattern, i)
    assert first_run == {"crossing-red": 0, "crossing-blue": 1, "residual-Y": 3, "residual-X": 11}


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

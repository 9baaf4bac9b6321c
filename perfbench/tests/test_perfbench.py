"""Tests for the benchmark's own helpers: the tail rule, self times, failure accounting.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from monotile.embeddings import EmbeddedCopy  # noqa: E402
from monotile.extraction import extract_tiling  # noqa: E402
from monotile.graphs import Colour, Graph, colour_all  # noqa: E402
from monotile.tilings import Tiling  # noqa: E402
from stats import tail  # noqa: E402
from tracing import Probe, Tracer, layer_self_shares, self_times, span_totals  # noqa: E402


@pytest.mark.parametrize("n", [11, 20, 37, 100])
def test_tail_has_exactly_ten_samples_beyond(n):
    samples = [float(x) for x in range(n, 0, -1)]
    t = tail(samples)
    assert t.rule_met and t.beyond == 10 and t.samples == n
    assert sum(1 for x in samples if x > t.value) == 10
    assert t.percentile == pytest.approx(100 * (n - 10) / n)


def test_tail_is_p90_of_a_hundred_and_the_median_of_twenty():
    assert tail([float(x) for x in range(1, 101)]).value == 90.0
    assert tail([float(x) for x in range(1, 21)]).percentile == 50.0


def test_tail_with_ten_samples_or_fewer_falls_back_to_the_maximum():
    t = tail([3.0, 1.0, 2.0])
    assert (t.value, t.percentile, t.rule_met) == (3.0, 100.0, False)
    assert not tail([1.0] * 10).rule_met
    with pytest.raises(ValueError):
        tail([])


def _span(name, start, end, parent, op=0, note=None):
    return [name, start, end, parent, op, note]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("extraction.extract_tiling", 0, 100_000, -1),
        _span("extraction.maximal_cluster_family", 10_000, 40_000, 0),
        _span("richness.find_side_good_copy", 15_000, 25_000, 1, note=1),
        _span("embeddings.find_mono_copy", 50_000, 90_000, 0, note=0),
    ]
    assert self_times(spans) == pytest.approx([30e-6, 20e-6, 10e-6, 40e-6])
    totals = span_totals(spans)
    assert totals["extraction.extract_tiling"]["s"] == pytest.approx(100e-6)
    assert totals["richness.find_side_good_copy"]["notes"] == 1
    shares = layer_self_shares(spans, 100e-6, exclude=frozenset({"embeddings.find_mono_copy"}))
    assert shares == pytest.approx({"extraction": 0.5, "richness": 0.1})


def test_tracer_nests_spans_and_restores_wrapped_functions():
    class Module:
        @staticmethod
        def inner(x):
            return x + 1

    tracer = Tracer()
    tracer.wrap(Module, "inner", "layer.inner", note=lambda r: r)
    tracer.op = 7
    assert tracer.run("layer.outer", lambda: Module.inner(1), (), {}) == 2
    tracer.unwrap_all()
    assert Module.inner(1) == 2 and not hasattr(Module.inner, "__wrapped__")
    (outer, inner) = tracer.spans
    assert inner[0] == "layer.inner" and inner[3] == 0 and inner[4] == 7 and inner[5] == 2
    assert outer[3] == -1 and outer[1] <= inner[1] <= inner[2] <= outer[2]


K3 = workloads.K3


def _extraction_op(tamper):
    def op(i, probe: Probe):
        cg = colour_all(Graph.complete(20), Colour.RED)
        tiling, report = probe.call("extraction.extract_tiling", extract_tiling, cg, K3, 0.15)
        workloads.check_extraction(probe, cg, K3, 0.15, tamper(tiling), report)

    return op


def test_a_valid_extraction_is_not_a_failure():
    results = run.measure(_extraction_op(lambda t: t), 0.0)
    assert len(results) == 1 and results[0].errors == ()
    assert results[0].ratios and results[0].seconds > 0


def test_a_deliberately_invalid_tiling_counts_as_failed():
    overlapping = Tiling(
        Colour.RED, (EmbeddedCopy((0, 1, 2), Colour.RED), EmbeddedCopy((2, 3, 4), Colour.RED))
    )
    (result,) = run.measure(_extraction_op(lambda t: overlapping), 0.0)
    assert "invalid tiling" in result.errors


def test_an_op_that_raises_counts_as_failed_and_the_loop_goes_on():
    def op(i, probe):
        raise ValueError("boom")

    results = run.measure(op, 0.05)
    assert len(results) >= 1
    assert all(r.errors == ("raised ValueError: boom",) for r in results)
    metrics = run.end_to_end_metrics(
        results + run.measure(_extraction_op(lambda t: t), 0.0), setup_samples=[1.0]
    )
    assert metrics["ok_frac"] == pytest.approx(1 / (len(results) + 1))


def test_each_timed_segment_is_scaled_by_the_references_around_it(monkeypatch):
    import tracing

    references = iter([0.010, 0.020, 0.040])
    monkeypatch.setattr(tracing, "reference_seconds", lambda: next(references))
    probe = Probe()
    probe.calibrate()
    probe.seconds += 1.5  # a timed segment while the reference went 10 -> 20 ms
    probe.calibrate()
    probe.seconds += 3.0  # then 20 -> 40 ms
    probe.calibrate()
    nominal = tracing.NOMINAL_S
    assert probe.scaled == pytest.approx(1.5 * nominal / 0.015 + 3.0 * nominal / 0.030)


def test_benchmark_json_names_every_metric_the_runner_prints():
    import json

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

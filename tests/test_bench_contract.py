"""The names and signatures the benchmark harness in ``perfbench/`` relies on.

``perfbench/run.py --trace 1`` wraps engine functions by module attribute, its
host workloads call ``extract_tiling(..., seed=...)`` and its desk round calls
the probes and oracles; a rename or a signature change breaks the benchmark,
so it should fail here first.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src"), str(BENCH.parent / "scripts")]

import build_fixture_corpus  # noqa: E402
import workloads  # noqa: E402
from monotile.sampling import threshold_probability  # noqa: E402
from tracing import Probe, Tracer  # noqa: E402

HOST_WORKLOADS = [w for w in workloads.WORKLOADS.values() if isinstance(w, workloads.HostWorkload)]
# Host workloads whose 40-vertex warm-up op reaches the tie search; ties-sparse's finds no blue copy.
TIE_SEARCHING = {"pipeline-dense", "copy-avoider"}


@pytest.mark.parametrize("workload", HOST_WORKLOADS, ids=lambda w: w.name)
def test_a_traced_host_op_runs_clean(workload):
    tracer = Tracer()
    try:
        workloads.install_layer_spans(tracer)
        # The warm-up op of HostWorkload.setup, traced.
        small = workloads.HostWorkload(
            workload.name, 40, workload.C, workload.adversary, workload.text_round_trip
        )
        probe = Probe(tracer)
        small.op({"p": threshold_probability(40, workload.C, workloads.K3), "seed": 1}, 0, probe)
    finally:
        tracer.unwrap_all()
    assert probe.errors == []
    assert {"extraction.extract_tiling", "extraction.maximal_cluster_family"} <= {s[0] for s in tracer.spans}
    # The tie search is traced where maximal_cluster_family calls it, through extraction's global.
    tie_searches = [
        s for s in tracer.spans
        if s[0] == "richness.find_side_good_copy" and tracer.spans[s[3]][0] == "extraction.maximal_cluster_family"
    ]
    assert tie_searches or workload.name not in TIE_SEARCHING


def test_a_traced_desk_op_runs_clean(tmp_path):
    desk = workloads.WORKLOADS["desk-oracles"]
    state = desk.setup(1, tmp_path)
    tracer = Tracer()
    try:
        workloads.install_layer_spans(tracer)
        probe = Probe(tracer)
        desk.op(state, 0, probe)
    finally:
        tracer.unwrap_all()
    assert probe.errors == []
    assert {
        "richness.richness_probe", "oracles.richness_decide", "oracles.clique_supersat_count",
        "clusters.cluster_process", "richness.find_side_good_copy",
    } <= {s[0] for s in tracer.spans}


def test_desk_corpus_is_the_documented_corpus(tmp_path, monkeypatch):
    """The desk-oracles round verifies the corpus ``scripts/build_fixture_corpus.py`` writes."""
    bench, script = tmp_path / "bench", tmp_path / "script"
    workloads.write_corpus(bench)
    monkeypatch.setattr(sys, "argv", ["build_fixture_corpus.py", "--dir", str(script)])
    assert build_fixture_corpus.main() == 0
    names = sorted(p.name for p in bench.iterdir())
    assert len(names) == 31 and names == sorted(p.name for p in script.iterdir())
    for name in names:
        assert (bench / name).read_bytes() == (script / name).read_bytes(), name

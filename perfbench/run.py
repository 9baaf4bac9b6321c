#!/usr/bin/env python3
"""Benchmark for monotile: seeded sweep trials and desk-scale oracle rounds.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ties-sparse --seed 1 --seconds 20 --trace 0

Ops run one after another in a closed loop for ``--seconds``.  Each op is
checked; a check that fails, or an exception, counts the op as failed.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` layer spans are recorded and the
JSON carries the per-layer metrics instead.  Human-readable lines, a
summary file and (when tracing) the spans go to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
SETUP_REPEATS = 5
DIGEST_OPS = 3

from speed import NOMINAL_S, reference_seconds
from stats import tail
from tracing import Probe, Tracer, layer_self_shares, span_totals

LAYERS = (
    "sampling", "graphs", "adversaries", "embeddings", "richness", "clusters",
    "extraction", "tilings", "oracles", "aux_hypergraph", "instances", "fixtures",
)
SPAN_METRICS = (
    ("sampling.sample_gnp.calls", "calls/op"),
    ("sampling.sample_gnp.s", "s/op"),
    ("graphs.write_graph_text.s", "s/op"),
    ("graphs.parse_graph_text.s", "s/op"),
    ("graphs.adjacency.s", "s/op"),
    ("adversaries.colour_with.calls", "calls/op"),
    ("adversaries.colour_with.s", "s/op"),
    ("embeddings.find_mono_copy.calls", "calls/op"),
    ("embeddings.find_mono_copy.s", "s/op"),
    ("embeddings.find_mono_copy.hit_frac", "ratio"),
    ("richness.find_side_good_copy.calls", "calls/op"),
    ("richness.find_side_good_copy.s", "s/op"),
    ("richness.find_side_good_copy.hit_frac", "ratio"),
    ("richness.richness_probe.calls", "calls/op"),
    ("richness.richness_probe.s", "s/op"),
    ("clusters.cluster_process.calls", "calls/op"),
    ("clusters.cluster_process.s", "s/op"),
    ("clusters.cluster_process.failure_frac", "ratio"),
    ("clusters.verify_cluster.s", "s/op"),
    ("extraction.extract_tiling.s", "s/op"),
    ("extraction.extract_tiling.self_s", "s/op"),
    ("extraction.maximal_cluster_family.s", "s/op"),
    ("tilings.validate_tiling.s", "s/op"),
    ("oracles.exact_rt.s", "s/op"),
    ("oracles.exact_rt.colourings", "colourings/op"),
    ("oracles.richness_decide.s", "s/op"),
    ("oracles.richness_decide.trials", "trials/op"),
    ("oracles.good_copy_witness_count.calls", "calls/op"),
    ("oracles.good_copy_witness_count.s", "s/op"),
    ("oracles.clique_supersat_count.s", "s/op"),
    ("aux_hypergraph.build_aux_hypergraph.s", "s/op"),
    ("aux_hypergraph.aux_degree_check.s", "s/op"),
    ("instances.planted_process_instance.s", "s/op"),
    ("fixtures.verify_fixtures.s", "s/op"),
)
# Per-op counts the ops record themselves, and ratios over extract_tiling calls.
COUNTER_METRICS = (
    ("sampling.edges", "edges/op"),
    ("graphs.text_bytes", "B/op"),
    ("extraction.ties", "ties/op"),
    ("extraction.cluster_vertex_frac", "ratio"),
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s/op",
    "op_s_tail": "s/op",
    "ops_per_s": "ops/s",
    "ok_frac": "ok/attempted",
    "achieved_over_target": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class OpResult:
    seconds: float
    scaled: float  # op time scaled to nominal machine speed (see speed.py)
    reference: float
    errors: tuple[str, ...]
    digest: tuple[str, ...]
    ratios: tuple[float, ...]


def measure(op, seconds: float, tracer: Tracer | None = None) -> list[OpResult]:
    """Run ``op(i, probe)`` for i = 0, 1, ... in a closed loop for ``seconds``.

    At least one op runs.  An op that raises is recorded as failed.  The
    machine-speed reference is timed before and after each op (and wherever
    the op calls ``probe.calibrate()``), outside the timed interval.
    """
    results: list[OpResult] = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        gc.collect()
        probe = Probe(tracer)
        if tracer is not None:
            tracer.op = len(results)
        probe.calibrate()
        try:
            op(len(results), probe)
        except Exception as exc:  # a raising op is a failed op, never a crash
            probe.errors.append(f"raised {type(exc).__name__}: {exc}")
        probe.calibrate()
        results.append(OpResult(
            probe.seconds, probe.scaled, statistics.fmean(probe.references),
            tuple(probe.errors), tuple(probe.digest), tuple(probe.ratios),
        ))
    return results


def end_to_end_metrics(results: list[OpResult], setup_samples: list[float]) -> dict[str, float]:
    times = [r.scaled for r in results]
    ratios = [x for r in results for x in r.ratios]
    failed = sum(1 for r in results if r.errors)
    return {
        "setup_s": statistics.median(setup_samples),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail(times).value,
        "ops_per_s": len(times) / sum(times),
        "ok_frac": (len(results) - failed) / len(results),
        "achieved_over_target": statistics.fmean(ratios) if ratios else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(tracer: Tracer, results: list[OpResult], check_spans: frozenset[str]) -> dict[str, float]:
    ops = len(results)
    totals = span_totals(tracer.spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "notes": 0.0}
    out: dict[str, float] = {}
    for name, _ in SPAN_METRICS:
        span, field = name.rsplit(".", 1)
        t = totals.get(span, empty)
        if field.endswith("_frac"):
            out[name] = t["notes"] / t["calls"] if t["calls"] else 0.0
        elif field in ("colourings", "trials"):
            out[name] = t["notes"] / ops
        else:
            out[name] = t[field] / ops
    extractions = totals.get("extraction.extract_tiling", empty)["calls"]
    family = totals.get("extraction.maximal_cluster_family", empty)
    out["sampling.edges"] = tracer.counters["sampling.edges"] / ops
    out["graphs.text_bytes"] = tracer.counters["graphs.text_bytes"] / ops
    out["extraction.ties"] = family["notes"] / ops
    out["extraction.cluster_vertex_frac"] = (
        tracer.counters["extraction.cluster_vertex_frac"] / extractions if extractions else 0.0
    )
    shares = layer_self_shares(tracer.spans, sum(r.seconds for r in results), check_spans)
    for layer in LAYERS:
        out[f"{layer}.self_frac"] = shares.get(layer, 0.0)
    return out


def per_layer_units() -> dict[str, str]:
    units = dict(SPAN_METRICS) | dict(COUNTER_METRICS)
    units.update({f"{layer}.self_frac": "ratio" for layer in LAYERS})
    return units


def digest(results: list[OpResult], ops: int = DIGEST_OPS) -> str:
    h = hashlib.sha256()
    for r in results[:ops]:
        h.update("\n".join(r.digest).encode() + b"\n\x1e")
    return h.hexdigest()[:16]


def run_context(args, ops: int) -> dict:
    import numpy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        if done.returncode == 0:
            sha = done.stdout.strip()
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
    }


def time_setups(args, work_dir: Path) -> tuple[list[float], list[float], Path]:
    """Set up ``SETUP_REPEATS`` times, each in a fresh interpreter.

    Returns the wall times, the same scaled to nominal machine speed, and the
    directory of the last set-up.
    """
    samples, scaled = [], []
    for r in range(SETUP_REPEATS):
        target = work_dir / f"setup{r}"
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only", str(target),
        ]
        before = reference_seconds(repeats=3)
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
        samples.append(time.perf_counter() - start)
        scaled.append(samples[-1] * NOMINAL_S * 2 / (before + reference_seconds(repeats=3)))
        if done.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{done.stderr}")
    return samples, scaled, target


def import_monotile() -> None:
    """Import monotile from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "monotile" / "__init__.py").is_file():
        raise SystemExit(f"error: no monotile sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import monotile

    if Path(monotile.__file__).resolve().parent != (src / "monotile").resolve():
        raise SystemExit(f"error: imported monotile from {monotile.__file__}, not {src}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_monotile()
    import workloads

    known = workloads.WORKLOADS | workloads.REFERENCE_WORKLOADS
    if args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(known)}")
    workload = known[args.workload]
    if args.setup_only is not None:
        workload.setup(args.seed, args.setup_only)
        return 0

    work_dir = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            setup_walls = setup_samples = []
            state = workload.setup(args.seed, work_dir / "main")
        else:
            setup_walls, setup_samples, last = time_setups(args, work_dir)
            state = workload.setup(args.seed, last)
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            workloads.install_layer_spans(tracer)
        try:
            results = measure(lambda i, probe: workload.op(state, i, probe), args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.unwrap_all()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(1 for r in results if r.errors)
    times = [r.scaled for r in results]
    op_tail = tail(times)
    context = run_context(args, len(results))
    summary = {
        "context": context,
        "digest": digest(results),
        "digest_ops": min(DIGEST_OPS, len(results)),
        "op_digests": [hashlib.sha256("\n".join(r.digest).encode()).hexdigest()[:16] for r in results],
        "op_seconds": [r.seconds for r in results],
        "op_scaled_seconds": times,
        "references": [r.reference for r in results],
        "nominal_reference_s": NOMINAL_S,
        "setup_seconds": setup_walls,
        "setup_scaled_seconds": setup_samples,
        "tail": {"percentile": op_tail.percentile, "beyond": op_tail.beyond, "samples": op_tail.samples},
        "failures": [f"op {i}: {e}" for i, r in enumerate(results) for e in r.errors][:20],
        "attempted": len(results),
        "failed": failed,
    }
    if args.trace:
        metrics = per_layer_metrics(tracer, results, workloads.CHECK_SPANS)
        units = per_layer_units()
        summary["ops_per_s"] = len(times) / sum(times)
        summary["op_s_p50"] = statistics.median(times)
    else:
        metrics = end_to_end_metrics(results, setup_samples)
        units = END_TO_END_UNITS
    summary["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"summary-{stem}.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.jsonl")

    print(" ".join(f"{k}={v}" for k, v in context.items()))
    for name in units:
        line = f"  {name:40s} {metrics[name]:14.6g} {units[name]}"
        if name == "op_s_tail":
            rule = "" if op_tail.rule_met else ", fewer than 11 ops: maximum"
            line += f"  (p{op_tail.percentile:.1f} of n={op_tail.samples}, {op_tail.beyond} beyond{rule})"
        print(line)
    print(f"  {'failed_frac':40s} {failed / len(results):14.6g} failed/attempted")
    raw = [r.seconds for r in results]
    print(
        f"  times above are scaled to nominal machine speed; wall op_s p50 {statistics.median(raw):.4g} s, "
        f"reference median {statistics.median(r.reference for r in results) * 1000:.3g} ms "
        f"(nominal {NOMINAL_S * 1000:.3g} ms)"
    )
    print(f"  digest of ops 0..{summary['digest_ops'] - 1}: {summary['digest']}")
    for line in summary["failures"]:
        print("  FAILED", line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

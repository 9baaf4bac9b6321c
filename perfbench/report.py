#!/usr/bin/env python3
"""Traced-run report: where each workload spends its op time, and what tracing costs.

For each workload this runs the benchmark twice, untraced and traced, with
the same seed, and prints:

- each layer's self-time share of op time (from the traced run's spans);
- the per-layer metrics that are non-zero;
- the tracing overhead, as the drop in ``ops_per_s`` from the untraced run;
- whether both runs produced the same per-op output digests;
- the run context (git sha, nproc, Python and numpy versions, seed, ops).

Usage, from the root of a checkout:

    python3 perfbench/report.py --seed 1 --seconds 20 [--workload NAME ...]

``--workload`` also takes the reference sizes in ``workloads.REFERENCE_WORKLOADS``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = [w["name"] for w in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["workloads"]]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    subprocess.run(command, cwd=BENCH.parent, check=True, stdout=subprocess.DEVNULL, timeout=600)
    summary = BENCH / "_out" / f"summary-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(summary.read_text(encoding="utf-8"))


def report(workload: str, seed: int, seconds: float) -> None:
    plain = run(workload, seed, seconds, 0)
    traced = run(workload, seed, seconds, 1)
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    units = {k: v["unit"] for k, v in traced["metrics"].items()}
    untraced_rate = plain["metrics"]["ops_per_s"]["value"]
    common = min(len(plain["op_digests"]), len(traced["op_digests"]))
    same = plain["op_digests"][:common] == traced["op_digests"][:common]
    times = traced["op_scaled_seconds"]

    print(f"## {workload}")
    print("context: " + " ".join(f"{k}={v}" for k, v in plain["context"].items()))
    print(
        f"untraced: {plain['attempted']} ops, ops_per_s={untraced_rate:.4g}, "
        f"op_s_p50={plain['metrics']['op_s_p50']['value']:.4g} s, failed={plain['failed']}"
    )
    print(
        f"traced:   {traced['attempted']} ops, ops_per_s={traced['ops_per_s']:.4g}, "
        f"op_s min/p50/max={min(times):.4g}/{statistics.median(times):.4g}/{max(times):.4g} s (scaled), "
        f"failed={traced['failed']}"
    )
    print(f"tracing overhead: {1 - traced['ops_per_s'] / untraced_rate:+.1%} of untraced ops_per_s")
    print(f"digests of the first {common} ops equal across the two runs: {same}")
    print("layer self-time share of op time:")
    shares = {k: v for k, v in metrics.items() if k.endswith(".self_frac") and v > 0}
    for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {name.removesuffix('.self_frac'):16s} {share:7.1%}")
    print("per-layer metrics (non-zero):")
    for name, value in metrics.items():
        if value and not name.endswith(".self_frac"):
            print(f"  {name:42s} {value:12.5g} {units[name]}")
    print()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", help="default: every workload in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    for workload in args.workload or WORKLOADS:
        report(workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

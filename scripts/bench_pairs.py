#!/usr/bin/env python3
"""Compare a git revision with the working tree on benchmark workloads.

Checks ``--rev`` out into a temporary git worktree, then runs

    python3 perfbench/run.py --workload W --seed S --seconds T

there and in this checkout, alternately, for ``--pairs`` pairs of every
workload named by a ``--workload`` option (it may be given more than once);
each pair runs the workloads in the order given, and the parent side runs
first in even pairs and second in odd ones, for every workload alike.  Of
each run it reads the last line of its output (perfbench's JSON summary)
and the per-op output digests of the summary file it leaves in
``perfbench/_out/``.  For each workload and every end-to-end metric that
``BENCHMARK.json`` declares, it prints each side's median and quartiles, the
change of the medians, how many pairs the working tree won (ties count for
neither side), and ``WORSE`` when the working tree's median is worse than
the parent's by more than the metric's bound.  Then it prints whether the
two runs of every pair agree on the outputs of the ops both completed.  The
worktree is removed on exit, also when a run fails.  Example, from the root
of a checkout:

    python3 scripts/bench_pairs.py --rev HEAD --workload pipeline-dense --workload ties-sparse \
        --seed 1 --seconds 20 --pairs 10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One run: its end-to-end metric values and its per-op output digests.
Run = tuple[dict[str, float], list[str]]


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> Run:
    """One benchmark run in ``checkout``: the metric values of its last output line
    and the per-op output digests of its summary file."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds),
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark run in {checkout} failed (exit {done.returncode}):\n{done.stderr}")
    summary = json.loads(lines[-1])
    if summary["failed"]:
        print(f"  {checkout}: {summary['failed']} of {summary['attempted']} ops failed", file=sys.stderr)
    saved = checkout / "perfbench" / "_out" / f"summary-{workload}-seed{seed}-trace0.json"
    digests = json.loads(saved.read_text(encoding="utf-8"))["op_digests"]
    return {name: metric["value"] for name, metric in summary["metrics"].items()}, digests


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def report(metrics: list[dict], parent: list[dict[str, float]], change: list[dict[str, float]]) -> list[str]:
    """One line per end-to-end metric: medians, quartiles, change of the medians and wins,
    then ``WORSE`` when the change's median is worse than the parent's by more than the
    metric's relative ``bound`` (a metric without one is never marked)."""
    lines = [
        f"{'metric':22s} {'parent p50':>12s} {'[q1, q3]':>25s} {'change p50':>12s} {'[q1, q3]':>25s}"
        f" {'delta':>8s} {'wins':>6s}"
    ]
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        old, new = [run[name] for run in parent], [run[name] for run in change]
        wins = sum(1 for a, b in zip(old, new) if sign * (b - a) > 0)
        old_mid, new_mid = statistics.median(old), statistics.median(new)
        delta = f"{(new_mid - old_mid) / old_mid:+.1%}" if old_mid else "n/a"
        bound = metric.get("bound")
        worse = bound is not None and sign * (new_mid - old_mid) < -bound * abs(old_mid)
        (o1, o3), (n1, n3) = quartiles(old), quartiles(new)
        lines.append(
            f"{name:22s} {old_mid:12.6g} {f'[{o1:.6g}, {o3:.6g}]':>25s} {new_mid:12.6g}"
            f" {f'[{n1:.6g}, {n3:.6g}]':>25s} {delta:>8s} {f'{wins}/{len(old)}':>6s}"
            + (f"  WORSE (bound {bound:.0%})" if worse else "")
        )
    return lines


def digest_agreement(pairs: list[tuple[list[str], list[str]]]) -> str:
    """Whether each pair's two runs gave the same per-op digests on the ops both completed:
    how many ops were compared, and the first pair and op (counted from 1 and 0) that differ."""
    common = [min(len(old), len(new)) for old, new in pairs]
    differ = [(i, j) for i, (old, new) in enumerate(pairs) for j in range(common[i]) if old[j] != new[j]]
    if not differ:
        return f"op_digests agree on all {sum(common)} common ops of {len(pairs)} pairs"
    i, j = differ[0]
    return f"op_digests DIFFER on {len(differ)} of {sum(common)} common ops; first at pair {i + 1}, op {j}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rev", required=True, help="the parent revision, e.g. HEAD or a commit")
    parser.add_argument("--workload", required=True, action="append", help="repeat for several workloads")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    parent: dict[str, list[Run]] = {w: [] for w in args.workload}
    change: dict[str, list[Run]] = {w: [] for w in args.workload}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        tree = Path(scratch) / "parent"
        add = ["git", "worktree", "add", "--quiet", "--detach", str(tree), args.rev]
        subprocess.run(add, cwd=ROOT, check=True)
        try:
            for i in range(args.pairs):
                for workload in parent:
                    sides = [(tree, parent[workload]), (ROOT, change[workload])]
                    for checkout, runs in sides if i % 2 == 0 else sides[::-1]:
                        runs.append(run_bench(checkout, workload, args.seed, args.seconds))
                    print(
                        f"pair {i + 1}/{args.pairs} {workload}: op_s_p50"
                        f" parent {parent[workload][-1][0]['op_s_p50']:.6g}"
                        f" change {change[workload][-1][0]['op_s_p50']:.6g}", file=sys.stderr, flush=True,
                    )
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT, check=False)
            subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=False)

    for workload in parent:
        print(
            f"workload={workload} seed={args.seed} seconds={args.seconds}"
            f" pairs={args.pairs} rev={args.rev}"
        )
        old, new = parent[workload], change[workload]
        print("\n".join(report(metrics, [m for m, _ in old], [m for m, _ in new])))
        print(digest_agreement([(a, b) for (_, a), (_, b) in zip(old, new)]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Ties-plus-greedy against whole-host greedy on the benchmark's host workloads.

For each host of a workload (built as ``perfbench/workloads.py`` builds it:
trial seed, ``sample_gnp``, the workload's adversary), it counts the hosts
where ``extract_tiling``'s pick, the best of its ties-plus-greedy and its
whole-host greedy candidates, beats the best whole-host greedy candidate
(``greedy_candidates``) alone, and compares mean achieved/target and the
median time of ``extract_tiling`` and of ``greedy_candidates``.

    PYTHONPATH=src python scripts/compare_tie_candidates.py --seed 1
"""

import argparse
import statistics
import time

from monotile.adversaries import AdversarySpec, colour_with
from monotile.extraction import extract_tiling, greedy_candidates
from monotile.graphs import pattern_by_name
from monotile.patterns import PatternStats
from monotile.sampling import derive_seed, sample_gnp, threshold_probability
from monotile.sweep import trial_seed

EPSILON = 0.15
# (name, n, C, adversary, ops): perfbench's host workloads.
WORKLOADS = (
    ("ties-sparse", 500, 0.5, "majority-degree", 300),
    ("pipeline-dense", 700, 5.0, "uniform-random", 60),
    ("copy-avoider", 100, 5.0, "copy-avoider-greedy", 300),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    H = PatternStats.from_graph(pattern_by_name("k3"))
    for name, n, C, adversary, ops in WORKLOADS:
        p = threshold_probability(n, C, H)
        wins, full, greedy_only, t_full, t_greedy = 0, [], [], [], []
        for i in range(ops):
            seed = trial_seed(args.seed, n, C, adversary, i)
            cg = colour_with(sample_gnp(n, p, derive_seed(seed, "sample")), AdversarySpec(adversary, {}, derive_seed(seed, "colour")))
            start = time.perf_counter()
            _, report = extract_tiling(cg, H, EPSILON)
            t_full.append(time.perf_counter() - start)
            start = time.perf_counter()
            greedy = max(t.size for t in greedy_candidates(cg, H))
            t_greedy.append(time.perf_counter() - start)
            wins += report.achieved_size > greedy
            if report.target_size:
                full.append(report.achieved_size / report.target_size)
                greedy_only.append(greedy / report.target_size)
        print(
            f"{name} (ops 0-{ops - 1}): ties-plus-greedy beats greedy on {wins} of {ops} hosts; "
            f"mean achieved/target {statistics.fmean(full):.4f} with the tie scan, "
            f"{statistics.fmean(greedy_only):.4f} greedy only; median extraction "
            f"{statistics.median(t_full) * 1e3:.2f} ms with the tie scan, {statistics.median(t_greedy) * 1e3:.2f} ms greedy only"
        )


if __name__ == "__main__":
    main()

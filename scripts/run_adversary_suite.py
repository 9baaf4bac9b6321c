#!/usr/bin/env python3
"""Complete-host adversary suite.

Runs tiling extraction on K_n against every adversary strategy over many
seeds and reports how the achieved sizes compare with the density target
floor(n/(2k-alpha) - eps*n).  On complete hosts this should succeed for
every colouring the adversaries produce.
"""

import argparse
import json

from monotile.adversaries import ADVERSARY_NAMES, AdversarySpec, colour_with
from monotile.extraction import extract_tiling
from monotile.graphs import Graph, pattern_by_name
from monotile.patterns import PatternStats
from monotile.sampling import derive_seed
from monotile.tilings import validate_tiling


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=50)
    parser.add_argument("--pattern", type=str, default="k3")
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--trials", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=str, default=None)
    args = parser.parse_args()

    stats = PatternStats.from_graph(pattern_by_name(args.pattern))
    host = Graph.complete(args.n)
    results = []
    for adversary in ADVERSARY_NAMES:
        sizes = []
        for trial in range(args.trials):
            seed = derive_seed("adversary-suite", args.seed, adversary, trial)
            coloured = colour_with(host, AdversarySpec(adversary, {"pattern": stats.pattern}, seed))
            tiling, report = extract_tiling(coloured, stats, args.epsilon, seed=seed)
            assert validate_tiling(coloured, stats, tiling)
            sizes.append(report.achieved_size)
        results.append(
            {
                "adversary": adversary,
                "target": report.target_size,
                "min": min(sizes),
                "max": max(sizes),
                "mean": sum(sizes) / len(sizes),
                "all_met_target": min(sizes) >= report.target_size,
            }
        )
        print(
            f"{adversary:22s} target={report.target_size:3d} "
            f"min={min(sizes):3d} max={max(sizes):3d} mean={sum(sizes)/len(sizes):6.2f}"
        )

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2)
        print(f"wrote {args.out}")
    return 0 if all(r["all_met_target"] for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())

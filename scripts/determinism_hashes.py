#!/usr/bin/env python3
"""Print output hashes over a seed grid, one line per sweep cell.

Each line names the cell (seed, n, C, adversary) and gives five hashes of
what the pipeline produced for trial 0 of that cell: the sampled host's
``content_hash``, the coloured host's ``content_hash`` (the copy-avoider
avoids the swept pattern, as in ``run_sweep``), a hash of the extracted
tiling's ``repr``, a hash of the extraction report JSON, and a hash of the
``run_sweep`` CSV for the cell alone.  The report carries
``rounding_table_version`` and the CSV its schema line, so across a version
or schema bump compare the host, colouring and tiling columns.  After the
cells come one line per desk-scale oracle output that the golden oracle
test does not pin: the hyperedge count and degree report of the container
hypergraph for K3 and P4 at n = 8, 10, 12, 14, and ``exact_rt`` for K3, P3
and P4 on K3 to K7.  Run it on two checkouts and diff the outputs: a change
that claims byte-identical results must print the same lines.

    PYTHONPATH=src python scripts/determinism_hashes.py > hashes.txt
"""

import argparse
import hashlib

from monotile.adversaries import AdversarySpec, colour_with
from monotile.aux_hypergraph import aux_degree_check, build_aux_hypergraph
from monotile.extraction import extract_tiling
from monotile.graphs import Graph, pattern_by_name
from monotile.oracles import exact_rt
from monotile.patterns import PatternStats
from monotile.sampling import derive_seed, sample_gnp, threshold_probability
from monotile.sweep import SweepPlan, run_sweep, trial_seed


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cell_line(pattern_name: str, n: int, C: float, adversary: str, seed: int, epsilon: float) -> str:
    pattern = pattern_by_name(pattern_name)
    stats = PatternStats.from_graph(pattern)
    trial = trial_seed(seed, n, C, adversary, 0)
    host = sample_gnp(n, threshold_probability(n, C, stats), derive_seed(trial, "sample"))
    spec = AdversarySpec(adversary, {"pattern": pattern}, derive_seed(trial, "colour"))
    coloured = colour_with(host, spec)
    tiling, report = extract_tiling(coloured, stats, epsilon, seed=derive_seed(trial, "extract"))
    plan = SweepPlan(
        pattern_name=pattern_name, pattern=pattern, n_list=(n,), C_list=(C,),
        epsilon=epsilon, trials=1, seed_base=seed, adversaries=(adversary,),
    )
    csv = run_sweep(plan).to_csv()
    return (
        f"seed={seed} n={n} C={C:g} {adversary} "
        f"host={host.content_hash()} colouring={coloured.content_hash()} "
        f"tiling={_digest(repr(tiling))} report={_digest(report.to_json())} csv={_digest(csv)}"
    )


def oracle_lines():
    for name in ("k3", "p4"):
        stats = PatternStats.from_graph(pattern_by_name(name))
        for n in (8, 10, 12, 14):
            aux = build_aux_hypergraph(n, range(n // 2), range(n // 2, n), stats)
            yield f"aux {name} n={n} {(len(aux.hyperedges), aux_degree_check(aux))!r}"
    for name in ("k3", "p3", "p4"):
        stats = PatternStats.from_graph(pattern_by_name(name))
        for n in range(3, 8):
            yield f"rt {name} K{n} {exact_rt(stats, Graph.complete(n))!r}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pattern", type=str, default="k3")
    parser.add_argument("--n-list", type=str, default="60,150,300")
    parser.add_argument("--c-list", type=str, default="0.5,1,5")
    parser.add_argument(
        "--adversaries",
        type=str,
        default="uniform-random,planted-partition,majority-degree,copy-avoider-greedy",
    )
    parser.add_argument("--seeds", type=str, default="0,1,2")
    parser.add_argument("--epsilon", type=float, default=0.15)
    args = parser.parse_args()

    for seed in (int(x) for x in args.seeds.split(",") if x):
        for n in (int(x) for x in args.n_list.split(",") if x):
            for C in (float(x) for x in args.c_list.split(",") if x):
                for adversary in args.adversaries.split(","):
                    print(cell_line(args.pattern, n, C, adversary, seed, args.epsilon), flush=True)
    for line in oracle_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

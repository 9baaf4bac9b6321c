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
and P4 on K3 to K7.  Last come the probe lines: a hash of the ``repr`` of the
K3 ``richness_probe`` witnesses on each of 16 seeded uniform-random K6
colourings, over every disjoint pair of a 2- or 3-set and a 2- or 3-set, and
a hash of the ``repr`` of each ``cluster_process`` result and trace on
planted K3 hosts at s = 24 and 48 for four slacks.  The text lines close the
list: a hash of each parse outcome (the graph's ``repr`` or the ``ValueError``
message) for a fixed list of loose and malformed graph texts, and for the
plain and coloured texts of a G(700, C=5) host sampled with seed 7 (coloured
uniformly at random, seed 7).  Run it on two checkouts and diff the outputs: a
change that claims byte-identical results must print the same lines.

    PYTHONPATH=src python scripts/determinism_hashes.py > hashes.txt
"""

import argparse
import hashlib
from itertools import combinations

from monotile.adversaries import AdversarySpec, colour_with
from monotile.aux_hypergraph import aux_degree_check, build_aux_hypergraph
from monotile.clusters import cluster_process
from monotile.extraction import extract_tiling
from monotile.graphs import Graph, parse_graph_text, pattern_by_name, write_graph_text
from monotile.instances import planted_process_instance
from monotile.oracles import exact_rt
from monotile.patterns import PatternStats
from monotile.richness import richness_probe
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
            yield f"aux {name} n={n} {(aux.num_hyperedges, aux_degree_check(aux))!r}"
    for name in ("k3", "p3", "p4"):
        stats = PatternStats.from_graph(pattern_by_name(name))
        for n in range(3, 8):
            yield f"rt {name} K{n} {exact_rt(stats, Graph.complete(n))!r}"


def probe_lines():
    k3 = PatternStats.from_graph(pattern_by_name("k3"))
    pairs = [
        (xs, ys)
        for a in (2, 3)
        for b in (2, 3)
        for xs in combinations(range(6), a)
        for ys in combinations([v for v in range(6) if v not in xs], b)
    ]
    for seed in range(16):
        spec = AdversarySpec("uniform-random", {}, derive_seed("hashes-probe", seed))
        cg = colour_with(Graph.complete(6), spec)
        witnesses = [richness_probe(cg, k3, xs, ys) for xs, ys in pairs]
        yield f"probe K6 seed={seed} {_digest(repr(witnesses))}"
    for eta in (0.3, 0.35, 0.4, 0.5):
        for s in (24, 48):
            for i, (fraction, cross) in enumerate(((1.0, True), (0.0, True), (0.45, True), (0.5, False))):
                inst = planted_process_instance(k3, s, derive_seed("hashes-process", eta, s, i), fraction, cross)
                trace = []
                out = cluster_process(
                    inst.coloured, k3, inst.x_vertices, inst.y_vertices, eta,
                    inst.blue_tiling, inst.red_tiling, seed=i, trace=trace,
                )
                yield f"process eta={eta:g} s={s} fraction={fraction:g} cross={cross} {_digest(repr((out, trace)))}"


# Texts the parser must read the same way on every checkout: CRLF, tabs, blank lines,
# leading \f and \v, zero-padded and overlong tokens, and one text per way to fail.
LOOSE_TEXTS = (
    "3 2\r\n0 1\r\n1 2\r\n",
    "3 2\n0\t1\n\t1 \t 2\t\n",
    "\n\n 3 2 \n\n0 1 b\n \t\n1 2 r\n",
    "3 2\n\x0c0 1 r\n\x0b 1 2 b\r",
    "3 1\n\x0b0 1",
    "003 0001\n0000000000000000000000001 02",
    "3 1\n0 0000000000000000000000001",
    "3 1\n0 1\r",
    "3 1\n0 1 r\x0b",
    "3 1\n0 1\r\r\n",
    "3 1\n0 1r",
    "3 1\n0 1 rb",
    "3 1\n0 \u0663",
    "1 0\n\r\n00000000000000000000022 1 b\n\x0c",
    "",
    "3",
    "3 1 1\n0 1",
    "3 2\n0 1",
    "3 2\n0 1\n1 2 b",
    "3 1\n0 1 x",
    "3 1\n1 1",
    "3 1\n0 3",
    "3 1\n99999999999999999999 99999999999999999998",
    "3 2\n0 1\n1 0",
    "3 2\n0 1 r\n1 0 b",
)


def _parse_outcome(text: str) -> str:
    try:
        return repr(parse_graph_text(text))
    except ValueError as exc:
        return str(exc)


def text_lines():
    for text in LOOSE_TEXTS:
        yield f"text {text!r} {_digest(_parse_outcome(text))}"
    k3 = PatternStats.from_graph(pattern_by_name("k3"))
    host = sample_gnp(700, threshold_probability(700, 5.0, k3), 7)
    coloured = colour_with(host, AdversarySpec("uniform-random", {}, 7))
    for name, g in (("plain", host), ("coloured", coloured)):
        yield f"text G(700, C=5) seed=7 {name} {_digest(_parse_outcome(write_graph_text(g)))}"


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
    for line in probe_lines():
        print(line, flush=True)
    for line in text_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Print the determinism transcript: one readable line per seeded output.

``tests/determinism_transcript.txt`` holds this output, and a tier-1 test
regenerates it and compares the two line by line.  A change that means to
alter results bumps ``rounding_table_version`` (or the CSV schema) and
regenerates the file, whose diff then names every line that moved:

    PYTHONPATH=src python scripts/determinism_hashes.py > tests/determinism_transcript.txt

A line starts with its section and inputs.  Short values are printed in
full, long ones as the first 16 hex digits of their SHA-256.  The sections:

- ``extract`` pins what the paper is about, the tiling extracted from a
  coloured G(n, p): sizes, colour and per-colour copy counts in the open,
  then the tiling, report and cluster family, on K3, P3 and C4 hosts;
- ``sweep`` pins the experiment path, one ``run_sweep`` K3 trial per cell:
  host, colouring, tiling, report and the cell's CSV;
- ``avoider`` pins the copy-avoider's incremental copy counting on K3, P4
  and C4 hosts, each avoiding the pattern it was sampled for;
- ``rt``, ``richness``, ``witnesses``, ``tilings``, ``aux`` and ``planted``
  pin the brute-force oracles, the second route that checks the engine;
- ``probe`` and ``process`` pin ``richness_probe`` on seeded K6 colourings
  and ``cluster_process`` results and traces on planted K3 hosts;
- ``text`` pins the canonical text every ``content_hash`` reads
  (``write``) and what the parser makes of loose, malformed and written
  texts (``parse``).
"""

import hashlib
from itertools import combinations, product

from monotile.adversaries import ADVERSARY_NAMES, AdversarySpec, colour_with
from monotile.aux_hypergraph import aux_degree_check, build_aux_hypergraph
from monotile.clusters import cluster_process
from monotile.extraction import extract_tiling, maximal_cluster_family
from monotile.graphs import Colour, Graph, parse_graph_text, pattern_by_name, write_graph_text
from monotile.instances import planted_process_instance
from monotile.oracles import exact_rt, good_copy_witness_count, max_mono_tiling_size, richness_decide
from monotile.patterns import PatternStats
from monotile.richness import richness_probe
from monotile.sampling import derive_seed, sample_gnp, threshold_probability
from monotile.sweep import SweepPlan, run_sweep, trial_seed

EXTRACT_N = {"k3": 150, "p3": 90, "c4": 60}
EXTRACT_C = (0.5, 3.0)
EXTRACT_ADVERSARIES = ("uniform-random", "planted-partition", "majority-degree")
EXTRACT_SEEDS = (0, 1)
EXTRACT_EPSILONS = (0.15, 0.05)

SWEEP_PATTERN = "k3"
SWEEP_N = (60, 150, 300)
SWEEP_C = (0.5, 1.0, 5.0)
SWEEP_ADVERSARIES = ("uniform-random", "planted-partition", "majority-degree", "copy-avoider-greedy")
SWEEP_SEEDS = (0, 1, 2)
SWEEP_EPSILON = 0.15

AVOIDER_N = (("k3", 60), ("k3", 150), ("k3", 300), ("p4", 30), ("c4", 30))
AVOIDER_C = (0.5, 5.0)
AVOIDER_SEEDS = (0, 1)

CHORDED_C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (0, 3)])
# (s, seed, cross_red_fraction, with_cross) of the planted process hosts.
PLANTED = ((6, 0, 1.0, True), (6, 1, 0.0, True), (9, 2, 0.5, True), (12, 3, 0.3, True), (6, 4, 0.5, False))

# (label, side sizes, seeds) of the probe runs, and (label, crossings) of the process runs.
PROBES = (
    ("golden-probe", ((2, 2), (2, 3), (3, 3)), range(8)),
    ("hashes-probe", ((2, 2), (2, 3), (3, 2), (3, 3)), range(16)),
)
PROCESS_ETAS = (0.3, 0.35, 0.4, 0.5)
PROCESSES = (
    ("golden-process", ((1.0, True), (0.0, True), (0.5, True), (0.5, False))),
    ("hashes-process", ((1.0, True), (0.0, True), (0.45, True), (0.5, False))),
)

TEXT_N = (60, 700, 1200)
TEXT_C = (0.5, 5.0)
# Texts the parser must read the same way on every checkout: CRLF, tabs, blank lines,
# leading \f and \v, zero-padded and overlong tokens, then one text per way to fail.
LOOSE_TEXTS = (
    "3 2\r\n0 1\r\n1 2\r\n", "3 2\n0\t1\n\t1 \t 2\t\n", "\n\n 3 2 \n\n0 1 b\n \t\n1 2 r\n",
    "3 2\n\x0c0 1 r\n\x0b 1 2 b\r", "3 1\n\x0b0 1", "003 0001\n0000000000000000000000001 02",
    "3 1\n0 0000000000000000000000001", "3 1\n0 1\r", "3 1\n0 1 r\x0b", "3 1\n0 1\r\r\n",
    "3 1\n0 1r", "3 1\n0 1 rb", "3 1\n0 \u0663", "1 0\n\r\n00000000000000000000022 1 b\n\x0c",
    "", "3", "3 1 1\n0 1", "3 2\n0 1", "3 2\n0 1\n1 2 b", "3 1\n0 1 x", "3 1\n1 1", "3 1\n0 3",
    "3 1\n99999999999999999999 99999999999999999998", "3 2\n0 1\n1 0", "3 2\n0 1 r\n1 0 b",
)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _stats(name: str) -> PatternStats:
    return PatternStats.from_graph(pattern_by_name(name))


def _disjoint_pairs(n: int, sizes):
    return [
        (xs, ys)
        for a, b in sizes
        for xs in combinations(range(n), a)
        for ys in combinations([v for v in range(n) if v not in xs], b)
    ]


def extract_lines():
    for (name, n), C, seed in product(EXTRACT_N.items(), EXTRACT_C, EXTRACT_SEEDS):
        H = _stats(name)
        host = sample_gnp(n, threshold_probability(n, C, H), derive_seed("golden", name, C, seed))
        for adversary in EXTRACT_ADVERSARIES:
            cg = colour_with(host, AdversarySpec(adversary, {}, derive_seed("golden", seed)))
            family = maximal_cluster_family(cg, H)
            for eps in EXTRACT_EPSILONS:
                tiling, r = extract_tiling(cg, H, eps, seed=seed)
                yield (
                    f"extract {name} n={n} C={C:g} {adversary} seed={seed} eps={eps:g} "
                    f"achieved={r.achieved_size} target={r.target_size} colour={r.colour} "
                    f"red_copies={r.red_copies} blue_copies={r.blue_copies} "
                    f"cluster_vertices={r.cluster_vertices} truncated={family.truncated} "
                    f"tiling={_digest(repr(tiling))} report={_digest(r.to_json())} "
                    f"family={_digest(repr(family))}"
                )


def sweep_lines():
    pattern = pattern_by_name(SWEEP_PATTERN)
    stats = PatternStats.from_graph(pattern)
    for seed, n, C, adversary in product(SWEEP_SEEDS, SWEEP_N, SWEEP_C, SWEEP_ADVERSARIES):
        trial = trial_seed(seed, n, C, adversary, 0)
        host = sample_gnp(n, threshold_probability(n, C, stats), derive_seed(trial, "sample"))
        coloured = colour_with(host, AdversarySpec(adversary, {"pattern": pattern}, derive_seed(trial, "colour")))
        tiling, report = extract_tiling(coloured, stats, SWEEP_EPSILON, seed=derive_seed(trial, "extract"))
        plan = SweepPlan(
            pattern_name=SWEEP_PATTERN, pattern=pattern, n_list=(n,), C_list=(C,),
            epsilon=SWEEP_EPSILON, trials=1, seed_base=seed, adversaries=(adversary,),
        )
        yield (
            f"sweep seed={seed} n={n} C={C:g} {adversary} "
            f"host={host.content_hash()} colouring={coloured.content_hash()} "
            f"tiling={_digest(repr(tiling))} report={_digest(report.to_json())} "
            f"csv={_digest(run_sweep(plan).to_csv())}"
        )


def avoider_lines():
    for (name, n), C, seed in product(AVOIDER_N, AVOIDER_C, AVOIDER_SEEDS):
        host = sample_gnp(n, threshold_probability(n, C, _stats(name)), derive_seed("golden-avoider", name, n, C, seed))
        coloured = colour_with(host, AdversarySpec("copy-avoider-greedy", {"pattern": name}, seed))
        yield f"avoider {name} n={n} C={C:g} seed={seed} {coloured.content_hash()}"


def oracle_lines():
    k3, p3 = _stats("k3"), _stats("p3")
    for name, n in product(("k3", "p3", "p4"), range(3, 8)):
        yield f"rt {name} K{n} {exact_rt(_stats(name), Graph.complete(n))!r}"
    for name, H in (("k3", k3), ("p3", p3)):
        yield f"rt {name} chorded-C5 {exact_rt(H, CHORDED_C5)!r}"
    for n in (4, 5, 6):
        for s in range(1, n // 2 + 1):
            v = richness_decide(Graph.complete(n), k3, s)
            yield f"richness k3 K{n} s={s} rich={v.rich} mode={v.mode} trials={v.trials} {_digest(repr(v))}"
    pairs = _disjoint_pairs(6, ((2, 3),))
    for seed in range(4):
        cg = colour_with(Graph.complete(6), AdversarySpec("uniform-random", {}, derive_seed("golden-oracle", seed)))
        counts = [good_copy_witness_count(cg, k3, xs, ys) for xs, ys in pairs]
        yield f"witnesses k3 K6 seed={seed} total={sum(counts)} {_digest(repr(counts))}"
        for name, H in (("k3", k3), ("p3", p3)):
            yield f"tilings {name} K6 seed={seed} {[max_mono_tiling_size(cg, H, c) for c in (Colour.RED, Colour.BLUE)]}"
    for name, n in product(("k3", "p4"), (8, 10, 12, 14)):
        aux = build_aux_hypergraph(n, range(n // 2), range(n // 2, n), _stats(name))
        yield f"aux {name} n={n} {(aux.num_hyperedges, aux_degree_check(aux))!r}"
    for s, seed, fraction, cross in PLANTED:
        inst = planted_process_instance(k3, s, seed, fraction, cross)
        yield f"planted k3 s={s} seed={seed} fraction={fraction:g} cross={cross} {inst.coloured.content_hash()}"


def probe_lines():
    k3 = _stats("k3")
    for label, sizes, seeds in PROBES:
        pairs = _disjoint_pairs(6, sizes)
        for seed in seeds:
            cg = colour_with(Graph.complete(6), AdversarySpec("uniform-random", {}, derive_seed(label, seed)))
            yield f"probe {label} K6 seed={seed} {_digest(repr([richness_probe(cg, k3, xs, ys) for xs, ys in pairs]))}"
    for label, crossings in PROCESSES:
        for eta, s, (i, (fraction, cross)) in product(PROCESS_ETAS, (24, 48), enumerate(crossings)):
            inst = planted_process_instance(k3, s, derive_seed(label, eta, s, i), fraction, cross)
            trace = []
            out = cluster_process(
                inst.coloured, k3, inst.x_vertices, inst.y_vertices, eta,
                inst.blue_tiling, inst.red_tiling, seed=i, trace=trace,
            )
            yield (
                f"process {label} eta={eta:g} s={s} fraction={fraction:g} cross={cross} "
                f"{type(out).__name__} {_digest(repr((out, trace)))}"
            )


def _parse_outcome(text: str) -> str:
    try:
        return repr(parse_graph_text(text))
    except ValueError as exc:
        return str(exc)


def text_lines():
    k3 = _stats("k3")
    for n, C in product(TEXT_N, TEXT_C):
        host = sample_gnp(n, threshold_probability(n, C, k3), derive_seed("golden-text", n, C))
        yield f"text write G({n}, C={C:g}) plain {_digest(write_graph_text(host))}"
        for name in ADVERSARY_NAMES:
            coloured = colour_with(host, AdversarySpec(name, {}, derive_seed("golden-text", name)))
            yield f"text write G({n}, C={C:g}) {name} {_digest(write_graph_text(coloured))}"
    for text in LOOSE_TEXTS:
        yield f"text parse {text!r} {_digest(_parse_outcome(text))}"
    host = sample_gnp(700, threshold_probability(700, 5.0, k3), 7)
    coloured = colour_with(host, AdversarySpec("uniform-random", {}, 7))
    for name, g in (("plain", host), ("coloured", coloured)):
        yield f"text parse G(700, C=5) seed=7 {name} {_digest(_parse_outcome(write_graph_text(g)))}"


SECTIONS = (extract_lines, sweep_lines, avoider_lines, oracle_lines, probe_lines, text_lines)


def transcript_lines():
    """Every line of the transcript, section by section."""
    for section in SECTIONS:
        yield from section()


def main() -> int:
    print(*transcript_lines(), sep="\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Golden hashes over seeded outputs: any change to engine output shows here.

``GOLDEN`` hashes every tiling, report and cluster family of the grid, and
``TILING_GOLDEN`` every tiling, colour choice, per-colour copy count and
cluster certificate, both at rounding table version 5: the cluster family is
tie clusters at slack 0 only, and extraction returns the first largest of
four candidates (ties plus a greedy packing of the rest, then a greedy
packing of the whole host, red before blue in each).  Version 5 only drops
the cluster slack from the report and the certificates; the tilings, copy
counts and certificate vertex sets are those of version 4.
``AVOIDER_GOLDEN`` was recorded from the copy-avoider that listed every copy
of the pattern in the host before colouring; the incremental per-colour masks
must reproduce every colouring.  ``ORACLE_GOLDEN`` was recorded from the
oracles that re-read the graph atlas on every call and tried every vertex
permutation of every subset; the cached atlas and the edge-count cut must
reproduce every verdict, count and planted host.  ``TEXT_GOLDEN`` was
recorded from the per-edge f-string writer over hosts stored as edge sets;
the mask-stored hosts and the bulk writer must reproduce every byte of the
canonical text.  ``PROBE_GOLDEN`` was recorded from the sided K3 search that
walked ``iter_bits`` generators and sorted each triangle, with
``richness_probe`` going through ``find_side_good_copy`` and the set-based
validator behind ``cluster_process``; the bit loops and the mask validator
must reproduce every probe witness and every process result and trace.  A
change that means to alter results must say so and bump
``rounding_table_version``.
"""

import hashlib
from itertools import combinations

from monotile.adversaries import ADVERSARY_NAMES, AdversarySpec, colour_with
from monotile.clusters import cluster_process
from monotile.aux_hypergraph import aux_degree_check, build_aux_hypergraph
from monotile.extraction import extract_tiling, maximal_cluster_family
from monotile.graphs import Colour, Graph, pattern_by_name, write_graph_text
from monotile.instances import planted_process_instance
from monotile.oracles import exact_rt, good_copy_witness_count, max_mono_tiling_size, richness_decide
from monotile.patterns import PatternStats
from monotile.richness import richness_probe
from monotile.sampling import derive_seed, sample_gnp, threshold_probability

TILING_GOLDEN = "46fb4aaa924d84337629c916ac092ce54131ae731720bacdd1c8144bec801eff"
GOLDEN = "a2ff413601146e61a7e7e828c04bb82a2a10c7ee4da7e8824fd7fdfbc87ed3d9"

GRID_N = {"k3": 150, "p3": 90, "c4": 60}
GRID_C = (0.5, 3.0)
GRID_ADVERSARIES = ("uniform-random", "planted-partition", "majority-degree")
GRID_SEEDS = (0, 1)
GRID_EPSILONS = (0.15, 0.05)


def grid_cells():
    """``(tiling, report, family)`` for every cell of the golden grid."""
    for name, n in GRID_N.items():
        H = PatternStats.from_graph(pattern_by_name(name))
        for C in GRID_C:
            p = threshold_probability(n, C, H)
            for seed in GRID_SEEDS:
                host = sample_gnp(n, p, derive_seed("golden", name, C, seed))
                for adversary in GRID_ADVERSARIES:
                    cg = colour_with(host, AdversarySpec(adversary, {}, derive_seed("golden", seed)))
                    for eps in GRID_EPSILONS:
                        tiling, report = extract_tiling(cg, H, eps, seed=seed)
                        family = maximal_cluster_family(cg, H)
                        yield tiling, report, family


def _hash_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_golden_extraction_outputs():
    cells = list(grid_cells())
    assert _hash_lines(repr((t, r.to_json(), f)) for t, r, f in cells) == GOLDEN
    assert _hash_lines(
        repr((t, r.achieved_size, r.colour, r.cluster_vertices, r.red_copies, r.blue_copies,
              f.certificates, f.truncated))
        for t, r, f in cells
    ) == TILING_GOLDEN


AVOIDER_GOLDEN = "5550626ba204d02271ab9f8154c33c72f7168291dada14b0edf85d4f5690b46d"

AVOIDER_GRID = (("k3", (60, 150, 300)), ("p4", (30,)), ("c4", (30,)))
AVOIDER_C = (0.5, 5.0)


def avoider_hash() -> str:
    """Hash of copy-avoider colourings, each avoiding the pattern its host was sampled for."""
    h = hashlib.sha256()
    for name, n_list in AVOIDER_GRID:
        H = PatternStats.from_graph(pattern_by_name(name))
        for n in n_list:
            for C in AVOIDER_C:
                p = threshold_probability(n, C, H)
                for seed in GRID_SEEDS:
                    host = sample_gnp(n, p, derive_seed("golden-avoider", name, n, C, seed))
                    spec = AdversarySpec("copy-avoider-greedy", {"pattern": name}, seed)
                    h.update(colour_with(host, spec).content_hash().encode())
                    h.update(b"\n")
    return h.hexdigest()


def test_golden_avoider_colourings():
    assert avoider_hash() == AVOIDER_GOLDEN


ORACLE_GOLDEN = "0592e98268c0114523c9685c905d52a75e9a17c5ecfe2939f26999996204b6fc"


def oracle_outputs():
    """Verdicts, counts and built objects of the brute-force oracles on desk-scale hosts."""
    k3, p3 = (PatternStats.from_graph(pattern_by_name(name)) for name in ("k3", "p3"))
    for H in (k3, p3):
        for n in range(3, 8):
            yield repr(exact_rt(H, Graph.complete(n)))
    chorded_c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (0, 3)])
    for H in (k3, p3):
        yield repr(exact_rt(H, chorded_c5))
    for n in (4, 5, 6):
        for s in range(1, n // 2 + 1):
            yield repr(richness_decide(Graph.complete(n), k3, s))
    pairs = [
        (xs, ys)
        for xs in combinations(range(6), 2)
        for ys in combinations([v for v in range(6) if v not in xs], 3)
    ]
    for seed in range(4):
        cg = colour_with(Graph.complete(6), AdversarySpec("uniform-random", {}, derive_seed("golden-oracle", seed)))
        yield repr([good_copy_witness_count(cg, k3, xs, ys) for xs, ys in pairs])
        for H in (k3, p3):
            yield repr([max_mono_tiling_size(cg, H, c) for c in (Colour.RED, Colour.BLUE)])
    for name in ("k3", "p4"):
        H = PatternStats.from_graph(pattern_by_name(name))
        for n in (8, 10):
            aux = build_aux_hypergraph(n, range(n // 2), range(n // 2, n), H)
            yield repr((len(aux.hyperedges), aux_degree_check(aux)))
    planted = ((6, 0, 1.0, True), (6, 1, 0.0, True), (9, 2, 0.5, True), (12, 3, 0.3, True), (6, 4, 0.5, False))
    for s, seed, fraction, cross in planted:
        yield planted_process_instance(k3, s, seed, fraction, cross).coloured.content_hash()


def oracle_hash() -> str:
    h = hashlib.sha256()
    for line in oracle_outputs():
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_golden_oracle_outputs():
    assert oracle_hash() == ORACLE_GOLDEN


TEXT_GOLDEN = "3c4b787ff4502ee676a7cd2501fffd0886f1f92f67c853be2a52f2ef9206c95e"

TEXT_N = (60, 700, 1200)
TEXT_C = (0.5, 5.0)


def text_hash() -> str:
    """Hash of the canonical text of sampled hosts and of their colourings under every adversary."""
    k3 = PatternStats.from_graph(pattern_by_name("k3"))
    h = hashlib.sha256()
    for n in TEXT_N:
        for C in TEXT_C:
            host = sample_gnp(n, threshold_probability(n, C, k3), derive_seed("golden-text", n, C))
            hosts = [host] + [
                colour_with(host, AdversarySpec(name, {}, derive_seed("golden-text", name)))
                for name in ADVERSARY_NAMES
            ]
            for g in hosts:
                h.update(hashlib.sha256(write_graph_text(g).encode()).digest())
    return h.hexdigest()


def test_golden_canonical_text():
    assert text_hash() == TEXT_GOLDEN


PROBE_GOLDEN = "7ceed0ef62333620691a3b68b445abd34563ee9245f205c8e93a30e6d384f2e1"

PROBE_SIZES = ((2, 2), (2, 3), (3, 3))
PROBE_SEEDS = range(8)
PROCESS_ETAS = (0.3, 0.35, 0.4, 0.5)
PROCESS_CROSSINGS = ((1.0, True), (0.0, True), (0.5, True), (0.5, False))


def probe_outputs():
    """``richness_probe`` witnesses on seeded K6 colourings, then ``cluster_process``
    results and traces on planted hosts, one ``repr`` per line."""
    k3 = PatternStats.from_graph(pattern_by_name("k3"))
    pairs = [
        (xs, ys)
        for a, b in PROBE_SIZES
        for xs in combinations(range(6), a)
        for ys in combinations([v for v in range(6) if v not in xs], b)
    ]
    for seed in PROBE_SEEDS:
        cg = colour_with(Graph.complete(6), AdversarySpec("uniform-random", {}, derive_seed("golden-probe", seed)))
        yield repr([richness_probe(cg, k3, xs, ys) for xs, ys in pairs])
    for eta in PROCESS_ETAS:
        for s in (24, 48):
            for i, (fraction, cross) in enumerate(PROCESS_CROSSINGS):
                inst = planted_process_instance(k3, s, derive_seed("golden-process", eta, s, i), fraction, cross)
                trace = []
                out = cluster_process(
                    inst.coloured, k3, inst.x_vertices, inst.y_vertices, eta,
                    inst.blue_tiling, inst.red_tiling, seed=i, trace=trace,
                )
                yield repr((out, trace))


def test_golden_probe_witnesses_and_processes():
    assert _hash_lines(probe_outputs()) == PROBE_GOLDEN

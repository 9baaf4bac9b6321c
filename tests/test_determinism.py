"""Golden hashes over seeded outputs: any change to engine output shows here.

``GOLDEN`` hashes every tiling, report and cluster family of the grid at
rounding table version 2, where folds whose probe windows cannot hold a copy
are skipped instead of counted as probe failures.  ``TILING_GOLDEN`` was
recorded from the version 1 engine, which re-packed the free set after
building the cluster family; it leaves out what version 2 changed
(``probe_failures``, ``attempts``, the version, the family's leftovers), so
the single greedy+fold loop must reproduce every tiling, colour choice,
copy count and cluster certificate exactly.
``AVOIDER_GOLDEN`` was recorded from the copy-avoider that listed every copy
of the pattern in the host before colouring; the incremental per-colour masks
must reproduce every colouring.  ``ORACLE_GOLDEN`` was recorded from the
oracles that re-read the graph atlas on every call and tried every vertex
permutation of every subset; the cached atlas and the edge-count cut must
reproduce every verdict, count and planted host.  A change that means to
alter results must say so and bump ``rounding_table_version``.
"""

import hashlib
from itertools import combinations

from monotile.adversaries import AdversarySpec, colour_with
from monotile.aux_hypergraph import aux_degree_check, build_aux_hypergraph
from monotile.extraction import extract_tiling, maximal_cluster_family
from monotile.graphs import Colour, Graph, pattern_by_name
from monotile.instances import planted_process_instance
from monotile.oracles import exact_rt, good_copy_witness_count, max_mono_tiling_size, richness_decide
from monotile.patterns import PatternStats
from monotile.sampling import derive_seed, sample_gnp, threshold_probability

TILING_GOLDEN = "50ba7c670288c05ba42493a738cde44e7ec29c4fc9ef62df3b3c17aee0197948"
GOLDEN = "8f873313a83b6d8d78f5e2565426f1770256549112a3e902ff8a5de7a9c67212"

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
                        family = maximal_cluster_family(cg, H, eps / H.tiling_denominator, seed=seed)
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
    # No grid cell has a fold whose probe windows can hold a copy.
    assert all(r.probe_failures == 0 for _, r, _ in cells)


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

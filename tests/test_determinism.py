"""Golden hashes over seeded outputs: any change to engine output shows here.

``GOLDEN`` was recorded from the engine before the copy search moved to a
single mask entry point with side seeding and greedy cursors; those changes
must reproduce every tiling, report and cluster family exactly.
``AVOIDER_GOLDEN`` was recorded from the copy-avoider that listed every copy
of the pattern in the host before colouring; the incremental per-colour masks
must reproduce every colouring.  A change that means to alter results must
say so and bump ``rounding_table_version``.
"""

import hashlib

from monotile.adversaries import AdversarySpec, colour_with
from monotile.extraction import extract_tiling, maximal_cluster_family
from monotile.graphs import pattern_by_name
from monotile.patterns import PatternStats
from monotile.sampling import derive_seed, sample_gnp, threshold_probability

GOLDEN = "6583dd74469d1b03edfe301b524035882b8f15271e123a7373b132e1e4829942"

GRID_N = {"k3": 150, "p3": 90, "c4": 60}
GRID_C = (0.5, 3.0)
GRID_ADVERSARIES = ("uniform-random", "planted-partition", "majority-degree")
GRID_SEEDS = (0, 1)
GRID_EPSILONS = (0.15, 0.05)


def grid_outputs():
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
                        yield repr((tiling, report.to_json(), family))


def grid_hash() -> str:
    h = hashlib.sha256()
    for line in grid_outputs():
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_golden_extraction_outputs():
    assert grid_hash() == GOLDEN


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

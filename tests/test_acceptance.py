"""Acceptance suite: every shipping criterion, one test each, timed.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces its stated wall-clock limit where one exists.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import networkx as nx
import numpy as np

from monotile.adversaries import ADVERSARY_NAMES, AdversarySpec, colour_with
from monotile.aux_hypergraph import aux_degree_check, build_aux_hypergraph
from monotile.clusters import ClusterCertificate, cluster_process, verify_cluster
from monotile.extraction import extract_tiling
from monotile.graphs import Colour, ColouredGraph, Graph, colour_all
from monotile.instances import planted_process_instance
from monotile.oracles import exact_rt, good_copy_count, m2_density_bruteforce
from monotile.patterns import PatternStats, m2_density
from monotile.richness import richness_probe
from monotile.sampling import derive_seed
from monotile.sweep import SweepPlan, run_sweep
from monotile.tilings import validate_tiling

from .conftest import recheck_trace

K3 = PatternStats.from_graph(Graph.complete(3))
K2 = PatternStats.from_graph(Graph.complete(2))
P4 = PatternStats.from_graph(Graph.path(4))


@contextmanager
def criterion(number: int, label: str, limit: float | None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    if limit is not None:
        assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s, limit {limit}s"
        print(f"[criterion {number:2d}] PASS {label} ({elapsed:.1f}s < {limit:.0f}s)")
    else:
        print(f"[criterion {number:2d}] PASS {label} ({elapsed:.1f}s)")


def _atlas_as_graphs(predicate):
    out = []
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if n and predicate(g, n):
            out.append(Graph.from_edges(n, g.edges()))
    return out


def test_criterion_1_m2_oracle_equivalence():
    with criterion(1, "2-density matches the edge-subset oracle on the small-graph corpus", 10.0):
        small = _atlas_as_graphs(lambda g, n: n <= 5)
        connected6 = _atlas_as_graphs(lambda g, n: n == 6 and nx.is_connected(g))
        assert len(connected6) == 112
        for g in small + connected6:
            assert m2_density(g) == m2_density_bruteforce(g), g
        assert m2_density(Graph.complete(2)) == Fraction(1, 2)
        assert m2_density(Graph.complete(3)) == Fraction(2)
        assert m2_density(Graph.complete(4)) == Fraction(5, 2)


def test_criterion_2_exact_rt_fixtures():
    with criterion(2, "exact tiling Ramsey fixtures", 60.0):
        assert exact_rt(K2, Graph.complete(3)).value == 1
        assert exact_rt(K3, Graph.complete(5)).value == 0
        assert exact_rt(K3, Graph.complete(6)).value == 1


def test_criterion_3_degree_bounds():
    with criterion(3, "container hypergraph degree bounds, zero violations", 300.0):
        for stats in (K3, P4):
            for n in (6, 8, 10):
                aux = build_aux_hypergraph(n, range(n // 2), range(n // 2, n), stats)
                report = aux_degree_check(aux)
                assert report.all_passed, (stats.pattern, n, report)


def _recheck_residual_size(inst, eta, final, cert):
    s = len(inst.x_vertices)
    m = s // K3.k
    if final is None or max(final.red_steps, final.blue_steps) >= (m + 1) // 2:
        return  # a crossing case fired, no residual identity to check
    guard = math.ceil(Fraction(str(eta)) ** 2 * s)
    exhausted_x = len(final.active_x) < guard
    saved = final.saved_y if exhausted_x else final.saved_x
    t_events = final.red_steps if exhausted_x else final.blue_steps
    assert len(cert.vertices) == s + len(saved) - K3.k * t_events
    limit = s - Fraction(K3.alpha * s, 2 * K3.k) + Fraction(str(eta)) ** 2 * s
    assert Fraction(len(cert.vertices)) < limit


def test_criterion_4_process_invariants():
    with criterion(4, "cluster process invariants on 1000 planted instances", None):
        fractions = (1.0, 0.0, 0.65, 0.45, 0.55)
        etas = (0.3, 0.35, 0.4, 0.5)
        successes = 0
        for i in range(1000):
            s = 24 if i % 2 == 0 else 48
            inst = planted_process_instance(
                K3, s, seed=derive_seed("acceptance4", i),
                cross_red_fraction=fractions[i % len(fractions)],
            )
            eta = etas[i % len(etas)]
            trace = []
            out = cluster_process(
                inst.coloured, K3, inst.x_vertices, inst.y_vertices, eta,
                inst.blue_tiling, inst.red_tiling, seed=i, trace=trace,
            )
            final = recheck_trace(inst, K3, eta, trace)
            if isinstance(out, ClusterCertificate):
                successes += 1
                assert verify_cluster(inst.coloured, K3, out), i
                _recheck_residual_size(inst, eta, final, out)
        assert successes >= 900, f"only {successes}/1000 planted runs built a certificate"


def test_criterion_5_complete_host_extraction():
    with criterion(5, "complete-host extraction beats the density target for every adversary", 120.0):
        host = Graph.complete(50)
        target = 5  # floor(50/5 - 0.1*50)
        for adversary in ADVERSARY_NAMES:
            for trial in range(25):
                seed = derive_seed("acceptance5", adversary, trial)
                coloured = colour_with(host, AdversarySpec(adversary, {}, seed))
                tiling, report = extract_tiling(coloured, K3, epsilon=0.1, seed=seed)
                assert validate_tiling(coloured, K3, tiling), (adversary, trial)
                assert report.target_size == target
                assert report.achieved_size >= target, (adversary, trial, report)


def test_criterion_6_random_graph_phase_behaviour():
    with criterion(6, "threshold-scale success at C=5, collapse at C=0.01", 600.0):
        plan = SweepPlan(
            pattern_name="k3",
            pattern=Graph.complete(3),
            n_list=(300,),
            C_list=(0.01, 5.0),
            epsilon=0.15,
            trials=50,
            seed_base=2026,
            adversaries=("uniform-random",),
        )
        result = run_sweep(plan)
        assert len(result.rows) == 100
        freq = {agg.C: agg.frequency for agg in result.aggregates}
        assert freq[5.0] >= 0.9, freq
        assert freq[0.01] <= 0.1, freq


def test_criterion_7_good_copy_counting():
    with criterion(7, "one-sided good-copy counts and colour/side symmetry", 60.0):
        red6 = colour_all(Graph.complete(6), Colour.RED)
        for a_part in ([0, 1, 2], [0, 2, 4], [3, 4, 5]):
            b_part = [v for v in range(6) if v not in a_part]
            assert good_copy_count(red6, K3, a_part, b_part) == 19
        host = Graph.complete(5)
        edges = sorted(host.edges)
        for bits in range(2 ** len(edges)):
            colour = {
                e: (Colour.RED if (bits >> i) & 1 else Colour.BLUE)
                for i, e in enumerate(edges)
            }
            cg = ColouredGraph(host, colour)
            swapped = cg.swap_colours()
            assert good_copy_count(cg, K3, [0, 1], [2, 3, 4]) == good_copy_count(
                swapped, K3, [2, 3, 4], [0, 1]
            )


def _witness_matrix(n: int, pairs):
    """Vectorized ground truth: for every colouring (bit index) and pair,
    does a serving copy exist?  Triangles only, enumerated from scratch."""
    edges = sorted(Graph.complete(n).edges)
    index = {e: i for i, e in enumerate(edges)}
    cols = np.arange(2 ** len(edges), dtype=np.uint32)
    out = np.zeros((len(pairs), len(cols)), dtype=bool)
    triples = list(combinations(range(n), 3))
    masks = []
    for t in triples:
        m = 0
        for e in combinations(t, 2):
            m |= 1 << index[e]
        masks.append(np.uint32(m))
    for pi, (xs, ys) in enumerate(pairs):
        served = np.zeros(len(cols), dtype=bool)
        xset, yset = set(xs), set(ys)
        allowed = xset | yset
        for t, m in zip(triples, masks):
            if not set(t) <= allowed:
                continue
            if len(set(t) & xset) >= 1:
                served |= (cols & m) == m  # all three edges red
            if len(set(t) & yset) >= 1:
                served |= (cols & m) == 0  # all three edges blue
        out[pi] = served
    return edges, out


def _pairs_for(n: int, sizes):
    pairs = []
    for s in sizes:
        for xs in combinations(range(n), s):
            rest = [v for v in range(n) if v not in xs]
            for ys in combinations(rest, s):
                pairs.append((xs, ys))
    return pairs


def test_criterion_8_richness_probe_ground_truth():
    with criterion(8, "probe agrees with brute-force witness enumeration", 300.0):
        for n, sizes in ((5, (2,)), (6, (2, 3))):
            host = Graph.complete(n)
            pairs = _pairs_for(n, sizes)
            edges, truth = _witness_matrix(n, pairs)
            for bits in range(2 ** len(edges)):
                colour = {
                    e: (Colour.RED if (bits >> i) & 1 else Colour.BLUE)
                    for i, e in enumerate(edges)
                }
                cg = ColouredGraph(host, colour)
                for pi, (xs, ys) in enumerate(pairs):
                    found = richness_probe(cg, K3, xs, ys) is not None
                    assert found == bool(truth[pi, bits]), (n, bits, xs, ys)


def test_criterion_9_clique_supersaturation():
    from monotile.oracles import clique_supersat_count

    with criterion(9, "clique counts meet the supersaturation bound", 120.0):
        for n in (8, 10, 12):
            host = Graph.complete(n)
            for t in [None] + list(range(3, n + 1)):
                report = clique_supersat_count(host, 3, t=t)
                if report.hypothesis_met:
                    assert report.meets_bound, (n, t, report)
            assert clique_supersat_count(host, 3).hypothesis_met


def test_criterion_10_reproducible_sweeps():
    with criterion(10, "identical seeds give byte-identical sweep CSVs", 120.0):
        plan = SweepPlan(
            pattern_name="k3",
            pattern=Graph.complete(3),
            n_list=(40, 60),
            C_list=(1.0, 8.0),
            epsilon=0.2,
            trials=3,
            seed_base=99,
            adversaries=("uniform-random", "majority-degree"),
        )
        first = run_sweep(plan)
        second = run_sweep(plan)
        assert first.to_csv() == second.to_csv()
        assert first.to_json() == second.to_json()

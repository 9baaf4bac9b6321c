"""The benchmark's workloads: seeded inputs, one op each, and the checks on its outputs.

Every op is one closed-loop unit of work.  Its :class:`~tracing.Probe` times
only the calls into monotile; the checks that follow them run outside the
timed interval and record a failure reason instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from monotile import clusters, extraction, fixtures, oracles
from monotile.adversaries import AdversarySpec, colour_with
from monotile.aux_hypergraph import aux_degree_check, build_aux_hypergraph
from monotile.clusters import ClusterCertificate, FailureReport, cluster_process, verify_cluster
from monotile.extraction import extract_tiling, extraction_target
from monotile.fixtures import save_fixture, verify_fixtures
from monotile.graphs import Colour, ColouredGraph, Graph, colour_all, parse_graph_text, pattern_by_name, write_graph_text
from monotile.instances import planted_process_instance
from monotile.oracles import good_copy_witness_count
from monotile.patterns import PatternStats
from monotile.richness import richness_probe
from monotile.sampling import derive_seed, philox_generator, sample_gnp, threshold_probability
from monotile.sweep import trial_seed
from monotile.tilings import validate_tiling

from tracing import Probe, Tracer

EPSILON = 0.15
K3 = PatternStats.from_graph(pattern_by_name("k3"))
P4 = PatternStats.from_graph(pattern_by_name("p4"))

# Spans that are checks run outside the timed op.
CHECK_SPANS = frozenset({"tilings.validate_tiling"})


def _hit(result) -> int:
    return int(result is not None)


def _failed(result) -> int:
    return int(isinstance(result, FailureReport))


def _ties(family) -> int:
    return sum(1 for c in family.certificates if c.red_tiling.size == 1 and c.blue_tiling.size == 1)


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers import them."""
    tracer.wrap(extraction, "find_mono_copy", "embeddings.find_mono_copy", _hit)
    tracer.wrap(extraction, "find_side_good_copy", "richness.find_side_good_copy", _hit)
    tracer.wrap(clusters, "find_side_good_copy", "richness.find_side_good_copy", _hit)
    tracer.wrap(extraction, "cluster_process", "clusters.cluster_process", _failed)
    tracer.wrap(extraction, "maximal_cluster_family", "extraction.maximal_cluster_family", _ties)
    tracer.wrap(fixtures, "parse_graph_text", "graphs.parse_graph_text")
    tracer.wrap(fixtures, "write_graph_text", "graphs.write_graph_text")
    tracer.wrap(oracles, "exact_rt", "oracles.exact_rt", lambda r: r.colourings_checked)
    tracer.wrap(oracles, "richness_decide", "oracles.richness_decide", lambda r: r.trials)
    tracer.wrap(oracles, "clique_supersat_count", "oracles.clique_supersat_count")
    tracer.wrap(oracles, "good_copy_count", "oracles.good_copy_count")


# ---------------------------------------------------------------------------
# Host workloads: one seeded sweep trial per op.
# ---------------------------------------------------------------------------

def _force_adjacency(cg: ColouredGraph) -> None:
    cg.red_adjacency
    cg.blue_adjacency


def _text_round_trip(probe: Probe, g, what: str):
    text = probe.call("graphs.write_graph_text", write_graph_text, g)
    back = probe.call("graphs.parse_graph_text", parse_graph_text, text)
    probe.count("graphs.text_bytes", len(text))
    probe.expect(back == g, f"{what} text round trip changed the graph")
    return back


def check_extraction(probe: Probe, cg: ColouredGraph, H: PatternStats, epsilon: float, tiling, report) -> None:
    """The output checks shared by every extraction the benchmark runs."""
    probe.expect(probe.check("tilings.validate_tiling", validate_tiling, cg, H, tiling), "invalid tiling")
    probe.expect(report.achieved_size == tiling.size, "achieved_size != tiling.size")
    probe.expect(
        report.target_size == extraction_target(cg.n, H, epsilon), "target_size != extraction_target"
    )
    if report.target_size:
        probe.ratios.append(report.achieved_size / report.target_size)
    probe.count("extraction.cluster_vertex_frac", report.cluster_vertices / cg.n)


@dataclass(frozen=True)
class HostWorkload:
    name: str
    n: int
    C: float
    adversary: str
    text_round_trip: bool = False

    def setup(self, seed: int, work_dir: Path) -> dict:
        # Warm lazy imports and caches on a small host before timing.
        small = HostWorkload(self.name, 40, self.C, self.adversary, self.text_round_trip)
        small.op({"p": threshold_probability(40, self.C, K3), "seed": seed}, 0, Probe())
        return {"p": threshold_probability(self.n, self.C, K3), "seed": seed}

    def op(self, state: dict, i: int, probe: Probe) -> None:
        seed = trial_seed(state["seed"], self.n, self.C, self.adversary, i)
        g = probe.call("sampling.sample_gnp", sample_gnp, self.n, state["p"], derive_seed(seed, "sample"))
        probe.count("sampling.edges", g.num_edges)
        if self.text_round_trip:
            g = _text_round_trip(probe, g, "host")
        spec = AdversarySpec(self.adversary, {}, derive_seed(seed, "colour"))
        cg = probe.call("adversaries.colour_with", colour_with, g, spec)
        if self.text_round_trip:
            cg = _text_round_trip(probe, cg, "coloured host")
        probe.call("graphs.adjacency", _force_adjacency, cg)
        tiling, report = probe.call(
            "extraction.extract_tiling", extract_tiling, cg, K3, EPSILON, seed=derive_seed(seed, "extract")
        )
        check_extraction(probe, cg, K3, EPSILON, tiling, report)
        probe.digest.append(f"{cg.content_hash()}:{report.achieved_size}:{report.colour}")


# ---------------------------------------------------------------------------
# Desk-scale oracle checks: one round of each part per op.
# ---------------------------------------------------------------------------

# Part sizes of a desk round, balanced so that no part takes most of it.
PLANTED_RUNS = 400
PLANTED_FRACTIONS = (1.0, 0.0, 0.65, 0.45, 0.55)
PLANTED_ETAS = (0.3, 0.35, 0.4, 0.5)
PROBE_COLOURINGS = 128
AUX_SIZES = (8, 10, 12, 14)
# The criterion-5 setting: K50 at epsilon 0.1, target 5.
COMPLETE_N = 50
COMPLETE_EPSILON = 0.1
COMPLETE_TRIALS = 24
COMPLETE_ADVERSARIES = ("uniform-random", "majority-degree", "planted-partition")


def write_corpus(directory: Path) -> None:
    """The standard fixture corpus: the same calls as scripts/build_fixture_corpus.py."""
    k2, k3, p3, p4 = Graph.complete(2), Graph.complete(3), Graph.path(3), Graph.path(4)
    save_fixture(directory, "rt_exact", Graph.complete(3), k2, {})
    for n in range(3, 8):
        save_fixture(directory, "rt_exact", Graph.complete(n), k3, {})
        save_fixture(directory, "rt_exact", Graph.complete(n), p3, {})
    for n, s in ((4, 2), (5, 2), (6, 3)):
        save_fixture(directory, "richness_rich", Graph.complete(n), k3, {"s": s})
    for colour in (Colour.RED, Colour.BLUE):
        host = colour_all(Graph.complete(6), colour)
        save_fixture(directory, "good_copy_count", host, k3, {"A": [0, 1, 2]})
    for n in (8, 10, 12):
        save_fixture(directory, "clique_supersat", Graph.complete(n), k3, {"R": 3})
    for pattern in (k2, k3, Graph.complete(4), p4, Graph.matching(2), Graph.cycle(5)):
        save_fixture(directory, "m2_density", pattern, pattern, {})
        save_fixture(directory, "independence_number", pattern, pattern, {})


def disjoint_pairs(n: int, sizes: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    pairs = []
    for s in sizes:
        for xs in combinations(range(n), s):
            rest = [v for v in range(n) if v not in xs]
            for ys in combinations(rest, s):
                pairs.append((xs, ys))
    return pairs


K6_PAIRS = disjoint_pairs(6, (2, 3))


@dataclass(frozen=True)
class DeskWorkload:
    name: str

    def setup(self, seed: int, work_dir: Path) -> dict:
        corpus = work_dir / "corpus"
        if not corpus.is_dir():
            write_corpus(corpus)
        return {"seed": seed, "corpus": corpus, "fixtures": len(list(corpus.glob("*.fixture.json")))}

    def op(self, state: dict, i: int, probe: Probe) -> None:
        seed = derive_seed("desk-round", state["seed"], i)
        self._fixtures(state, probe)
        probe.calibrate()
        self._planted(seed, probe)
        probe.calibrate()
        self._probes(seed, probe)
        probe.calibrate()
        self._aux(probe)
        self._complete_host(seed, probe)

    def _fixtures(self, state: dict, probe: Probe) -> None:
        report = probe.call("fixtures.verify_fixtures", verify_fixtures, state["corpus"])
        probe.expect(report.passed, "fixture mismatch: " + "; ".join(report.mismatches[:3]))
        probe.expect(report.checked == state["fixtures"], f"verified {report.checked} of {state['fixtures']} fixtures")
        probe.digest.append(f"fixtures:{report.checked}")

    def _planted(self, seed: int, probe: Probe) -> None:
        for j in range(PLANTED_RUNS):
            inst = probe.call(
                "instances.planted_process_instance", planted_process_instance,
                K3, 24 if j % 2 == 0 else 48, seed=derive_seed(seed, "planted", j),
                cross_red_fraction=PLANTED_FRACTIONS[j % len(PLANTED_FRACTIONS)],
            )
            out = probe.call(
                "clusters.cluster_process", cluster_process,
                inst.coloured, K3, inst.x_vertices, inst.y_vertices, PLANTED_ETAS[j % len(PLANTED_ETAS)],
                inst.blue_tiling, inst.red_tiling, seed=j, note=_failed,
            )
            if isinstance(out, ClusterCertificate):
                ok = probe.call("clusters.verify_cluster", verify_cluster, inst.coloured, K3, out)
                probe.expect(ok, f"planted run {j}: certificate fails verify_cluster")
                probe.digest.append(f"cluster:{len(out.vertices)}")
            else:
                probe.digest.append("cluster:failed")

    def _probes(self, seed: int, probe: Probe) -> None:
        host = Graph.complete(6)
        edges = sorted(host.edges)
        draws = philox_generator(derive_seed(seed, "probe-colourings")).integers(
            0, 2 ** len(edges), size=PROBE_COLOURINGS
        )
        for bits in draws.tolist():
            colour = {e: (Colour.RED if (bits >> b) & 1 else Colour.BLUE) for b, e in enumerate(edges)}
            cg = ColouredGraph(host, colour)
            served = 0
            for xs, ys in K6_PAIRS:
                found = probe.call("richness.richness_probe", richness_probe, cg, K3, xs, ys)
                witnesses = probe.call(
                    "oracles.good_copy_witness_count", good_copy_witness_count, cg, K3, xs, ys
                )
                probe.expect((found is not None) == (witnesses > 0), f"probe disagrees with oracle: {bits} {xs} {ys}")
                served += witnesses > 0
            probe.digest.append(f"probe:{bits}:{served}")

    def _aux(self, probe: Probe) -> None:
        for H in (K3, P4):
            for n in AUX_SIZES:
                aux = probe.call(
                    "aux_hypergraph.build_aux_hypergraph", build_aux_hypergraph,
                    n, range(n // 2), range(n // 2, n), H,
                )
                report = probe.call("aux_hypergraph.aux_degree_check", aux_degree_check, aux)
                probe.expect(report.all_passed, f"aux degree check failed for n={n}")
                probe.digest.append(f"aux:{n}:{report.all_passed}")

    def _complete_host(self, seed: int, probe: Probe) -> None:
        host = Graph.complete(COMPLETE_N)
        for trial in range(COMPLETE_TRIALS):
            adversary = COMPLETE_ADVERSARIES[trial % len(COMPLETE_ADVERSARIES)]
            spec = AdversarySpec(adversary, {}, derive_seed(seed, "complete", trial))
            cg = probe.call("adversaries.colour_with", colour_with, host, spec)
            probe.call("graphs.adjacency", _force_adjacency, cg)
            tiling, report = probe.call(
                "extraction.extract_tiling", extract_tiling, cg, K3, COMPLETE_EPSILON, seed=spec.seed
            )
            check_extraction(probe, cg, K3, COMPLETE_EPSILON, tiling, report)
            probe.digest.append(f"complete:{report.achieved_size}:{report.colour}")


WORKLOADS = {
    w.name: w
    for w in (
        HostWorkload(
            "pipeline-dense",
            n=700, C=5.0, adversary="uniform-random", text_round_trip=True,
        ),
        HostWorkload(
            "ties-sparse",
            n=500, C=0.5, adversary="majority-degree",
        ),
        HostWorkload(
            "copy-avoider",
            n=100, C=5.0, adversary="copy-avoider-greedy",
        ),
        DeskWorkload("desk-oracles"),
    )
}

# The sizes first proposed for the three host workloads.  One op takes
# seconds, too few fit a steady 20-second run, so BENCHMARK.json does not
# list them; report.py runs them to reproduce the ROADMAP's reference numbers.
REFERENCE_WORKLOADS = {
    w.name: w
    for w in (
        HostWorkload("pipeline-2000", n=2000, C=5.0, adversary="uniform-random", text_round_trip=True),
        HostWorkload("ties-1000", n=1000, C=0.5, adversary="majority-degree"),
        HostWorkload("avoider-300", n=300, C=5.0, adversary="copy-avoider-greedy"),
    )
}

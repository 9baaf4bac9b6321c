"""Monochromatic tiling extraction: cluster families plus greedy leftovers.

The extractor sets aside a vertex-disjoint family of clusters, greedily
collects disjoint monochromatic copies of the pattern on the remaining
vertices, and whenever both colours pile up it tries to convert one pile of
each colour into a fresh cluster (folding it into the family).  The final
tiling takes the better colour across the family plus the matching leftover
copies, then tops up greedily on whatever is still uncovered.

Falling short of the density target is reported, never raised: the report
carries achieved versus target sizes and every probe failure seen.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .clusters import ClusterCertificate, FailureReport, cluster_process
from .embeddings import EmbeddedCopy, find_mono_copy, iter_copies
from .graphs import Colour, ColouredGraph, Graph, exact_ratio, mask_of
from .patterns import PatternStats
from .richness import find_side_good_copy
from .sampling import derive_seed
from .tilings import Tiling

DEFAULT_BUILDER_BUDGET = 100_000

ROUNDING_TABLE_VERSION = "1"


@dataclass(frozen=True)
class ClusterFamily:
    """A vertex-disjoint collection of verified cluster certificates.

    Maximality is relative to the builder's own search (tie scanning plus
    process attempts on leftover copy piles), not global maximality.
    """

    certificates: tuple[ClusterCertificate, ...]
    truncated: bool
    probe_failures: int
    attempts: int

    @property
    def vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for cert in self.certificates:
            out.update(cert.vertices)
        return frozenset(out)


@dataclass(frozen=True)
class ExtractionReport:
    target_size: int
    achieved_size: int
    colour: str
    cluster_vertices: int
    probe_failures: int
    seed: int
    eta: float
    epsilon: float
    rounding_table_version: str
    red_copies: int
    blue_copies: int

    def to_json(self) -> str:
        payload = {
            "target_size": self.target_size,
            "achieved_size": self.achieved_size,
            "colour": self.colour,
            "cluster_vertices": self.cluster_vertices,
            "probe_failures": self.probe_failures,
            "seed": self.seed,
            "eta": self.eta,
            "epsilon": self.epsilon,
            "rounding_table_version": self.rounding_table_version,
        }
        return json.dumps(payload, sort_keys=True)


def extraction_target(n: int, H: PatternStats, epsilon: float) -> int:
    """``floor(n/(2k - alpha) - epsilon*n)``, clamped at zero."""
    bound = Fraction(n, H.tiling_denominator) - exact_ratio(epsilon) * n
    return max(0, math.floor(bound))


def _find_tie(
    G: ColouredGraph, H: PatternStats, free_mask: int, budget: list[int]
) -> tuple[EmbeddedCopy, EmbeddedCopy] | None:
    """A red copy and a blue copy sharing >= alpha vertices, inside the free set.

    Their union spans at most ``2k - alpha`` vertices, so the pair is a
    one-copy-per-colour cluster at any slack.
    """
    if find_mono_copy(G, H, free_mask, Colour.BLUE) is None:
        return None
    for red_map in iter_copies(G.red_adjacency, H.pattern, free_mask):
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        blue = find_side_good_copy(G, H, Colour.BLUE, free_mask, mask_of(red_map), H.alpha)
        if blue is not None:
            return EmbeddedCopy(red_map, Colour.RED), blue
    return None


def _tie_certificate(
    red: EmbeddedCopy, blue: EmbeddedCopy, eta: float
) -> ClusterCertificate:
    return ClusterCertificate(
        vertices=red.vertices | blue.vertices,
        red_tiling=Tiling(Colour.RED, (red,)),
        blue_tiling=Tiling(Colour.BLUE, (blue,)),
        eta=eta,
    )


def _fold_attempt(
    G: ColouredGraph,
    H: PatternStats,
    eta: float,
    blues: list[EmbeddedCopy],
    reds: list[EmbeddedCopy],
    count: int,
    seed: int,
) -> ClusterCertificate | FailureReport:
    x_copies = blues[:count]
    y_copies = reds[:count]
    x_set = frozenset(v for c in x_copies for v in c.vertex_map)
    y_set = frozenset(v for c in y_copies for v in c.vertex_map)
    return cluster_process(
        G, H, x_set, y_set, eta,
        blue_tiling_x=Tiling(Colour.BLUE, tuple(x_copies)),
        red_tiling_y=Tiling(Colour.RED, tuple(y_copies)),
        seed=seed,
    )


def _apply_fold(
    cert: ClusterCertificate,
    blues: list[EmbeddedCopy],
    reds: list[EmbeddedCopy],
    count: int,
    free_mask: int,
) -> int:
    """Remove the consumed copies, release the unused part of their span."""
    used = mask_of(cert.vertices)
    span = 0
    for c in blues[:count] + reds[:count]:
        span |= c.vertex_mask
    del blues[:count]
    del reds[:count]
    return free_mask | (span & ~used)


def maximal_cluster_family(
    G: ColouredGraph,
    H: PatternStats,
    eta: float,
    builder_budget: int = DEFAULT_BUILDER_BUDGET,
    seed: int = 0,
) -> ClusterFamily:
    """Greedily build vertex-disjoint clusters: tie pairs first, then process folds."""
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    certs: list[ClusterCertificate] = []
    free_mask = (1 << G.n) - 1
    budget = [builder_budget]
    probe_failures = 0
    attempts = 0

    if eta >= 1:
        if G.n >= 1:
            certs.append(
                ClusterCertificate(
                    vertices=frozenset(range(G.n)),
                    red_tiling=Tiling(Colour.RED, ()),
                    blue_tiling=Tiling(Colour.BLUE, ()),
                    eta=eta,
                )
            )
        return ClusterFamily(tuple(certs), False, 0, 0)

    while budget[0] > 0:
        attempts += 1
        budget[0] -= 1
        tie = _find_tie(G, H, free_mask, budget)
        if tie is None:
            break
        red, blue = tie
        certs.append(_tie_certificate(red, blue, eta))
        free_mask &= ~(red.vertex_mask | blue.vertex_mask)

    # Process folds on whatever copy piles remain.  Needs positive slack:
    # probe windows are empty at eta == 0.
    if eta > 0:
        blues: list[EmbeddedCopy] = []
        reds: list[EmbeddedCopy] = []
        fold_round = 0
        cursors: dict[Colour, int | None] = {}
        while True:
            copy = find_mono_copy(G, H, free_mask, cursors=cursors)
            if copy is not None:
                free_mask &= ~copy.vertex_mask
                (blues if copy.colour is Colour.BLUE else reds).append(copy)
                continue
            count = min(len(blues), len(reds))
            if count < 2 or budget[0] <= 0:
                break
            attempts += 1
            budget[0] -= 1
            fold_round += 1
            outcome = _fold_attempt(
                G, H, eta, blues, reds, count, derive_seed("family-fold", seed, fold_round)
            )
            if isinstance(outcome, FailureReport):
                probe_failures += 1
                break
            certs.append(outcome)
            free_mask = _apply_fold(outcome, blues, reds, count, free_mask)
            cursors.clear()  # the free set grew

    return ClusterFamily(tuple(certs), truncated=budget[0] <= 0, probe_failures=probe_failures, attempts=attempts)


def _flatten_to_edges(tiling: Tiling, substitute: PatternStats, original: PatternStats) -> Tiling:
    """Split each disjoint-pair copy into two single-edge copies."""
    copies = []
    for c in tiling.copies:
        for (u, v) in substitute.pattern.edges:
            a, b = c.vertex_map[u], c.vertex_map[v]
            copies.append(EmbeddedCopy((a, b) if a < b else (b, a), tiling.colour))
    return Tiling(tiling.colour, tuple(copies))


def extract_tiling(
    G: ColouredGraph,
    H: PatternStats,
    epsilon: float,
    eta: float | None = None,
    seed: int = 0,
    builder_budget: int = DEFAULT_BUILDER_BUDGET,
) -> tuple[Tiling, ExtractionReport]:
    """Extract a large monochromatic tiling; always returns the best one found."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if H.ell == 0:
        raise ValueError("pattern needs at least one edge")
    if H.k == 2:
        # Single-edge pattern: run on disjoint edge pairs, then split the
        # copies.  Both patterns share the n/3 density target.
        substitute = PatternStats.from_graph(Graph.matching(2))
        sub_eta = eta if eta is not None else epsilon / substitute.tiling_denominator
        tiling, report = extract_tiling(G, substitute, epsilon, sub_eta, seed, builder_budget)
        flat = _flatten_to_edges(tiling, substitute, H)
        target = extraction_target(G.n, H, epsilon)
        return flat, ExtractionReport(
            target_size=target,
            achieved_size=flat.size,
            colour=report.colour,
            cluster_vertices=report.cluster_vertices,
            probe_failures=report.probe_failures,
            seed=seed,
            eta=report.eta,
            epsilon=epsilon,
            rounding_table_version=ROUNDING_TABLE_VERSION,
            red_copies=flat.size if report.colour == "red" else 0,
            blue_copies=flat.size if report.colour == "blue" else 0,
        )

    if eta is None:
        eta = epsilon / H.tiling_denominator
    n = G.n
    family = maximal_cluster_family(G, H, eta, builder_budget, seed)
    certs = list(family.certificates)
    probe_failures = family.probe_failures
    free_mask = ((1 << n) - 1) & ~mask_of(family.vertices)

    trigger = math.ceil(exact_ratio(epsilon) * n / H.k)
    fold_enabled = 0 < eta < 1 and trigger >= 2
    blues: list[EmbeddedCopy] = []
    reds: list[EmbeddedCopy] = []
    fold_round = 0
    cursors: dict[Colour, int | None] = {}
    while True:
        if fold_enabled and len(blues) >= trigger and len(reds) >= trigger:
            fold_round += 1
            outcome = _fold_attempt(
                G, H, eta, blues, reds, trigger, derive_seed("extract-fold", seed, fold_round)
            )
            if isinstance(outcome, FailureReport):
                probe_failures += 1
                fold_enabled = False
            else:
                certs.append(outcome)
                free_mask = _apply_fold(outcome, blues, reds, trigger, free_mask)
                cursors.clear()  # the free set grew
            continue
        copy = find_mono_copy(G, H, free_mask, cursors=cursors)
        if copy is None:
            break
        free_mask &= ~copy.vertex_mask
        (blues if copy.colour is Colour.BLUE else reds).append(copy)

    totals = {
        Colour.RED: sum(c.tiling(Colour.RED).size for c in certs) + len(reds),
        Colour.BLUE: sum(c.tiling(Colour.BLUE).size for c in certs) + len(blues),
    }
    best = Colour.RED if totals[Colour.RED] >= totals[Colour.BLUE] else Colour.BLUE
    chosen: list[EmbeddedCopy] = []
    for cert in certs:
        chosen.extend(cert.tiling(best).copies)
    chosen.extend(reds if best is Colour.RED else blues)

    # The off-colour leftovers are not part of the tiling; their vertices are
    # fair game for a final same-colour top-up.
    for copy in blues if best is Colour.RED else reds:
        free_mask |= copy.vertex_mask
    cursors.clear()  # the free set grew
    while True:
        extra = find_mono_copy(G, H, free_mask, best, cursors)
        if extra is None:
            break
        free_mask &= ~extra.vertex_mask
        chosen.append(extra)

    tiling = Tiling(best, tuple(chosen))
    report = ExtractionReport(
        target_size=extraction_target(n, H, epsilon),
        achieved_size=tiling.size,
        colour=best.value,
        cluster_vertices=sum(len(c.vertices) for c in certs),
        probe_failures=probe_failures,
        seed=seed,
        eta=eta,
        epsilon=epsilon,
        rounding_table_version=ROUNDING_TABLE_VERSION,
        red_copies=totals[Colour.RED],
        blue_copies=totals[Colour.BLUE],
    )
    return tiling, report

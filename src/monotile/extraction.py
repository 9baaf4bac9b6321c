"""Monochromatic tiling extraction: cluster families plus greedy leftovers.

``maximal_cluster_family`` runs the one greedy+fold loop: after setting
aside tie clusters it greedily packs disjoint monochromatic copies, and
whenever the packing stalls it tries to fold one pile of each colour into a
fresh cluster with ``cluster_process``.  A fold is attempted only when its
probe windows can hold a copy (``2 * probe_window_size(eta, s) >= k``), so a
counted probe failure is a real richness failure.  ``extract_tiling`` takes
the better colour across the clusters plus the matching unfolded copies,
tops up greedily on whatever is still uncovered, and validates the result.

Falling short of the density target is reported, never raised: the report
carries achieved versus target sizes and every probe failure seen.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .clusters import (
    ClusterCertificate, FailureReport, InvariantViolation, cluster_process, probe_window_size,
)
from .embeddings import EmbeddedCopy, find_mono_copy, iter_copies
from .graphs import Colour, ColouredGraph, Graph, exact_ratio, mask_of
from .patterns import PatternStats
from .richness import find_side_good_copy
from .sampling import derive_seed
from .tilings import Tiling, tiling_errors

DEFAULT_BUILDER_BUDGET = 100_000

ROUNDING_TABLE_VERSION = "2"


@dataclass(frozen=True)
class ClusterFamily:
    """A vertex-disjoint collection of verified cluster certificates.

    Maximality is relative to the builder's own search (tie scanning plus
    process attempts on leftover copy piles), not global maximality.
    ``leftovers`` holds the greedily packed copies no fold consumed, red
    before blue, each colour in the order found.
    """

    certificates: tuple[ClusterCertificate, ...]
    truncated: bool
    probe_failures: int
    attempts: int
    leftovers: tuple[EmbeddedCopy, ...]

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


def maximal_cluster_family(
    G: ColouredGraph,
    H: PatternStats,
    eta: float,
    builder_budget: int = DEFAULT_BUILDER_BUDGET,
    seed: int = 0,
) -> ClusterFamily:
    """Vertex-disjoint clusters: tie pairs first, then a greedy packing that folds when it stalls.

    The packed copies no fold consumed come back as ``leftovers``.
    """
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
        return ClusterFamily(tuple(certs), False, 0, 0, ())

    while budget[0] > 0:
        attempts += 1
        budget[0] -= 1
        tie = _find_tie(G, H, free_mask, budget)
        if tie is None:
            break
        red, blue = tie
        certs.append(_tie_certificate(red, blue, eta))
        free_mask &= ~(red.vertex_mask | blue.vertex_mask)

    # Greedy packing; when it stalls, fold equal piles of both colours.  A
    # fold whose probe windows cannot hold a copy is skipped, not attempted.
    piles: dict[Colour, list[EmbeddedCopy]] = {Colour.RED: [], Colour.BLUE: []}
    fold_round = 0
    cursors: dict[Colour, int | None] = {}
    while True:
        copy = find_mono_copy(G, H, free_mask, cursors=cursors)
        if copy is not None:
            free_mask &= ~copy.vertex_mask
            piles[copy.colour].append(copy)
            continue
        count = min(len(pile) for pile in piles.values())
        if count < 2 or budget[0] <= 0 or 2 * probe_window_size(eta, count * H.k) < H.k:
            break
        attempts += 1
        budget[0] -= 1
        fold_round += 1
        x = Tiling(Colour.BLUE, tuple(piles[Colour.BLUE][:count]))
        y = Tiling(Colour.RED, tuple(piles[Colour.RED][:count]))
        outcome = cluster_process(
            G, H, x.vertices, y.vertices, eta, blue_tiling_x=x, red_tiling_y=y,
            seed=derive_seed("family-fold", seed, fold_round),
        )
        if isinstance(outcome, FailureReport):
            probe_failures += 1
            break
        certs.append(outcome)
        # Release the part of the folded piles the cluster left unused.
        free_mask |= (x.vertex_mask | y.vertex_mask) & ~mask_of(outcome.vertices)
        for pile in piles.values():
            del pile[:count]
        cursors.clear()  # the free set grew

    return ClusterFamily(
        tuple(certs),
        truncated=budget[0] <= 0,
        probe_failures=probe_failures,
        attempts=attempts,
        leftovers=tuple(piles[Colour.RED] + piles[Colour.BLUE]),
    )


def _flatten_to_edges(tiling: Tiling, substitute: PatternStats, original: PatternStats) -> Tiling:
    """Split each disjoint-pair copy into two single-edge copies."""
    copies = []
    for c in tiling.copies:
        for (u, v) in substitute.pattern.edges:
            a, b = c.vertex_map[u], c.vertex_map[v]
            copies.append(EmbeddedCopy((a, b) if a < b else (b, a), tiling.colour))
    return Tiling(tiling.colour, tuple(copies))


def _validated(G: ColouredGraph, H: PatternStats, tiling: Tiling) -> Tiling:
    """``tiling`` itself, once the independent validator finds nothing wrong."""
    problems = tiling_errors(G, H, tiling)
    if problems:
        raise InvariantViolation("extracted tiling fails validation: " + "; ".join(problems))
    return tiling


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
        flat = _validated(G, H, _flatten_to_edges(tiling, substitute, H))
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
    certs = family.certificates
    piles = {colour: [c for c in family.leftovers if c.colour is colour] for colour in Colour}
    totals = {
        colour: sum(c.tiling(colour).size for c in certs) + len(piles[colour]) for colour in Colour
    }
    best = Colour.RED if totals[Colour.RED] >= totals[Colour.BLUE] else Colour.BLUE
    chosen: list[EmbeddedCopy] = []
    for cert in certs:
        chosen.extend(cert.tiling(best).copies)
    chosen.extend(piles[best])

    # The off-colour leftovers are not part of the tiling; their vertices are
    # fair game for a final same-colour top-up.
    free_mask = ((1 << n) - 1) & ~mask_of(family.vertices)
    for copy in piles[best]:
        free_mask &= ~copy.vertex_mask
    cursors: dict[Colour, int | None] = {}
    while True:
        extra = find_mono_copy(G, H, free_mask, best, cursors)
        if extra is None:
            break
        free_mask &= ~extra.vertex_mask
        chosen.append(extra)

    tiling = _validated(G, H, Tiling(best, tuple(chosen)))
    report = ExtractionReport(
        target_size=extraction_target(n, H, epsilon),
        achieved_size=tiling.size,
        colour=best.value,
        cluster_vertices=sum(len(c.vertices) for c in certs),
        probe_failures=family.probe_failures,
        seed=seed,
        eta=eta,
        epsilon=epsilon,
        rounding_table_version=ROUNDING_TABLE_VERSION,
        red_copies=totals[Colour.RED],
        blue_copies=totals[Colour.BLUE],
    )
    return tiling, report

"""Monochromatic tiling extraction: the best of four candidate tilings.

``maximal_cluster_family`` sets aside tie clusters, each a red and a blue
copy sharing at least ``alpha`` vertices.  Ties lock in one copy per
``2k - alpha`` vertices, the paper's tiling rate.  ``greedy_packing`` takes
disjoint copies of one colour in scan order.  ``extract_tiling`` builds the
ties plus a greedy packing of the rest, per colour, and a greedy packing of
the whole host, per colour; it validates and returns the first largest.
Each colour's :func:`~monotile.embeddings.copy_leads` mask is found once and
bounds where every scan of that colour may start.

Falling short of the density target is reported, never raised: the report
carries achieved versus target sizes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .clusters import ClusterCertificate, InvariantViolation
from .clusters import cluster_process  # noqa: F401  perfbench's layer tracer wraps it here by name
from .embeddings import EmbeddedCopy, copy_leads, first_copy, iter_copies, lead_vertex
from .embeddings import find_mono_copy  # noqa: F401  perfbench's layer tracer wraps it here by name
from .graphs import Colour, ColouredGraph, exact_ratio, mask_of
from .patterns import PatternStats
from .richness import find_side_good_copy
from .tilings import Tiling, tiling_errors

DEFAULT_BUILDER_BUDGET = 100_000

ROUNDING_TABLE_VERSION = "4"


@dataclass(frozen=True)
class ClusterFamily:
    """A vertex-disjoint collection of verified cluster certificates.

    Maximality is relative to the builder's own tie scan, not global
    maximality.
    """

    certificates: tuple[ClusterCertificate, ...]
    truncated: bool

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
    G: ColouredGraph, H: PatternStats, free_mask: int, budget: list[int], leads: dict[Colour, int]
) -> tuple[EmbeddedCopy, EmbeddedCopy] | None:
    """A red copy and a blue copy sharing >= alpha vertices, inside the free set.

    Their union spans at most ``2k - alpha`` vertices, so the pair is a
    one-copy-per-colour cluster at any slack.  Red copies are scanned from the
    red lead mask ``leads[RED]`` (see :func:`iter_copies`).  The first blue
    copy's lead only moves up as the free set shrinks, so the blue
    pre-check cuts ``leads[BLUE]`` there in place; no blue copy, side-good
    or not, leads below it.
    """
    blue_first = first_copy(G.blue_adjacency, H.pattern, free_mask, leads=leads[Colour.BLUE])
    if blue_first is None:
        return None
    leads[Colour.BLUE] &= ~((1 << blue_first[lead_vertex(H.pattern)]) - 1)
    for red_map in iter_copies(G.red_adjacency, H.pattern, free_mask, leads[Colour.RED]):
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        blue = find_side_good_copy(
            G, H, Colour.BLUE, free_mask, mask_of(red_map), H.alpha, leads[Colour.BLUE]
        )
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
    leads: Mapping[Colour, int] | None = None,
) -> ClusterFamily:
    """Vertex-disjoint tie clusters, found in scan order.

    ``leads`` maps each colour to a lead mask promise (see
    :func:`~monotile.embeddings.first_copy`); every vertex by default.
    """
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    certs: list[ClusterCertificate] = []
    free_mask = (1 << G.n) - 1
    budget = [builder_budget]

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
        return ClusterFamily(tuple(certs), False)
    if H.ell == 0:
        raise ValueError("monochromatic copy search needs a pattern with at least one edge")

    # A red copy with no blue partner keeps none as the free set shrinks, so
    # each scan resumes at the lead vertex of the last tie's red copy.
    # The cuts stay in this copy: the caller's masks also serve later scans.
    lead = lead_vertex(H.pattern)
    leads = {c: -1 for c in Colour} if leads is None else dict(leads)
    while budget[0] > 0:
        budget[0] -= 1
        tie = _find_tie(G, H, free_mask, budget, leads)
        if tie is None:
            break
        red, blue = tie
        certs.append(_tie_certificate(red, blue, eta))
        free_mask &= ~(red.vertex_mask | blue.vertex_mask)
        leads[Colour.RED] &= ~((1 << red.vertex_map[lead]) - 1)

    return ClusterFamily(tuple(certs), truncated=budget[0] <= 0)


def greedy_packing(
    G: ColouredGraph, H: PatternStats, colour: Colour, free_mask: int, leads: int = -1
) -> tuple[EmbeddedCopy, ...]:
    """Disjoint ``colour`` copies inside ``free_mask``, each the first left in scan order.

    ``leads`` is a lead mask promise (see
    :func:`~monotile.embeddings.first_copy`), every vertex by default.  A
    copy missing from one scan stays missing as the free set shrinks, so
    each scan resumes at the lead vertex of the last copy taken.
    """
    adjacency = G.adjacency_for(colour)
    lead = lead_vertex(H.pattern)
    copies: list[EmbeddedCopy] = []
    while (vm := first_copy(adjacency, H.pattern, free_mask, leads=leads)) is not None:
        copy = EmbeddedCopy(vm, colour)
        copies.append(copy)
        free_mask &= ~copy.vertex_mask
        leads &= ~((1 << vm[lead]) - 1)
    return tuple(copies)


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
    """Extract a large monochromatic tiling; always returns the best one found.

    Extraction draws no random numbers: ``seed`` steers nothing and is only
    recorded in ``ExtractionReport.seed`` (and so in the report JSON).
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if H.ell == 0:
        raise ValueError("pattern needs at least one edge")
    if eta is None:
        eta = epsilon / H.tiling_denominator
    everything = (1 << G.n) - 1
    leads = {c: copy_leads(G.adjacency_for(c), H.pattern) for c in Colour}
    family = maximal_cluster_family(G, H, eta, builder_budget, leads)
    certs = family.certificates
    rest = everything & ~mask_of(family.vertices)
    tie_copies = {c: tuple(x for cert in certs for x in cert.tiling(c).copies) for c in Colour}
    candidates = [Tiling(c, tie_copies[c] + greedy_packing(G, H, c, rest, leads[c])) for c in Colour]
    candidates += [Tiling(c, greedy_packing(G, H, c, everything, leads[c])) for c in Colour]
    # max keeps the first largest: ties before plain greedy, red before blue.
    tiling = _validated(G, H, max(candidates, key=lambda t: t.size))
    largest = {c: max(t.size for t in candidates if t.colour is c) for c in Colour}
    report = ExtractionReport(
        target_size=extraction_target(G.n, H, epsilon),
        achieved_size=tiling.size,
        colour=tiling.colour.value,
        cluster_vertices=sum(len(c.vertices) for c in certs),
        seed=seed,
        eta=eta,
        epsilon=epsilon,
        rounding_table_version=ROUNDING_TABLE_VERSION,
        red_copies=largest[Colour.RED],
        blue_copies=largest[Colour.BLUE],
    )
    return tiling, report

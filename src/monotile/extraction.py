"""Monochromatic tiling extraction: the best of four candidate tilings.

``maximal_cluster_family`` sets aside tie clusters, each a red and a blue
copy sharing at least ``alpha`` vertices.  Ties lock in one copy per
``2k - alpha`` vertices, the paper's tiling rate, so each is a cluster at
slack 0 and extraction takes no cluster slack.  ``greedy_packing`` takes
disjoint copies of one colour in scan order.  ``extract_tiling`` builds the
ties plus a greedy packing of the rest, per colour, and a greedy packing of
the whole host, per colour; it validates and returns the first largest.
Each colour's :func:`~monotile.embeddings.copy_leads` mask is found once and
bounds where every scan of that colour may start.  A copy missing from one
scan stays missing as the free set shrinks, so a scan resumes at a lead
cursor: the lead vertex of the last copy it took, or, for the blue side of
the tie scan, of the first blue copy left.

Falling short of the density target is reported, never raised: the report
carries achieved versus target sizes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
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

ROUNDING_TABLE_VERSION = "5"


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
    epsilon: float
    rounding_table_version: str
    red_copies: int
    blue_copies: int

    def to_json(self) -> str:
        """Every field but ``red_copies`` and ``blue_copies``, keys sorted."""
        payload = asdict(self)
        del payload["red_copies"], payload["blue_copies"]
        return json.dumps(payload, sort_keys=True)


def extraction_target(n: int, H: PatternStats, epsilon: float) -> int:
    """``floor(n/(2k - alpha) - epsilon*n)``, clamped at zero."""
    bound = Fraction(n, H.tiling_denominator) - exact_ratio(epsilon) * n
    return max(0, math.floor(bound))


def maximal_cluster_family(
    G: ColouredGraph,
    H: PatternStats,
    leads: Mapping[Colour, int] | None = None,
) -> ClusterFamily:
    """Vertex-disjoint tie clusters at slack 0, found in scan order.

    Each pass sets aside the first red copy, in scan order, with a side-good
    blue partner (:func:`~monotile.richness.find_side_good_copy`) and that
    partner.  A pass costs one step and each red copy it tries one more; the
    scan stops after ``DEFAULT_BUILDER_BUDGET`` steps, and ``truncated``
    means the budget ran out before the scan finished.  The red cursor is the
    lead vertex of the last tie's red copy, the blue one that of the first
    blue copy left.  ``leads`` maps each colour to a lead mask promise (see
    :func:`~monotile.embeddings.first_copy`), every vertex by default; the
    cursors cut local copies, never the caller's masks.
    """
    if H.ell == 0:
        raise ValueError("monochromatic copy search needs a pattern with at least one edge")
    certs: list[ClusterCertificate] = []
    free_mask = (1 << G.n) - 1
    lead = lead_vertex(H.pattern)
    red_leads, blue_leads = (-1, -1) if leads is None else (leads[Colour.RED], leads[Colour.BLUE])
    steps = DEFAULT_BUILDER_BUDGET
    while steps > 0:
        steps -= 1
        blue_first = first_copy(G.blue_adjacency, H.pattern, free_mask, leads=blue_leads)
        if blue_first is None:
            return ClusterFamily(tuple(certs), truncated=False)
        blue_leads &= ~((1 << blue_first[lead]) - 1)
        for red_map in iter_copies(G.red_adjacency, H.pattern, free_mask, red_leads):
            if steps <= 0:
                return ClusterFamily(tuple(certs), truncated=True)
            steps -= 1
            blue = find_side_good_copy(G, H, Colour.BLUE, free_mask, mask_of(red_map), H.alpha, blue_leads)
            if blue is not None:
                break
        else:
            return ClusterFamily(tuple(certs), truncated=False)
        red = EmbeddedCopy(red_map, Colour.RED)
        certs.append(
            ClusterCertificate(
                vertices=red.vertices | blue.vertices,
                red_tiling=Tiling(Colour.RED, (red,)),
                blue_tiling=Tiling(Colour.BLUE, (blue,)),
                eta=0.0,
            )
        )
        free_mask &= ~(red.vertex_mask | blue.vertex_mask)
        red_leads &= ~((1 << red_map[lead]) - 1)
    return ClusterFamily(tuple(certs), truncated=True)


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


def greedy_candidates(
    G: ColouredGraph, H: PatternStats, leads: Mapping[Colour, int] | None = None
) -> list[Tiling]:
    """Per colour, red first, a :func:`greedy_packing` of the whole host: the
    candidates :func:`extract_tiling` weighs against its tie-scan ones.

    ``leads`` maps each colour to a lead mask promise; the colour's copy
    leads (:func:`~monotile.embeddings.copy_leads`) by default.
    """
    if leads is None:
        leads = {c: copy_leads(G.adjacency_for(c), H.pattern) for c in Colour}
    everything = (1 << G.n) - 1
    return [Tiling(c, greedy_packing(G, H, c, everything, leads[c])) for c in Colour]


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
    seed: int = 0,
) -> tuple[Tiling, ExtractionReport]:
    """Extract a large monochromatic tiling; always returns the best one found.

    Extraction draws no random numbers: ``seed`` steers nothing and is only
    recorded in ``ExtractionReport.seed`` (and so in the report JSON).
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if H.ell == 0:
        raise ValueError("pattern needs at least one edge")
    everything = (1 << G.n) - 1
    leads = {c: copy_leads(G.adjacency_for(c), H.pattern) for c in Colour}
    family = maximal_cluster_family(G, H, leads=leads)
    certs = family.certificates
    rest = everything & ~mask_of(family.vertices)
    tie_copies = {c: tuple(x for cert in certs for x in cert.tiling(c).copies) for c in Colour}
    candidates = [Tiling(c, tie_copies[c] + greedy_packing(G, H, c, rest, leads[c])) for c in Colour]
    candidates += greedy_candidates(G, H, leads)
    # max keeps the first largest: ties before plain greedy, red before blue.
    tiling = _validated(G, H, max(candidates, key=lambda t: t.size))
    largest = {c: max(t.size for t in candidates if t.colour is c) for c in Colour}
    report = ExtractionReport(
        target_size=extraction_target(G.n, H, epsilon),
        achieved_size=tiling.size,
        colour=tiling.colour.value,
        cluster_vertices=sum(len(c.vertices) for c in certs),
        seed=seed,
        epsilon=epsilon,
        rounding_table_version=ROUNDING_TABLE_VERSION,
        red_copies=largest[Colour.RED],
        blue_copies=largest[Colour.BLUE],
    )
    return tiling, report

"""Pattern-graph statistics: 2-density, independence number, cached counts.

The 2-density of a pattern ``H`` is the maximum of ``(e(F) - 1) / (v(F) - 2)``
over subgraphs ``F`` of ``H`` with at least three vertices; graphs with fewer
than two edges default to ``1/2``.  It is returned as an exact
:class:`fractions.Fraction` so threshold exponents never hinge on float ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .graphs import Graph, iter_bits

INDEPENDENCE_CEILING = 20


def m2_density(pattern: Graph) -> Fraction:
    """Exact 2-density of ``pattern``.

    For a fixed vertex subset the ratio is maximised by taking every edge
    inside it, so scanning induced subgraphs on >= 3 vertices suffices.
    """
    if pattern.n < 1:
        raise ValueError("pattern needs at least one vertex")
    if pattern.num_edges < 2:
        return Fraction(1, 2)
    adj = pattern.adjacency
    best = Fraction(1, 2)
    for size in range(3, pattern.n + 1):
        for subset in combinations(range(pattern.n), size):
            m = 0
            inside = 0
            for v in subset:
                inside += (adj[v] & m).bit_count()
                m |= 1 << v
            ratio = Fraction(inside - 1, size - 2)
            if ratio > best:
                best = ratio
    return best


def independence_number(pattern: Graph) -> int:
    """Size of a maximum independent set, by exact branch and bound, up to ``INDEPENDENCE_CEILING`` vertices."""
    if pattern.n > INDEPENDENCE_CEILING:
        raise ValueError(
            f"graph has {pattern.n} vertices, above the brute-force ceiling {INDEPENDENCE_CEILING}"
        )
    adj = pattern.adjacency
    best = 0

    def branch(candidates: int, size: int) -> None:
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        if candidates == 0:
            best = max(best, size)
            return
        # Branch on a highest-degree candidate: exclude it or take it.
        pivot = max(iter_bits(candidates), key=lambda v: (adj[v] & candidates).bit_count())
        branch(candidates & ~(1 << pivot), size)
        branch(candidates & ~((1 << pivot) | adj[pivot]), size + 1)

    branch((1 << pattern.n) - 1, 0)
    return best


@dataclass(frozen=True)
class PatternStats:
    """A pattern graph with its cached tiling-relevant statistics."""

    pattern: Graph
    k: int
    alpha: int
    m2: Fraction
    ell: int

    @classmethod
    def from_graph(cls, pattern: Graph) -> "PatternStats":
        stats = cls(
            pattern=pattern,
            k=pattern.n,
            alpha=independence_number(pattern),
            m2=m2_density(pattern),
            ell=pattern.num_edges,
        )
        stats.check()
        return stats

    def check(self) -> None:
        if not (1 <= self.alpha <= self.k):
            raise ValueError("independence number out of range")
        if self.m2 < Fraction(1, 2):
            raise ValueError("2-density below 1/2")
        if self.k != self.pattern.n or self.ell != self.pattern.num_edges:
            raise ValueError("cached counts disagree with the pattern graph")

    @property
    def tiling_denominator(self) -> int:
        """The ``2k - alpha`` constant governing achievable tiling density."""
        return 2 * self.k - self.alpha

    @property
    def m2_or_one(self) -> Fraction:
        return max(self.m2, Fraction(1))

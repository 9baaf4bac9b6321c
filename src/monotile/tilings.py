"""Tilings: vertex-disjoint monochromatic copies, plus an independent validator.

The validator re-reads every pattern edge in the host's edge and colour
masks: it trusts neither the search that produced a copy nor the colour tag
stored on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .embeddings import EmbeddedCopy
from .graphs import Colour, ColouredGraph, normalize_edge
from .patterns import PatternStats


@dataclass(frozen=True)
class Tiling:
    colour: Colour
    copies: tuple[EmbeddedCopy, ...]

    @property
    def size(self) -> int:
        return len(self.copies)

    @property
    def vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for c in self.copies:
            out.update(c.vertex_map)
        return frozenset(out)

    @property
    def vertex_mask(self) -> int:
        m = 0
        for c in self.copies:
            m |= c.vertex_mask
        return m


def copy_errors(
    G: ColouredGraph,
    H: PatternStats,
    copy: EmbeddedCopy,
    colour: Colour | None,
) -> list[str]:
    """Why ``copy`` fails to be an embedded (optionally monochromatic) copy."""
    problems: list[str] = []
    vm = copy.vertex_map
    if len(vm) != H.k:
        return [f"vertex map has {len(vm)} entries for a {H.k}-vertex pattern"]
    if len(set(vm)) != len(vm):
        return ["vertex map is not injective"]
    if any(not 0 <= v < G.n for v in vm):
        problems.append("vertex map leaves the host vertex range")
        return problems
    for u, v in H.pattern.edges:
        a, b = vm[u], vm[v]
        if not G.graph.adjacency[a] >> b & 1:
            problems.append(f"pattern edge ({u},{v}) maps to the non-edge {normalize_edge(a, b)}")
        elif colour is not None and not G.adjacency_for(colour)[a] >> b & 1:
            problems.append(f"pattern edge ({u},{v}) maps to a {colour.other.value} edge, wanted {colour.value}")
    return problems


def tiling_errors(
    G: ColouredGraph,
    H: PatternStats,
    tiling: Tiling,
    inside: Iterable[int] | None = None,
) -> list[str]:
    """All violations of the tiling contract, empty when valid."""
    problems: list[str] = []
    seen = 0
    allowed = None if inside is None else frozenset(inside)
    for i, copy in enumerate(tiling.copies):
        for p in copy_errors(G, H, copy, tiling.colour):
            problems.append(f"copy {i}: {p}")
        m = copy.vertex_mask
        if m & seen:
            problems.append(f"copy {i} overlaps an earlier copy")
        seen |= m
        if allowed is not None and not copy.vertices <= allowed:
            problems.append(f"copy {i} leaves the allowed vertex set")
    return problems


def validate_tiling(
    G: ColouredGraph,
    H: PatternStats,
    tiling: Tiling,
    inside: Iterable[int] | None = None,
) -> bool:
    return not tiling_errors(G, H, tiling, inside)

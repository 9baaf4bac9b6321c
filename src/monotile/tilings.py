"""Tilings: vertex-disjoint monochromatic copies, plus an independent validator.

The validator re-reads every pattern edge in the host's edge and colour
masks: it trusts neither the search that produced a copy nor the colour tag
stored on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .embeddings import EmbeddedCopy
from .graphs import Colour, ColouredGraph, mask_of, normalize_edge
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


def tiling_errors(
    G: ColouredGraph,
    H: PatternStats,
    tiling: Tiling,
    inside: int = -1,
) -> list[str]:
    """All violations of the tiling contract, empty when valid.

    Each copy is read as one vertex mask; ``inside`` is a vertex mask (see
    :func:`~monotile.graphs.mask_of`), every vertex by default.  A copy's
    map must have one entry per pattern vertex, be injective, stay in the
    host and send every pattern edge to an edge of the tiling's colour;
    copies must be disjoint and lie inside ``inside``.  A map with a negative
    vertex is reported as leaving the host vertex range, and its other
    entries still count for the disjointness and ``inside`` checks.  Never
    raises on a vertex value.
    """
    try:
        masks = [mask_of(c.vertex_map) for c in tiling.copies]
    except ValueError:  # a negative vertex: each copy's mask holds its entries >= 0
        masks = [mask_of(v for v in c.vertex_map if v >= 0) for c in tiling.copies]
    n, k, colour = G.n, H.k, tiling.colour
    adjacency = G.graph.adjacency
    wanted = G.adjacency_for(colour)
    problems: list[str] = []
    seen = 0
    for i, (copy, m) in enumerate(zip(tiling.copies, masks)):
        vm = copy.vertex_map
        if len(vm) != k:
            problems.append(f"copy {i}: vertex map has {len(vm)} entries for a {k}-vertex pattern")
        elif m.bit_count() != k:  # a repeat, or a negative vertex the mask left out
            fault = "is not injective" if min(vm) >= 0 else "leaves the host vertex range"
            problems.append(f"copy {i}: vertex map {fault}")
        elif m >> n:
            problems.append(f"copy {i}: vertex map leaves the host vertex range")
        else:
            for u, v in H.pattern.edges:
                a, b = vm[u], vm[v]
                if not adjacency[a] >> b & 1:
                    problems.append(f"copy {i}: pattern edge ({u},{v}) maps to the non-edge {normalize_edge(a, b)}")
                elif not wanted[a] >> b & 1:
                    problems.append(
                        f"copy {i}: pattern edge ({u},{v}) maps to a {colour.other.value} edge, wanted {colour.value}"
                    )
        if m & seen:
            problems.append(f"copy {i} overlaps an earlier copy")
        seen |= m
        if m & ~inside:
            problems.append(f"copy {i} leaves the allowed vertex set")
    return problems


def validate_tiling(
    G: ColouredGraph,
    H: PatternStats,
    tiling: Tiling,
    inside: int = -1,
) -> bool:
    return not tiling_errors(G, H, tiling, inside)

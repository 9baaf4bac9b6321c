"""Planted benchmark instances with known structure.

These feed the process and extraction tests: hosts built so that the
cluster machinery provably has material to work with (or provably has
none, for the failure paths).  The red cross edges are drawn as one bool
block of ``sampling.draws_below`` coins, one raw Philox word per cross pair,
whose rows (for X) and columns (for Y) the row packer of
:mod:`monotile.graphs` turns into masks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .embeddings import EmbeddedCopy
from .graphs import Colour, ColouredGraph, Graph, _packed_rows
from .patterns import PatternStats
from .sampling import derive_seed, draws_below, philox_generator
from .tilings import Tiling


@dataclass(frozen=True)
class ProcessInstance:
    coloured: ColouredGraph
    x_vertices: frozenset[int]
    y_vertices: frozenset[int]
    blue_tiling: Tiling
    red_tiling: Tiling


def _block_tiling(k: int, start: int, copies: int, colour: Colour) -> Tiling:
    """``copies`` consecutive ``k``-vertex blocks from ``start``."""
    blocks = range(start, start + copies * k, k)
    return Tiling(colour, tuple(EmbeddedCopy(tuple(range(b, b + k)), colour) for b in blocks))


def planted_process_instance(
    H: PatternStats,
    s: int,
    seed: int = 0,
    cross_red_fraction: float = 1.0,
    with_cross: bool = True,
) -> ProcessInstance:
    """Two complete blocks of size ``s``: X blue inside, Y red inside.

    Cross edges (when present) are red with the given probability,
    independently per edge.  Fraction 1.0 drives the process through red
    steps, 0.0 through blue steps, anything between mixes the two; a
    fraction outside [0, 1], or NaN, is a ``ValueError``.
    """
    k = H.k
    if s % k or s < 2 * k:
        raise ValueError("side size must be a multiple of the pattern order, at least twice it")
    if not 0.0 <= cross_red_fraction <= 1.0:
        raise ValueError(f"cross red fraction {cross_red_fraction} outside [0, 1]")
    n = 2 * s
    x_mask, y_mask = (1 << s) - 1, ((1 << s) - 1) << s
    y_red = [y_mask ^ (1 << v) for v in range(s, n)]
    if with_cross:
        bits = philox_generator(derive_seed("planted-cross", seed)).bit_generator
        hits = draws_below(bits, s * s, cross_red_fraction).reshape(s, s)  # hits[x, y]: edge (x, s + y) is red
        red = tuple([m << s for m in _packed_rows(hits)] + [m | b for m, b in zip(_packed_rows(hits.T), y_red)])
        host = Graph.complete(n)
    else:
        red = (0,) * s + tuple(y_red)
        host = Graph.from_adjacency(n, tuple([x_mask ^ (1 << v) for v in range(s)] + y_red))
    m = s // k
    return ProcessInstance(
        coloured=ColouredGraph.from_masks(host, red),
        x_vertices=frozenset(range(s)),
        y_vertices=frozenset(range(s, n)),
        blue_tiling=_block_tiling(k, 0, m, Colour.BLUE),
        red_tiling=_block_tiling(k, s, m, Colour.RED),
    )


def bowtie_union(count: int, isolated: int = 0) -> ColouredGraph:
    """Disjoint bow ties (red triangle and blue triangle glued at a vertex)."""
    n = 5 * count + isolated
    adjacency, red = [0] * n, [0] * n
    for i in range(count):
        for v in range(5 * i, 5 * i + 5):
            red[v] = (0b111 << 5 * i) & ~(1 << v) if v < 5 * i + 3 else 0
            blue = (0b11100 << 5 * i) & ~(1 << v) if v >= 5 * i + 2 else 0
            adjacency[v] = red[v] | blue
    return ColouredGraph.from_masks(Graph.from_adjacency(n, tuple(adjacency)), tuple(red))

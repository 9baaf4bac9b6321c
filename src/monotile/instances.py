"""Planted benchmark instances with known structure.

These feed the process and extraction tests: hosts built so that the
cluster machinery provably has material to work with (or provably has
none, for the failure paths).
"""

from __future__ import annotations

from dataclasses import dataclass

from .embeddings import EmbeddedCopy
from .graphs import Colour, ColouredGraph, Graph
from .patterns import PatternStats
from .sampling import derive_seed, philox_generator
from .tilings import Tiling


@dataclass(frozen=True)
class ProcessInstance:
    coloured: ColouredGraph
    x_vertices: frozenset[int]
    y_vertices: frozenset[int]
    blue_tiling: Tiling
    red_tiling: Tiling


def _block_tiling(H: PatternStats, start: int, copies: int, colour: Colour) -> Tiling:
    k = H.k
    out = []
    for i in range(copies):
        base = start + i * k
        out.append(EmbeddedCopy(tuple(base + j for j in range(k)), colour))
    return Tiling(colour, tuple(out))


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
    steps, 0.0 through blue steps, anything between mixes the two.
    """
    k = H.k
    if s % k or s < 2 * k:
        raise ValueError("side size must be a multiple of the pattern order, at least twice it")
    n = 2 * s
    colour: dict[tuple[int, int], Colour] = {}
    for u in range(s):
        for v in range(u + 1, s):
            colour[(u, v)] = Colour.BLUE
    for u in range(s, n):
        for v in range(u + 1, n):
            colour[(u, v)] = Colour.RED
    if with_cross:
        rng = philox_generator(derive_seed("planted-cross", seed))
        draws = rng.random(s * s).tolist()
        idx = 0
        for u in range(s):
            for v in range(s, n):
                colour[(u, v)] = (
                    Colour.RED if draws[idx] < cross_red_fraction else Colour.BLUE
                )
                idx += 1
    host = Graph(n, frozenset(colour))
    m = s // k
    return ProcessInstance(
        coloured=ColouredGraph(host, colour),
        x_vertices=frozenset(range(s)),
        y_vertices=frozenset(range(s, n)),
        blue_tiling=_block_tiling(H, 0, m, Colour.BLUE),
        red_tiling=_block_tiling(H, s, m, Colour.RED),
    )


def bowtie_union(count: int, isolated: int = 0) -> ColouredGraph:
    """Disjoint bow ties (red triangle and blue triangle glued at a vertex)."""
    colour: dict[tuple[int, int], Colour] = {}
    for i in range(count):
        base = 5 * i
        for e in ((base, base + 1), (base, base + 2), (base + 1, base + 2)):
            colour[e] = Colour.RED
        for e in ((base + 2, base + 3), (base + 2, base + 4), (base + 3, base + 4)):
            colour[e] = Colour.BLUE
    n = 5 * count + isolated
    return ColouredGraph(Graph(n, frozenset(colour)), colour)

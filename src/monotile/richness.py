"""Richness probes: one-sided good copies and bow ties.

A pair of disjoint sets ``(X, Y)`` is *served* when the coloured host has a
red copy of the pattern inside ``G[X + Y]`` meeting ``X`` in at least
``alpha`` vertices, or a blue copy meeting ``Y`` likewise.  A host is rich at
size ``s`` when every disjoint pair of ``s``-sets is served under every
colouring; a single failed probe is the counterexample certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .embeddings import EmbeddedCopy, find_triangle, first_copy, iter_triangles
from .graphs import Colour, ColouredGraph, mask_of
from .patterns import PatternStats


class Side(Enum):
    X = "X"
    Y = "Y"


@dataclass(frozen=True)
class GoodCopy:
    """A monochromatic copy meeting the required side in >= alpha vertices."""

    copy: EmbeddedCopy
    side_hit: Side


def find_side_good_copy(
    G: ColouredGraph,
    H: PatternStats,
    colour: Colour,
    universe_mask: int,
    side_mask: int,
    min_side: int,
    leads: int = -1,
) -> EmbeddedCopy | None:
    """First ``colour``-monochromatic copy in the universe with >= ``min_side`` side vertices.

    ``leads`` is a lead mask promise, as in :func:`~monotile.embeddings.first_copy`.
    """
    vm = first_copy(G.adjacency_for(colour), H.pattern, universe_mask, side_mask, min_side, leads)
    return None if vm is None else EmbeddedCopy(vm, colour)


def richness_probe(
    G: ColouredGraph,
    H: PatternStats,
    X: Iterable[int],
    Y: Iterable[int],
) -> GoodCopy | None:
    """Witness for the pair ``(X, Y)``, red side first; ``None`` means the pair fails."""
    x_mask = mask_of(X)
    y_mask = mask_of(Y)
    if x_mask & y_mask:
        raise ValueError("X and Y must be disjoint")
    universe = x_mask | y_mask
    red = find_side_good_copy(G, H, Colour.RED, universe, x_mask, H.alpha)
    if red is not None:
        return GoodCopy(red, Side.X)
    blue = find_side_good_copy(G, H, Colour.BLUE, universe, y_mask, H.alpha)
    if blue is not None:
        return GoodCopy(blue, Side.Y)
    return None


def find_bowtie(
    G: ColouredGraph,
    forbidden: Iterable[int] = (),
    pattern: PatternStats | None = None,
) -> tuple[EmbeddedCopy, EmbeddedCopy] | None:
    """Two monochromatic triangles of different colours sharing exactly one vertex.

    Bow ties are the triangle specialisation; other patterns go through the
    cluster machinery instead, so a non-triangle ``pattern`` is rejected.
    """
    if pattern is not None and not pattern.is_triangle():
        raise ValueError("bow tie search is defined for the triangle pattern only")
    universe = ((1 << G.n) - 1) & ~mask_of(forbidden)
    red_adj = G.red_adjacency
    blue_adj = G.blue_adjacency
    for tri in iter_triangles(red_adj, universe):
        tri_mask = mask_of(tri)
        for shared in tri:
            # Allow only the shared vertex from the red triangle.
            window = (universe & ~tri_mask) | (1 << shared)
            other = find_triangle(blue_adj, window, 1 << shared, 1)
            if other is not None:
                red_copy = EmbeddedCopy(tri, Colour.RED)
                blue_copy = EmbeddedCopy(other, Colour.BLUE)
                if len(red_copy.vertices & blue_copy.vertices) != 1:
                    raise AssertionError("bow tie triangles must share exactly one vertex")
                return (red_copy, blue_copy)
    return None

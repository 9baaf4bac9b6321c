"""Richness probes: one-sided good copies.

A pair of disjoint sets ``(X, Y)`` is *served* when the coloured host has a
red copy of the pattern inside ``G[X + Y]`` meeting ``X`` in at least
``alpha`` vertices, or a blue copy meeting ``Y`` likewise.  A host is rich at
size ``s`` when every disjoint pair of ``s``-sets is served under every
colouring; a single failed probe is the counterexample certificate.
:func:`find_side_good_copy` also finds the blue half of each extraction tie
(for K3, a bow tie: two triangles of different colours sharing one vertex).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .embeddings import EmbeddedCopy, first_copy
from .graphs import Colour, ColouredGraph, disjoint_side_masks
from .patterns import PatternStats


class Side(Enum):
    X = "X"
    Y = "Y"


@dataclass(frozen=True, init=False)
class GoodCopy:
    """A monochromatic copy meeting the required side in >= alpha vertices."""

    copy: EmbeddedCopy
    side_hit: Side

    def __init__(self, copy: EmbeddedCopy, side_hit: Side) -> None:
        # Fills the instance dict directly: the generated frozen __init__
        # pays one object.__setattr__ per field, and every served probe builds one.
        d = self.__dict__
        d["copy"] = copy
        d["side_hit"] = side_hit


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
    """Witness for the pair ``(X, Y)``, red side first; ``None`` means the pair fails.

    ``X`` and ``Y`` must be disjoint vertex sets of the host.
    """
    x_mask, y_mask = disjoint_side_masks(G.n, X, Y)
    universe = x_mask | y_mask
    vm = first_copy(G.red_adjacency, H.pattern, universe, x_mask, H.alpha)
    if vm is not None:
        return GoodCopy(EmbeddedCopy(vm, Colour.RED), Side.X)
    vm = first_copy(G.blue_adjacency, H.pattern, universe, y_mask, H.alpha)
    if vm is not None:
        return GoodCopy(EmbeddedCopy(vm, Colour.BLUE), Side.Y)
    return None

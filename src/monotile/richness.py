"""Richness probes: one-sided good copies.

A pair of disjoint sets ``(X, Y)`` is *served* when the coloured host has a
red copy of the pattern inside ``G[X + Y]`` meeting ``X`` in at least
``alpha`` vertices, or a blue copy meeting ``Y`` likewise.  A host is rich at
size ``s`` when every disjoint pair of ``s``-sets is served under every
colouring; a single failed probe is the counterexample certificate, and a
served probe returns the copy, whose colour names the side it serves.
:func:`find_side_good_copy` also finds the blue half of each extraction tie
(for K3, a bow tie: two triangles of different colours sharing one vertex).
"""

from __future__ import annotations

from typing import Iterable

from .embeddings import EmbeddedCopy, first_copy
from .graphs import Colour, ColouredGraph, disjoint_side_masks
from .patterns import PatternStats


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
) -> EmbeddedCopy | None:
    """The copy serving ``(X, Y)``, red side first; ``None`` means the pair fails.

    A red copy means ``X`` was served, a blue one ``Y``.  ``X`` and ``Y`` must
    be disjoint vertex sets of the host.
    """
    x_mask, y_mask = disjoint_side_masks(G.n, X, Y)
    universe = x_mask | y_mask
    vm = first_copy(G.red_adjacency, H.pattern, universe, x_mask, H.alpha)
    if vm is not None:
        return EmbeddedCopy(vm, Colour.RED)
    vm = first_copy(G.blue_adjacency, H.pattern, universe, y_mask, H.alpha)
    if vm is not None:
        return EmbeddedCopy(vm, Colour.BLUE)
    return None

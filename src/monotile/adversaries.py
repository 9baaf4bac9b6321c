"""Colouring adversaries: seeded stand-ins for a universally quantified opponent.

Every strategy produces a total red/blue colouring of any input graph and is
a pure function of (graph, spec), so sweeps replay bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping

from .budget import require_budget
from .embeddings import _cached_order, iter_embeddings
from .graphs import Colour, ColouredGraph, Edge, Graph, normalize_edge, pattern_by_name
from .sampling import derive_seed, philox_generator

ADVERSARY_NAMES = (
    "uniform-random",
    "planted-partition",
    "copy-avoider-greedy",
    "majority-degree",
)


@dataclass(frozen=True)
class AdversarySpec:
    name: str
    params: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.name not in ADVERSARY_NAMES:
            raise ValueError(f"unknown adversary {self.name!r}; known: {ADVERSARY_NAMES}")


def _edge_order(G: Graph, seed: int) -> list[Edge]:
    edges = sorted(G.edges)
    rng = philox_generator(derive_seed("adversary-order", seed))
    return [edges[i] for i in rng.permutation(len(edges)).tolist()]


def _uniform_random(G: Graph, spec: AdversarySpec) -> dict[Edge, Colour]:
    edges = sorted(G.edges)
    draws = philox_generator(derive_seed("adversary-uniform", spec.seed)).random(
        max(len(edges), 1)
    )
    return {e: (Colour.RED if d < 0.5 else Colour.BLUE) for e, d in zip(edges, draws)}


def _planted_partition(G: Graph, spec: AdversarySpec) -> dict[Edge, Colour]:
    part = spec.params.get("part")
    if part is None:
        size = int(spec.params.get("part_size", max(1, G.n // 5)))
        part = range(size)
    inside = frozenset(part)
    return {
        e: (Colour.RED if e[0] in inside and e[1] in inside else Colour.BLUE)
        for e in G.edges
    }


def _resolve_pattern(spec: AdversarySpec) -> Graph:
    pattern = spec.params.get("pattern", "k3")
    if isinstance(pattern, Graph):
        return pattern
    return pattern_by_name(str(pattern))


def _closing_estimate(G: Graph, pattern: Graph) -> int:
    """Bound on the pinned matcher's embeddings over all host edges: per pin, each later
    position has at most max degree (one placed neighbour), co-degree (more) or n (none)."""
    pins = [[len(p) for p in _cached_order(pattern, (a, b))[1][2:]] for a, b in pattern.edges]
    width = {0: G.n, 1: max((a.bit_count() for a in G.adjacency), default=0)}
    if any(c >= 2 for pin in pins for c in pin):
        width[2] = max(((x & y).bit_count() for x, y in combinations(G.adjacency, 2)), default=0)
    return 2 * G.num_edges * sum(math.prod(width[min(c, 2)] for c in pin) for pin in pins)


def _closing_counter(G: Graph, pattern: Graph, budget: float | None):
    """``count(adj, u, v)``: copies of ``pattern`` through edge (u, v) in ``adj``, which holds it.

    Triangles are common neighbours; other patterns pin each pattern edge to
    (u, v) both ways in the matcher, under the budget, and dedupe edge sets.
    """
    if pattern.n == 3 and pattern.num_edges == 3:
        return lambda adj, u, v: (adj[u] & adj[v]).bit_count()
    require_budget(_closing_estimate(G, pattern), budget, "copy-avoider enumeration")
    universe = (1 << G.n) - 1

    def count(adj: list[int], u: int, v: int) -> int:
        seen: set[frozenset[Edge]] = set()
        for a, b in pattern.edges:
            for x, y in ((u, v), (v, u)):
                for vm in iter_embeddings(adj, pattern, universe, pin=((a, x), (b, y))):
                    seen.add(frozenset(normalize_edge(vm[s], vm[t]) for s, t in pattern.edges))
        return len(seen)

    return count


def _copy_avoider(G: Graph, spec: AdversarySpec, budget: float | None) -> dict[Edge, Colour]:
    """Greedy: give each edge the colour that completes fewer monochromatic copies.

    Each edge joins both colours' masks of assigned edges, is counted in each,
    and stays only in the colour picked.
    """
    closing = _closing_counter(G, _resolve_pattern(spec), budget)
    coin = philox_generator(derive_seed("adversary-avoider", spec.seed))
    red, blue = [0] * G.n, [0] * G.n
    assigned: dict[Edge, Colour] = {}
    for u, v in _edge_order(G, spec.seed):
        bu, bv = 1 << u, 1 << v
        red[u] |= bv
        red[v] |= bu
        blue[u] |= bv
        blue[v] |= bu
        closed_red, closed_blue = closing(red, u, v), closing(blue, u, v)
        if closed_red < closed_blue:
            pick = Colour.RED
        elif closed_blue < closed_red:
            pick = Colour.BLUE
        else:
            pick = Colour.RED if coin.random() < 0.5 else Colour.BLUE
        assigned[(u, v)] = pick
        drop = blue if pick is Colour.RED else red
        drop[u] ^= bv
        drop[v] ^= bu
    return assigned


def _majority_degree(G: Graph, spec: AdversarySpec) -> dict[Edge, Colour]:
    """Rich-get-richer: follow the majority colour already at the endpoints."""
    coin = philox_generator(derive_seed("adversary-majority", spec.seed))
    red_deg = [0] * G.n
    blue_deg = [0] * G.n
    assigned: dict[Edge, Colour] = {}
    for u, v in _edge_order(G, spec.seed):
        reds = red_deg[u] + red_deg[v]
        blues = blue_deg[u] + blue_deg[v]
        if reds > blues:
            pick = Colour.RED
        elif blues > reds:
            pick = Colour.BLUE
        else:
            pick = Colour.RED if coin.random() < 0.5 else Colour.BLUE
        assigned[(u, v)] = pick
        if pick is Colour.RED:
            red_deg[u] += 1
            red_deg[v] += 1
        else:
            blue_deg[u] += 1
            blue_deg[v] += 1
    return assigned


_STRATEGIES = {
    "uniform-random": _uniform_random,
    "planted-partition": _planted_partition,
    "majority-degree": _majority_degree,
}


def colour_with(G: Graph, spec: AdversarySpec, budget: float | None = None) -> ColouredGraph:
    """Apply the adversary; the result is total and deterministic per seed.

    ``budget`` caps the copy-avoider's work on patterns other than triangles.
    """
    if spec.name == "copy-avoider-greedy":
        return ColouredGraph(G, _copy_avoider(G, spec, budget))
    return ColouredGraph(G, _STRATEGIES[spec.name](G, spec))

"""Colouring adversaries: seeded stand-ins for a universally quantified opponent.

Every strategy produces a total red/blue colouring of any input graph and is
a pure function of (graph, spec), so sweeps replay bit-for-bit.

The two greedy strategies (majority-degree, copy-avoider) visit the edges in
one seeded order and send each edge to the colour its rule prefers; every tie
reads the next of one bulk draw of Philox coins, ``sampling.draws_below`` at
one half (which also picks the uniform-random adversary's red edges).
Majority-degree keeps one signed degree difference (red minus blue) per
vertex and sends an edge red when its endpoints' differences sum above zero.
The copy-avoider reads, on the masks of the edges already coloured, the
copies an edge closes in each colour: for complete patterns the ``K_(k-2)``
in the common neighbourhood, counted on masks (one popcount for triangles);
for other patterns the pinned matcher's embeddings, a fixed multiple of the
copies, under a work budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Mapping

import numpy as np

from .budget import require_budget
from .embeddings import _expansion_order, iter_embeddings
from .graphs import ColouredGraph, Graph, Masks, _cliques, mask_of, masks_from_pairs, pattern_by_name
from .sampling import derive_seed, draws_below, philox_generator

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


def _visit_order(G: Graph, seed: int, label: str) -> tuple[np.ndarray, np.ndarray, Iterator[bool]]:
    """The greedy strategies' draws: the host edges' endpoints ``(us, vs)`` in the
    seeded visiting order, and the tie coins, ``draws_below`` at one half on ``m`` words
    under ``label``, heads (red) when the word is below it."""
    us, vs = G.edge_pairs
    perm = philox_generator(derive_seed("adversary-order", seed)).permutation(len(us))
    coins = draws_below(philox_generator(derive_seed(label, seed)).bit_generator, len(us), 0.5)
    return us[perm], vs[perm], iter(coins.tolist())


def _uniform_random(G: Graph, spec: AdversarySpec) -> Masks:
    us, vs = G.edge_pairs
    bits = philox_generator(derive_seed("adversary-uniform", spec.seed)).bit_generator
    red = np.flatnonzero(draws_below(bits, len(us), 0.5))  # an index, not a bool mask: much faster to gather
    return masks_from_pairs(G.n, us[red], vs[red])


def _planted_partition(G: Graph, spec: AdversarySpec) -> Masks:
    part = spec.params.get("part")
    if part is None:
        part = range(min(max(1, G.n // 5), G.n))
    elif not all(0 <= v < G.n for v in part):
        raise ValueError(f"planted-partition part vertices must lie in range({G.n})")
    inside = mask_of(part)
    return tuple(a & inside if inside >> v & 1 else 0 for v, a in enumerate(G.adjacency))


def _resolve_pattern(spec: AdversarySpec) -> Graph:
    pattern = spec.params.get("pattern", "k3")
    return pattern if isinstance(pattern, Graph) else pattern_by_name(str(pattern))


def _closing_estimate(G: Graph, pattern: Graph) -> int:
    """Bound on the pinned matcher's embeddings over all host edges: per pin, each later
    position has at most max degree (one placed neighbour), co-degree (more) or n (none)."""
    pins = [[len(p) for p in _expansion_order(pattern, (a, b))[1][2:]] for a, b in pattern.edges]
    width = {0: G.n, 1: max((a.bit_count() for a in G.adjacency), default=0)}
    if any(c >= 2 for pin in pins for c in pin):
        width[2] = max(((x & y).bit_count() for x, y in combinations(G.adjacency, 2)), default=0)
    return 2 * G.num_edges * sum(math.prod(width[min(c, 2)] for c in pin) for pin in pins)


def _clique_estimate(G: Graph, k: int) -> int:
    """Bound on ``_cliques``' loop iterations for ``K_k`` over all host edges and both
    colours: a level with ``t >= 2`` loops over at most ``cod`` vertices, the maximum
    co-degree of a host edge, and ``t = 1`` is a popcount."""
    adj = G.adjacency
    us, vs = G.edge_pairs
    cod = max(((adj[u] & adj[v]).bit_count() for u, v in zip(us.tolist(), vs.tolist())), default=0)
    return 2 * G.num_edges * sum(cod**i for i in range(1, k - 2))


def _closing_counter(G: Graph, pattern: Graph, budget: float | None):
    """``count(adj, u, v)``: the cost of the copies of ``pattern`` that edge (u, v) closes
    in ``adj``, which holds only the edges already coloured.

    A ``K_k`` through uv is uv plus a ``K_(k-2)`` in the common neighbourhood, which
    placing uv does not change: triangles are one popcount, larger cliques ``_cliques``
    under the budget. Other patterns set uv's bits, count the embeddings of the matcher
    pinned at each pattern edge both ways, under the budget, and clear the bits. An
    embedding maps exactly one pattern edge onto {u, v}, one way, so it is listed once;
    a copy (an edge set) is the image of ``|Aut(H')| * P(n - k', i)`` embeddings, ``H'``
    the pattern less its ``i`` isolated vertices, on ``k'`` vertices. That factor is fixed
    per host and pattern, so ``_greedy``'s comparisons and ties are those of the copies.
    """
    if pattern.n >= 3 and pattern.num_edges == pattern.n * (pattern.n - 1) // 2:
        t = pattern.n - 2
        if t == 1:
            return lambda adj, u, v: (adj[u] & adj[v]).bit_count()
        require_budget(_clique_estimate(G, pattern.n), budget, "copy-avoider enumeration")
        return lambda adj, u, v: _cliques(adj, adj[u] & adj[v], t)
    require_budget(_closing_estimate(G, pattern), budget, "copy-avoider enumeration")
    universe = (1 << G.n) - 1

    def count(adj: list[int], u: int, v: int) -> int:
        bu, bv = 1 << u, 1 << v
        adj[u] |= bv
        adj[v] |= bu
        pins = (pin for a, b in pattern.edges for pin in (((a, u), (b, v)), ((a, v), (b, u))))
        total = sum(1 for pin in pins for _ in iter_embeddings(adj, pattern, universe, pin=pin))
        adj[u] ^= bv
        adj[v] ^= bu
        return total

    return count


def _greedy(G: Graph, seed: int, label: str, cost) -> Masks:
    """Each edge reads ``cost(adj, u, v)`` in both colours, on the masks of the edges
    already coloured, and joins the cheaper colour; a tie takes the next coin.

    Reading before placing is exact for the copy-avoider's costs: the clique counts
    read only the common neighbourhood of u and v (never u or v) and the edges
    inside it, and the pinned matcher places uv itself.
    """
    us, vs, heads = _visit_order(G, seed, label)
    red, blue = [0] * G.n, [0] * G.n
    for u, v in zip(us.tolist(), vs.tolist()):
        cost_red, cost_blue = cost(red, u, v), cost(blue, u, v)
        keep = red if cost_red < cost_blue or cost_red == cost_blue and next(heads) else blue
        keep[u] |= 1 << v
        keep[v] |= 1 << u
    return tuple(red)


def _majority_degree(G: Graph, spec: AdversarySpec) -> Masks:
    """Rich-get-richer: follow the majority colour already at the endpoints.

    ``lead[v]`` is v's red minus blue degree over the edges already coloured, so an
    edge goes red iff its two endpoints together have more red than blue edges,
    ``lead[u] + lead[v] > 0``, and a zero sum takes the next coin.
    """
    us, vs, heads = _visit_order(G, spec.seed, "adversary-majority")
    lead = [0] * G.n
    signs = []
    for u, v in zip(us.tolist(), vs.tolist()):
        total = lead[u] + lead[v]
        sign = 1 if total > 0 or total == 0 and next(heads) else -1
        lead[u] += sign
        lead[v] += sign
        signs.append(sign)
    red = np.flatnonzero(np.array(signs, dtype=np.int8) > 0)
    return masks_from_pairs(G.n, us[red], vs[red])


_STRATEGIES = {
    "uniform-random": _uniform_random,
    "planted-partition": _planted_partition,
    "majority-degree": _majority_degree,
}


def colour_with(G: Graph, spec: AdversarySpec, budget: float | None = None) -> ColouredGraph:
    """Apply the adversary; the result is total and deterministic per seed.

    ``budget`` caps the copy-avoider's work on patterns other than triangles.
    """
    if spec.name == "copy-avoider-greedy":  # each edge goes where it completes fewer copies
        closing = _closing_counter(G, _resolve_pattern(spec), budget)
        return ColouredGraph.from_masks(G, _greedy(G, spec.seed, "adversary-avoider", closing))
    return ColouredGraph.from_masks(G, _STRATEGIES[spec.name](G, spec))

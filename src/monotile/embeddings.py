"""Monochromatic copy search behind one mask-only entry point, :func:`first_copy`.

Searches take one colour class's per-vertex adjacency bitmasks and a universe
bitmask.  The generic matcher backtracks over a fixed pattern vertex order
(connected expansion, highest degree first), trying host candidates in
ascending order, so the first copy is the lexicographically first embedding.
Triangles dispatch to a bitset search (Chiba-Nishizeki style) returning the
same copy; with a side requirement it seeds only from side vertices.

Every search takes a ``leads`` mask of the vertices allowed in the first scan
position.  :func:`copy_leads` finds, once per colour class, the vertices that
lead some copy at all; no copy inside any subset leads from elsewhere.  Greedy
packings on a shrinking free set also cut the mask below the lead of the last
copy taken, so each scan resumes where the previous copy began.

Copies are counted as subgraphs: distinct vertex images up to pattern
automorphism, i.e. the labelled embedding count divided by ``|Aut(H)|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .budget import require_budget
from .graphs import Colour, ColouredGraph, Graph, iter_bits, mask_of
from .patterns import PatternStats


@dataclass(frozen=True)
class EmbeddedCopy:
    """An embedded copy of the pattern: pattern vertex ``i`` sits at ``vertex_map[i]``.

    ``colour`` is the single colour of all mapped edges, or ``None`` for a
    copy that is not monochromatic.
    """

    vertex_map: tuple[int, ...]
    colour: Colour | None

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self.vertex_map)

    @property
    def vertex_mask(self) -> int:
        return mask_of(self.vertex_map)


def _expansion_order(pattern: Graph, lead: tuple[int, ...] = ()):
    """Pattern vertex order opening with ``lead``, plus each position's earlier neighbours."""
    adj = pattern.adjacency
    remaining = set(range(pattern.n)).difference(lead)
    order = list(lead)
    placed_mask = mask_of(lead)
    while remaining:
        # Prefer vertices with most already-placed neighbours, then high degree.
        nxt = max(
            remaining,
            key=lambda v: ((adj[v] & placed_mask).bit_count(), adj[v].bit_count(), -v),
        )
        remaining.remove(nxt)
        order.append(nxt)
        placed_mask |= 1 << nxt
    pos_of = {v: i for i, v in enumerate(order)}
    parents = tuple(
        tuple(pos_of[u] for u in iter_bits(adj[v]) if pos_of[u] < i)
        for i, v in enumerate(order)
    )
    return tuple(order), parents


@lru_cache(maxsize=256)
def _cached_order(pattern: Graph, lead: tuple[int, ...] = ()):
    return _expansion_order(pattern, lead)


def lead_vertex(pattern: Graph) -> int:
    """The pattern vertex an unpinned scan places first; ``leads`` masks hold its image."""
    return _cached_order(pattern)[0][0]


def iter_embeddings(
    adjacency: Sequence[int],
    pattern: Graph,
    universe_mask: int,
    side_mask: int = 0,
    min_side: int = 0,
    leads: int = -1,
    pin: tuple[tuple[int, int], ...] = (),
) -> Iterator[tuple[int, ...]]:
    """Yield injective maps sending every pattern edge into ``adjacency``.

    ``side_mask``/``min_side`` restrict output to embeddings whose image meets
    the side set in at least ``min_side`` vertices (pruned during search).
    The first-position vertex lies in ``leads``.  Each ``(pattern vertex,
    host vertex)`` pair in ``pin`` is fixed, placed first, in that order.
    """
    k = pattern.n
    order, parents = _cached_order(pattern, tuple(p for p, _ in pin) if pin else ())
    allowed = [universe_mask & leads] + [universe_mask] * (k - 1)
    for pos, (_, h) in enumerate(pin):
        allowed[pos] &= 1 << h
    assign = [0] * k

    def rec(pos: int, used: int, side_count: int) -> Iterator[tuple[int, ...]]:
        if pos == k:
            vm = [0] * k
            for i, pv in enumerate(order):
                vm[pv] = assign[i]
            yield tuple(vm)
            return
        cand = allowed[pos] & ~used
        for j in parents[pos]:
            cand &= adjacency[assign[j]]
        slack = k - pos - 1
        for v in iter_bits(cand):
            new_side = side_count + ((side_mask >> v) & 1)
            if new_side + slack < min_side:
                continue
            assign[pos] = v
            yield from rec(pos + 1, used | (1 << v), new_side)

    yield from rec(0, 0, 0)


@lru_cache(maxsize=256)
def automorphism_count(pattern: Graph) -> int:
    """|Aut(pattern)|, counted as embeddings of the pattern into itself."""
    full = (1 << pattern.n) - 1
    return sum(1 for _ in iter_embeddings(pattern.adjacency, pattern, full))


def _resolve_universe(n: int, allowed_vertices: Iterable[int] | int | None) -> int:
    full = (1 << n) - 1
    if allowed_vertices is None:
        return full
    if isinstance(allowed_vertices, int):
        return allowed_vertices & full
    return mask_of(allowed_vertices) & full


def find_mono_copy(
    G: ColouredGraph,
    H: PatternStats,
    allowed_vertices: Iterable[int] | int | None = None,
    colour_filter: Colour | None = None,
) -> EmbeddedCopy | None:
    """First monochromatic copy of ``H`` inside ``G[allowed_vertices]``, or ``None``.

    With no colour filter, red is searched before blue.
    """
    if H.ell == 0:
        raise ValueError("monochromatic copy search needs a pattern with at least one edge")
    universe = _resolve_universe(G.n, allowed_vertices)
    colours = (colour_filter,) if colour_filter else (Colour.RED, Colour.BLUE)
    for colour in colours:
        vm = first_copy(G.adjacency_for(colour), H.pattern, universe)
        if vm is not None:
            return EmbeddedCopy(vm, colour)
    return None


def count_mono_embeddings(
    G: ColouredGraph,
    H: PatternStats,
    colour: Colour,
    allowed_vertices: Iterable[int] | None = None,
    budget: float | None = None,
) -> int:
    universe = _resolve_universe(G.n, allowed_vertices)
    require_budget(float(universe.bit_count()) ** H.k, budget, "embedding enumeration")
    adj = G.adjacency_for(colour)
    return sum(1 for _ in iter_embeddings(adj, H.pattern, universe))


def count_mono_copies(
    G: ColouredGraph,
    H: PatternStats,
    colour: Colour,
    allowed_vertices: Iterable[int] | None = None,
    budget: float | None = None,
) -> int:
    """Number of monochromatic copies of ``H`` in colour ``colour``, as subgraphs."""
    if H.ell == 0:
        raise ValueError("monochromatic copy counting needs a pattern with at least one edge")
    labelled = count_mono_embeddings(G, H, colour, allowed_vertices, budget)
    aut = automorphism_count(H.pattern)
    if labelled % aut:
        raise AssertionError("labelled embedding count not divisible by |Aut(H)|")
    return labelled // aut


def first_copy(
    adjacency: Sequence[int],
    pattern: Graph,
    universe_mask: int,
    side_mask: int = 0,
    min_side: int = 0,
    leads: int = -1,
) -> tuple[int, ...] | None:
    """The first embedding :func:`iter_embeddings` yields, or ``None``; triangles take the fast path.

    ``leads`` is a promise: no copy in the universe has its first-position
    vertex (for K3, its least vertex) outside it, so the scan skips those
    vertices.  A resume cursor at ``v`` is ``leads & ~((1 << v) - 1)``.
    """
    if _is_triangle(pattern):
        return find_triangle(adjacency, universe_mask, side_mask, min_side, leads)
    return next(iter_embeddings(adjacency, pattern, universe_mask, side_mask, min_side, leads), None)


def iter_copies(
    adjacency: Sequence[int], pattern: Graph, universe_mask: int, leads: int = -1
) -> Iterator[tuple[int, ...]]:
    """One embedding per copy vertex set, the first found, in scan order.

    ``leads`` is a promise as in :func:`first_copy`: the scan skips every
    copy whose first-position vertex lies outside it.
    """
    if _is_triangle(pattern):
        yield from iter_triangles(adjacency, universe_mask, leads)
        return
    seen: set[int] = set()
    for vm in iter_embeddings(adjacency, pattern, universe_mask, leads=leads):
        m = mask_of(vm)
        if m not in seen:
            seen.add(m)
            yield vm


def _is_triangle(pattern: Graph) -> bool:
    return pattern.adjacency == (0b110, 0b101, 0b011)


def copy_leads(adjacency: Sequence[int], pattern: Graph) -> int:
    """The vertices in the first scan position of some copy in the whole colour class.

    A vertex outside this mask leads no copy inside any universe, so the mask
    is a valid ``leads`` promise for every later search of this class.  For K3
    it holds the least vertices of triangles; other patterns take one search
    per vertex.
    """
    leads = 0
    if _is_triangle(pattern):
        for a, row in enumerate(adjacency):
            # a is a triangle's least vertex iff some edge joins two neighbours above a.
            higher = row & ~((1 << (a + 1)) - 1)
            rest = higher
            while rest:
                low = rest & -rest
                if higher & adjacency[low.bit_length() - 1]:
                    leads |= 1 << a
                    break
                rest ^= low
        return leads
    everything = (1 << len(adjacency)) - 1
    for v in range(len(adjacency)):
        if first_copy(adjacency, pattern, everything, leads=1 << v) is not None:
            leads |= 1 << v
    return leads


# ---------------------------------------------------------------------------
# Triangle fast path.  Cluster extraction and richness sweeps probe triangles
# millions of times, so K3 avoids the generic machinery.  Triangles come out
# as ascending tuples in lexicographic order, which is also the generic
# matcher's order for K3; equivalence is property-tested.
# ---------------------------------------------------------------------------

def iter_triangles(
    adjacency: Sequence[int], universe_mask: int, leads: int = -1
) -> Iterator[tuple[int, int, int]]:
    """All triangles in ``adjacency`` within the universe, ascending, each once.

    ``leads`` is a promise as in :func:`first_copy` on the least vertex.
    """
    for a in iter_bits(universe_mask & leads):
        # Only scan pairs above a, so each triangle is seen once, ordered.
        higher = adjacency[a] & universe_mask & ~((1 << (a + 1)) - 1)
        for b in iter_bits(higher):
            for c in iter_bits(higher & adjacency[b] & ~((1 << (b + 1)) - 1)):
                yield (a, b, c)


def find_triangle(
    adjacency: Sequence[int],
    universe_mask: int,
    side_mask: int = 0,
    min_side: int = 0,
    leads: int = -1,
) -> tuple[int, int, int] | None:
    """Lexicographically first triangle meeting the side set in >= ``min_side`` vertices.

    Unsided, the least vertex runs over ``leads``, a promise as in
    :func:`first_copy`.  Every triangle meeting the side set passes through a
    side vertex ``s``, so the sided search seeds from side vertices only and
    keeps the least first triangle per ``s``; it does not need ``leads``.
    """
    if min_side <= 0:
        for a in iter_bits(universe_mask & leads):
            higher = adjacency[a] & universe_mask & ~((1 << (a + 1)) - 1)
            rest = higher
            while rest:
                low = rest & -rest
                b = low.bit_length() - 1
                # The least b with a closing vertex has none below it: such a c
                # lies in higher with b in its row, so c would be an earlier b.
                closing = higher & adjacency[b]
                if closing:
                    return (a, b, (closing & -closing).bit_length() - 1)
                rest ^= low
        return None
    best = None
    for s in iter_bits(side_mask & universe_mask):
        ns = adjacency[s] & universe_mask
        # The least neighbour v closing a triangle above v gives s's first one.
        for v in iter_bits(ns):
            if best is not None and v > best[0]:
                break  # best[0] lies below s too, so nothing here can beat it
            need = min_side - 1 - ((side_mask >> v) & 1)  # side hits owed by the third
            closing = ns & adjacency[v] & ~((1 << (v + 1)) - 1)
            if need == 1:
                closing &= side_mask
            if closing and need <= 1:
                tri = tuple(sorted((s, v, (closing & -closing).bit_length() - 1)))
                if best is None or tri < best:
                    best = tri
                break
    return best

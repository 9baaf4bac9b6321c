"""Monochromatic copy search behind one mask-only entry point, :func:`first_copy`.

Searches take one colour class's per-vertex adjacency bitmasks and a universe
bitmask, clipped to the host's vertices.  The generic matcher backtracks over
a fixed pattern vertex order (connected expansion, highest degree first),
trying host candidates in ascending order, so the first copy is the
lexicographically first embedding.  Triangles needing at most one side
vertex dispatch to a bitset search (Chiba-Nishizeki style) returning the same
copy; with a side requirement it seeds only from side vertices.

Every search takes a ``leads`` mask of the vertices allowed in the first scan
position.  :func:`copy_leads` finds, once per colour class, the vertices that
lead some copy at all; no copy inside any subset leads from elsewhere.  Greedy
packings on a shrinking free set also cut the mask below the lead of the last
copy taken, so each scan resumes where the previous copy began.

:func:`iter_copies` lists one embedding per copy vertex set.  Counting copies
as subgraphs is left to the brute-force oracles in :mod:`monotile.oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .graphs import Colour, ColouredGraph, Graph, iter_bits, mask_of
from .patterns import PatternStats


@dataclass(frozen=True)
class EmbeddedCopy:
    """An embedded copy of the pattern: pattern vertex ``i`` sits at ``vertex_map[i]``.

    ``colour`` is the single colour of all mapped edges.
    """

    vertex_map: tuple[int, ...]
    colour: Colour

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self.vertex_map)

    @property
    def vertex_mask(self) -> int:
        return mask_of(self.vertex_map)


@lru_cache(maxsize=256)
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


def lead_vertex(pattern: Graph) -> int:
    """The pattern vertex an unpinned scan places first; ``leads`` masks hold its image."""
    return _expansion_order(pattern)[0][0]


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
    The universe is clipped to the host.
    """
    k = pattern.n
    universe_mask &= (1 << len(adjacency)) - 1
    order, parents = _expansion_order(pattern, tuple(p for p, _ in pin) if pin else ())
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


def find_mono_copy(
    G: ColouredGraph,
    H: PatternStats,
    allowed_vertices: Iterable[int] | int | None = None,
    colour_filter: Colour | None = None,
) -> EmbeddedCopy | None:
    """First monochromatic copy of ``H`` inside ``G[allowed_vertices]``, or ``None``.

    With no colour filter, red is searched before blue.  Vertices outside the
    host are ignored, as in :func:`first_copy`.
    """
    if H.ell == 0:
        raise ValueError("monochromatic copy search needs a pattern with at least one edge")
    universe = -1 if allowed_vertices is None else allowed_vertices
    if not isinstance(universe, int):
        universe = mask_of(universe)
    colours = (colour_filter,) if colour_filter else (Colour.RED, Colour.BLUE)
    for colour in colours:
        vm = first_copy(G.adjacency_for(colour), H.pattern, universe)
        if vm is not None:
            return EmbeddedCopy(vm, colour)
    return None


def first_copy(
    adjacency: Sequence[int],
    pattern: Graph,
    universe_mask: int,
    side_mask: int = 0,
    min_side: int = 0,
    leads: int = -1,
) -> tuple[int, ...] | None:
    """The first embedding :func:`iter_embeddings` yields, or ``None``; triangles at
    ``min_side <= 1`` take the bit-loop fast path, :func:`find_triangle`.

    Universe bits outside the host are ignored: both searches clip the
    universe to ``range(len(adjacency))``.  ``leads`` is a promise: no copy in
    the universe has its first-position vertex (for K3, its least vertex)
    outside it, so the scan skips those vertices.  A resume cursor at ``v`` is
    ``leads & ~((1 << v) - 1)``.
    """
    if pattern.adjacency == _TRIANGLE and min_side <= 1:
        return find_triangle(adjacency, universe_mask, side_mask, min_side, leads)
    return next(iter_embeddings(adjacency, pattern, universe_mask, side_mask, min_side, leads), None)


def iter_copies(
    adjacency: Sequence[int], pattern: Graph, universe_mask: int, leads: int = -1
) -> Iterator[tuple[int, ...]]:
    """One embedding per copy vertex set, the first found, in scan order.

    The universe is clipped to the host, and ``leads`` is a promise, both as
    in :func:`first_copy`: the scan skips every copy whose first-position
    vertex lies outside it.
    """
    if pattern.adjacency == _TRIANGLE:
        yield from iter_triangles(adjacency, universe_mask, leads)
        return
    seen: set[int] = set()
    for vm in iter_embeddings(adjacency, pattern, universe_mask, leads=leads):
        m = mask_of(vm)
        if m not in seen:
            seen.add(m)
            yield vm


_TRIANGLE = Graph.complete(3).adjacency


def copy_leads(adjacency: Sequence[int], pattern: Graph) -> int:
    """The vertices in the first scan position of some copy in the whole colour class.

    A vertex outside this mask leads no copy inside any universe, so the mask
    is a valid ``leads`` promise for every later search of this class.  For K3
    it holds the least vertices of triangles; other patterns take one search
    per vertex.
    """
    leads = 0
    if pattern.adjacency == _TRIANGLE:
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
# millions of times, so K3 avoids the generic machinery: plain ``x & -x`` bit
# loops, no generator and no sort per call.  Triangles come out as ascending
# tuples in lexicographic order, which is also the generic matcher's order for
# K3; equivalence is property-tested.
# ---------------------------------------------------------------------------

def iter_triangles(
    adjacency: Sequence[int], universe_mask: int, leads: int = -1
) -> Iterator[tuple[int, int, int]]:
    """All triangles in ``adjacency`` within the universe, ascending, each once.

    The universe is clipped to the host.  ``leads`` is a promise as in
    :func:`first_copy` on the least vertex.
    """
    universe_mask &= (1 << len(adjacency)) - 1
    firsts = universe_mask & leads
    while firsts:
        low_a = firsts & -firsts
        firsts ^= low_a
        a = low_a.bit_length() - 1
        # Only scan pairs above a, so each triangle is seen once, ordered.
        higher = adjacency[a] & universe_mask & -(low_a << 1)
        seconds = higher
        while seconds:
            low_b = seconds & -seconds
            seconds ^= low_b
            b = low_b.bit_length() - 1
            thirds = seconds & adjacency[b]  # seconds now holds the vertices of higher above b
            while thirds:
                low_c = thirds & -thirds
                thirds ^= low_c
                yield (a, b, low_c.bit_length() - 1)


def find_triangle(
    adjacency: Sequence[int],
    universe_mask: int,
    side_mask: int = 0,
    min_side: int = 0,
    leads: int = -1,
) -> tuple[int, int, int] | None:
    """Lexicographically first triangle, meeting the side set when ``min_side`` is 1.

    ``min_side`` is 0 or 1: :func:`first_copy` sends larger ones to the
    generic matcher.  The universe is clipped to the host, and every scan is
    a bit loop over a mask.  Unsided, it is the first triangle of
    :func:`iter_triangles`, whose least vertex runs over ``leads``, a promise
    as in :func:`first_copy`.
    Every triangle meeting the side set passes through a side vertex ``s``,
    so the sided search seeds from side vertices only and keeps the least
    first triangle per ``s``; two comparisons order its three vertices.
    There ``leads`` cuts the second vertex ``v``, which lies below the third,
    of a seed outside ``leads``: such a seed leads no triangle, so ``v`` does
    and lies below ``s``.  (Cutting a lead seed's non-lead neighbours below it
    too costs more than it saves.)
    """
    if min_side <= 0:
        return next(iter_triangles(adjacency, universe_mask, leads), None)
    universe_mask &= (1 << len(adjacency)) - 1
    best = None
    below_best = -1  # second vertices that can still beat best: at most its least vertex
    seeds = side_mask & universe_mask
    while seeds:
        low_s = seeds & -seeds
        seeds ^= low_s
        s = low_s.bit_length() - 1
        ns = adjacency[s] & universe_mask
        seconds = ns & below_best
        if not leads & low_s:
            seconds &= leads & (low_s - 1)
        # The least neighbour v closing a triangle above v gives s's first one.
        while seconds:
            low = seconds & -seconds
            seconds ^= low
            v = low.bit_length() - 1
            closing = ns & adjacency[v] & -(low << 1)
            if closing:
                c = (closing & -closing).bit_length() - 1
                tri = (s, v, c) if s < v else (v, s, c) if s < c else (v, c, s)
                if best is None or tri < best:
                    best = tri
                    below_best = (2 << tri[0]) - 1
                break
    return best

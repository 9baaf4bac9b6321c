"""Simple undirected graphs and total red/blue edge colourings.

Vertices are the integers ``0 .. n-1``.  The state of a :class:`Graph` is one
neighbour bitmask per vertex, and that of a :class:`ColouredGraph` is its
graph plus red and blue masks, because almost everything downstream (copy
search, cluster building) is set-intersection heavy.  Python integers serve
as the bitmasks, so there is no fixed vertex ceiling; a mask spans the bits up
to its highest neighbour, so memory is O(n^2/8) on dense hosts.  The edge set
(``(u, v)`` tuples with ``u < v``), the lexicographic edge arrays
(``edge_pairs``) and the edge-to-colour map are views built on first use,
for text I/O, the oracles and desk-scale hosts.  The sampler and the text
parser already hold their edges as lexicographic arrays, so they build the
graph with ``Graph.from_pairs``, which keeps those arrays as ``edge_pairs``;
the adversaries build masks through ``Graph.from_adjacency`` and
``ColouredGraph.from_masks``.  Masks are built from pairs by setting bits in
a transient bool matrix, one ``8*ceil(n/8)``-cell row per vertex with an
edge (n^2 bytes on a dense host, the size of the matrix ``pairs_of_masks``
unpacks), packed in one ``np.packbits`` call.  Both classes are immutable.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping

import numpy as np


class Colour(Enum):
    RED = "red"
    BLUE = "blue"
    __hash__ = object.__hash__  # singletons compared by identity; Enum hashes the name in Python

    @property
    def other(self) -> "Colour":
        return Colour.BLUE if self is Colour.RED else Colour.RED

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


Edge = tuple[int, int]
Masks = tuple[int, ...]


def normalize_edge(u: int, v: int) -> Edge:
    """Return the canonical ``(min, max)`` form of an edge."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def masks_from_pairs(n: int, us: np.ndarray, vs: np.ndarray) -> Masks:
    """Neighbour masks of the edges ``(us[i], vs[i])``, set in one bool matrix and packed
    in one call.  The matrix has a row of ``8*ceil(n/8)`` cells only for each vertex
    with an edge, so a sparse host on many vertices does not cost ``n**2`` bytes."""
    present = np.zeros(n, bool)
    present[us] = True
    present[vs] = True
    rows, at = np.flatnonzero(present), np.cumsum(present) - 1
    width = (n + 7) >> 3
    cells = np.zeros(len(rows) * 8 * width, bool)
    cells[at[us] * (8 * width) + vs] = True
    cells[at[vs] * (8 * width) + us] = True
    raw, masks = np.packbits(cells, bitorder="little").tobytes(), [0] * n
    for i, v in enumerate(rows.tolist()):
        masks[v] = int.from_bytes(raw[i * width:(i + 1) * width], "little")
    return tuple(masks)


def _unpacked_bits(masks: Iterable[int], width: int) -> np.ndarray:
    """The masks' low ``8*width`` bits, one 0/1 byte per bit, row after row."""
    raw = b"".join(m.to_bytes(width, "little") for m in masks)
    return np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little")


def pairs_of_masks(masks: Masks) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(us, vs)`` of the pairs ``u < v`` with bit ``v`` set in ``masks[u]``,
    in lexicographic order."""
    rows = [u for u, m in enumerate(masks) if m >> u + 1]
    width = (len(masks) + 7) >> 3
    bits = _unpacked_bits((masks[u] >> u + 1 << u + 1 for u in rows), width)
    at, vs = np.divmod(np.flatnonzero(bits), 8 * width)
    us = np.array(rows, np.intp)[at]
    us.flags.writeable = vs.flags.writeable = False
    return us, vs


def _bits_at_pairs(masks: Masks, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Whether bit ``vs[i]`` is set in ``masks[us[i]]``, for ``us`` in ascending order."""
    new_row = np.diff(us, prepend=-1) != 0
    width = (len(masks) + 7) >> 3
    bits = _unpacked_bits((masks[u] for u in us[new_row].tolist()), width)
    return bits[(np.cumsum(new_row) - 1) * (8 * width) + vs].astype(bool)


@dataclass(frozen=True, init=False)
class Graph:
    """An undirected simple graph on vertices ``0 .. n-1``, stored as neighbour masks."""

    n: int
    adjacency: Masks

    def __init__(self, n: int, edges: frozenset[Edge] = frozenset()) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < v < n):
                raise ValueError(f"edge ({u}, {v}) is not a sorted pair inside range(n)")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.__dict__.update(n=n, adjacency=tuple(masks), edges=edges)  # edges: the cached view

    @classmethod
    def from_adjacency(cls, n: int, adjacency: Masks) -> "Graph":
        """The graph whose state is ``adjacency``: a symmetric, loop-free tuple of ``n`` masks."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, adjacency=adjacency)
        return g

    @classmethod
    def from_pairs(cls, n: int, us: np.ndarray, vs: np.ndarray) -> "Graph":
        """The graph with the edges ``(us[i], vs[i])``: distinct pairs ``u < v`` inside
        ``range(n)`` in lexicographic order.  The arrays, made read-only, become the
        cached ``edge_pairs``."""
        g = cls.from_adjacency(n, masks_from_pairs(n, us, vs))
        us.flags.writeable = vs.flags.writeable = False
        g.__dict__["edge_pairs"] = (us, vs)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return cls(n, frozenset(normalize_edge(u, v) for u, v in edges))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls.from_adjacency(n, tuple(((1 << n) - 1) ^ (1 << v) for v in range(n)))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, frozenset())

    @classmethod
    def path(cls, n: int) -> "Graph":
        """Path on ``n`` vertices (``n - 1`` edges)."""
        return cls(n, frozenset((i, i + 1) for i in range(n - 1)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
        return cls.from_edges(n, edges)

    @classmethod
    def matching(cls, t: int) -> "Graph":
        """``t`` pairwise disjoint edges on ``2t`` vertices."""
        return cls(2 * t, frozenset((2 * i, 2 * i + 1) for i in range(t)))

    @cached_property
    def edge_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The edges as read-only ``(us, vs)`` arrays in lexicographic order."""
        return pairs_of_masks(self.adjacency)

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(zip(*(a.tolist() for a in self.edge_pairs)))

    @property
    def num_edges(self) -> int:
        return sum(a.bit_count() for a in self.adjacency) // 2

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def content_hash(self) -> str:
        """Stable hash of the graph's canonical text form."""
        return hashlib.sha256(write_graph_text(self).encode()).hexdigest()[:16]

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass field-tuple hash, computed once: memo tables key on graphs."""
        return hash((self.n, self.adjacency))


@dataclass(frozen=True, init=False)
class ColouredGraph:
    """A graph together with a total red/blue colouring of its edges, stored as masks."""

    graph: Graph
    red_adjacency: Masks
    blue_adjacency: Masks

    def __init__(self, graph: Graph, colour: Mapping[Edge, Colour]) -> None:
        if colour.keys() != graph.edges:
            raise ValueError("colour map domain must equal the edge set exactly")
        red = Graph(graph.n, frozenset(e for e, c in colour.items() if c is Colour.RED))
        # The validated map doubles as the cached colour view.
        self.__dict__.update(vars(self.from_masks(graph, red.adjacency)), colour=colour)

    @classmethod
    def from_masks(cls, graph: Graph, red_adjacency: Masks) -> "ColouredGraph":
        """``graph`` with the edges in ``red_adjacency`` (a subgraph's masks) red, others blue."""
        cg = object.__new__(cls)
        blue = tuple(a ^ r for a, r in zip(graph.adjacency, red_adjacency))
        cg.__dict__.update(graph=graph, red_adjacency=red_adjacency, blue_adjacency=blue)
        return cg

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def colour(self) -> Mapping[Edge, Colour]:
        """Edge-to-colour view, in lexicographic edge order."""
        red = self.red_adjacency
        return {
            (u, v): Colour.RED if red[u] >> v & 1 else Colour.BLUE
            for u, v in zip(*(a.tolist() for a in self.graph.edge_pairs))
        }

    def colour_of(self, u: int, v: int) -> Colour:
        return self.colour[normalize_edge(u, v)]

    def edges_of_colour(self, colour: Colour) -> frozenset[Edge]:
        return self._edges_by_colour[colour]

    @cached_property
    def _edges_by_colour(self) -> dict[Colour, frozenset[Edge]]:
        return {c: frozenset(e for e, ec in self.colour.items() if ec is c) for c in Colour}

    def adjacency_for(self, colour: Colour) -> Masks:
        return self.red_adjacency if colour is Colour.RED else self.blue_adjacency

    def swap_colours(self) -> "ColouredGraph":
        return ColouredGraph.from_masks(self.graph, self.blue_adjacency)

    def content_hash(self) -> str:
        return hashlib.sha256(write_graph_text(self).encode()).hexdigest()[:16]

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass field-tuple hash, computed once: memo tables key on colourings."""
        return hash((self.graph, self.red_adjacency, self.blue_adjacency))


def colour_all(graph: Graph, colour: Colour) -> ColouredGraph:
    red = graph.adjacency if colour is Colour.RED else (0,) * graph.n
    return ColouredGraph.from_masks(graph, red)


# ---------------------------------------------------------------------------
# Text format: first line "n m", then m lines "u v" (plain) or "u v c" with
# c in {r, b} (coloured).  Output lines are sorted as strings, which is
# (str(u), str(v)) order because a space sorts before every digit.
# ---------------------------------------------------------------------------

# One whole-text grammar per line width: the header `n m`, then lines of `width` tokens
# with spaces, tabs, blank lines and \r\n endings allowed.  Possessive quantifiers keep
# the match from backtracking.
_GRAPH_TEXT = {
    width: re.compile(
        r"\s*+\d++[ \t]++\d++[ \t]*+\r?"
        r"(?:\n\s*+(?:\d++[ \t]++\d++%s[ \t]*+\r?(?:\n\s*+|\Z))*+|\Z)" % tail,
        re.ASCII,
    )
    for width, tail in ((2, ""), (3, r"[ \t]++[rb]"))
}


def write_graph_text(g: Graph | ColouredGraph) -> str:
    n = g.n
    if isinstance(g, ColouredGraph):
        us, vs = g.graph.edge_pairs
        tails = [f"{v} {c}\n" for c in "br" for v in range(n)]  # blue tails, then red
        picks = vs + n * _bits_at_pairs(g.red_adjacency, us, vs)
    else:
        us, vs = g.edge_pairs
        tails, picks = [f"{v}\n" for v in range(n)], vs
    rank = np.empty(n, np.intp)
    rank[sorted(range(n), key=str)] = np.arange(n)
    # The keys are unique, so any sort gives this order; the stable one runs
    # fastest on these keys, which the sorted edge pairs nearly order already.
    order = np.argsort(rank[us] * n + rank[vs], kind="stable")
    parts = np.empty(2 * len(order), dtype=object)  # each line's "u " then its "v ...\n"
    parts[0::2] = np.array([f"{u} " for u in range(n)], dtype=object)[us[order]]
    parts[1::2] = np.array(tails, dtype=object)[picks[order]]
    return f"{n} {len(order)}\n" + "".join(parts.tolist())


def parse_graph_text(text: str) -> Graph | ColouredGraph:
    width = next((w for w, grammar in _GRAPH_TEXT.items() if grammar.fullmatch(text)), None)
    if width is None:
        raise ValueError("graph text is not a line 'n m' then lines all 'u v' or all 'u v c'")
    head, _, body = text.lstrip().partition("\n")
    n, m = map(int, head.split())
    cells = np.fromstring(body.strip().replace("r", "1").replace("b", "0"), dtype=np.int64, sep=" ")
    if len(cells) != width * m:
        raise ValueError(f"header promises {m} edges, found {len(cells) // width} lines")
    cells = cells.reshape(m, width)
    us, vs = np.minimum(cells[:, 0], cells[:, 1]), np.maximum(cells[:, 0], cells[:, 1])
    if (us == vs).any():
        raise ValueError("self-loop in graph text")
    if (vs >= n).any():
        raise ValueError("edge endpoint outside range(n)")
    keys = us * n + vs
    if width == 3:  # the red flag rides in the low bit, so one sort orders both
        keys = keys << 1 | cells[:, 2]
    keys.sort()
    pairs = keys >> (width - 2)
    if (pairs[1:] == pairs[:-1]).any():
        raise ValueError("duplicate edge in graph text")
    graph = Graph.from_pairs(n, *np.divmod(pairs, n))
    if width == 2:
        return graph
    red = (keys & 1).astype(bool)
    us, vs = graph.edge_pairs
    return ColouredGraph.from_masks(graph, masks_from_pairs(n, us[red], vs[red]))


def load_graph_file(path) -> Graph | ColouredGraph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


# ---------------------------------------------------------------------------
# Named pattern graphs: k<t> complete, p<t> path on t vertices, c<t> cycle,
# matching-<t> for t disjoint edges.
# ---------------------------------------------------------------------------

_PATTERN_RE = re.compile(r"^(k|p|c)(\d+)$|^matching-(\d+)$")


def pattern_by_name(name: str) -> Graph:
    m = _PATTERN_RE.match(name.strip().lower())
    if not m:
        raise ValueError(
            f"unknown pattern name {name!r}; expected k<t>, p<t>, c<t> or matching-<t>"
        )
    if m.group(3) is not None:
        return Graph.matching(int(m.group(3)))
    kind, size = m.group(1), int(m.group(2))
    if kind == "k":
        return Graph.complete(size)
    if kind == "p":
        return Graph.path(size)
    return Graph.cycle(size)


@lru_cache(maxsize=1024, typed=True)
def exact_ratio(value: float | int | Fraction) -> Fraction:
    """Exact rational view of a numeric parameter.

    Floats convert through their shortest round-trip decimal, so 0.1 means
    1/10: thresholds like ``floor(n/5 - 0.1*n)`` land where the decimal
    constant says, not where its binary approximation does.  Results are
    memoised per value and type: ``Fraction(0.1)`` equals ``0.1`` and hashes
    the same, but is a different ratio.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(Decimal(repr(float(value))))

"""Simple undirected graphs and total red/blue edge colourings.

Vertices are the integers ``0 .. n-1``.  Edges are unordered pairs stored as
``(u, v)`` tuples with ``u < v``.  Both :class:`Graph` and
:class:`ColouredGraph` are immutable after construction; adjacency bitmasks
are cached lazily because almost everything downstream (copy search, cluster
building) is set-intersection heavy.  Python integers serve as the bitmask
representation, so there is no fixed vertex ceiling.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping


class Colour(Enum):
    RED = "red"
    BLUE = "blue"
    __hash__ = object.__hash__  # singletons compared by identity; Enum hashes the name in Python

    @property
    def char(self) -> str:
        return "r" if self is Colour.RED else "b"

    @property
    def other(self) -> "Colour":
        return Colour.BLUE if self is Colour.RED else Colour.RED

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


COLOUR_BY_CHAR = {"r": Colour.RED, "b": Colour.BLUE}

Edge = tuple[int, int]


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


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph on vertices ``0 .. n-1``."""

    n: int
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) is not a sorted pair inside range(n)")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return cls(n, frozenset(normalize_edge(u, v) for u, v in edges))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))

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

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self.edges

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Per-vertex neighbour bitmasks."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def canonical_text(self) -> str:
        return write_graph_text(self)

    def content_hash(self) -> str:
        """Stable hash of the graph's canonical text form."""
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ColouredGraph:
    """A graph together with a total red/blue colouring of its edges."""

    graph: Graph
    colour: Mapping[Edge, Colour]

    def __post_init__(self) -> None:
        if set(self.colour) != self.graph.edges:
            raise ValueError("colour map domain must equal the edge set exactly")

    @property
    def n(self) -> int:
        return self.graph.n

    def colour_of(self, u: int, v: int) -> Colour:
        return self.colour[normalize_edge(u, v)]

    def edges_of_colour(self, colour: Colour) -> frozenset[Edge]:
        return self._edges_by_colour[colour]

    @cached_property
    def _edges_by_colour(self) -> dict[Colour, frozenset[Edge]]:
        return {c: frozenset(e for e, ec in self.colour.items() if ec is c) for c in Colour}

    @cached_property
    def red_adjacency(self) -> tuple[int, ...]:
        return self._colour_adjacency(Colour.RED)

    @cached_property
    def blue_adjacency(self) -> tuple[int, ...]:
        return self._colour_adjacency(Colour.BLUE)

    def adjacency_for(self, colour: Colour) -> tuple[int, ...]:
        return self.red_adjacency if colour is Colour.RED else self.blue_adjacency

    def _colour_adjacency(self, colour: Colour) -> tuple[int, ...]:
        masks = [0] * self.graph.n
        for (u, v), c in self.colour.items():
            if c is colour:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
        return tuple(masks)

    def swap_colours(self) -> "ColouredGraph":
        return ColouredGraph(self.graph, {e: c.other for e, c in self.colour.items()})

    def canonical_text(self) -> str:
        return write_graph_text(self)

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


def colour_all(graph: Graph, colour: Colour) -> ColouredGraph:
    return ColouredGraph(graph, {e: colour for e in graph.edges})


# ---------------------------------------------------------------------------
# Text format: first line "n m", then m lines "u v" (plain) or "u v c" with
# c in {r, b} (coloured).  Output lines are sorted lexicographically as
# strings so serialization is canonical.
# ---------------------------------------------------------------------------

def write_graph_text(g: Graph | ColouredGraph) -> str:
    if isinstance(g, ColouredGraph):
        lines = [f"{u} {v} {c.char}" for (u, v), c in g.colour.items()]
        header = f"{g.graph.n} {len(lines)}"
    else:
        lines = [f"{u} {v}" for u, v in g.edges]
        header = f"{g.n} {len(lines)}"
    return "\n".join([header] + sorted(lines)) + "\n"


def parse_graph_text(text: str) -> Graph | ColouredGraph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty graph text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header must be 'n m'")
    n, m = int(head[0]), int(head[1])
    body = lines[1:]
    if len(body) != m:
        raise ValueError(f"header promises {m} edges, found {len(body)} lines")
    edges: list[Edge] = []
    colours: list[Colour | None] = []
    for ln in body:
        parts = ln.split()
        if len(parts) == 2:
            colours.append(None)
        elif len(parts) == 3:
            if parts[2] not in COLOUR_BY_CHAR:
                raise ValueError(f"unknown colour char {parts[2]!r}")
            colours.append(COLOUR_BY_CHAR[parts[2]])
        else:
            raise ValueError(f"bad edge line: {ln!r}")
        edges.append(normalize_edge(int(parts[0]), int(parts[1])))
    if len(set(edges)) != len(edges):
        raise ValueError("duplicate edge in graph text")
    graph = Graph(n, frozenset(edges))
    if all(c is None for c in colours):
        return graph
    if any(c is None for c in colours):
        raise ValueError("mixed coloured and uncoloured edge lines")
    return ColouredGraph(graph, dict(zip(edges, colours)))


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


def exact_ratio(value: float | int | Fraction) -> Fraction:
    """Exact rational view of a numeric parameter.

    Floats convert through their shortest round-trip decimal, so 0.1 means
    1/10: thresholds like ``floor(n/5 - 0.1*n)`` land where the decimal
    constant says, not where its binary approximation does.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(Decimal(repr(float(value))))

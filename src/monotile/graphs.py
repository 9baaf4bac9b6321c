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
a transient bool matrix of ``64*ceil(n/64)``-cell rows, packed by
``_packed_rows`` (which the planted instances share) in blocks of at most
``_MASK_CELLS`` cells: one row per vertex when all ``n`` rows fit in one
block (any ``n <= 2048``), else one row per vertex with an edge.  Both classes are
immutable.  ``_cliques``, the one ordered clique count, serves the clique
oracle and the copy-avoider.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

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


def _cliques(adj: Sequence[int], cand: int, t: int) -> int:
    """Copies of ``K_t`` inside ``cand``, each grown from its least vertex over later ones;
    ``adj`` is read once per clique on fewer than ``t`` vertices that it grows."""
    if t == 1:
        return cand.bit_count()
    total = 0
    while cand:
        low = cand & -cand
        cand ^= low
        total += _cliques(adj, cand & adj[low.bit_length() - 1], t - 1)
    return total


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def disjoint_side_masks(n: int, X: Iterable[int], Y: Iterable[int]) -> tuple[int, int]:
    """The masks of two disjoint vertex sets of a host on ``n`` vertices.

    Raises ``ValueError`` when a vertex lies outside ``range(n)`` or the sets meet.
    """
    try:
        x_mask, y_mask = mask_of(X), mask_of(Y)
    except ValueError:  # a negative vertex: mask_of shifts by it
        x_mask = y_mask = -1
    if (x_mask | y_mask) >> n:
        raise ValueError(f"X and Y must be vertex sets of the host, inside range({n})")
    if x_mask & y_mask:
        raise ValueError("X and Y must be disjoint")
    return x_mask, y_mask


_MASK_CELLS = 1 << 22  # bool cells per block of the matrix masks_from_pairs packs


def _packed_rows(bits: np.ndarray) -> list[int]:
    """Each row of a bool matrix as a mask, column ``j`` at bit ``j``: the rows padded to
    whole 64-bit words, at least one (unless already C-ordered and that wide), and packed
    in one call.  Rows of one word are converted in one ``tolist``, wider rows from one
    ``tolist`` of fixed-width byte strings, whose dropped trailing NULs are the mask's
    high zero bytes."""
    rows, cols = bits.shape
    words = max(-(-cols // 64), 1)
    if cols != 64 * words or not bits.flags.c_contiguous:
        padded = np.zeros((rows, 64 * words), bool)
        padded[:, :cols] = bits
        bits = padded
    packed = np.packbits(bits, axis=1, bitorder="little")
    if words == 1:
        return packed.view("<u8").ravel().tolist()
    return [int.from_bytes(row, "little") for row in packed.view(f"S{8 * words}").ravel().tolist()]


def masks_from_pairs(n: int, us: np.ndarray, vs: np.ndarray) -> Masks:
    """Neighbour masks of the edges ``(us[i], vs[i])``, set in a bool matrix and packed by
    ``_packed_rows``.  The matrix has rows of ``64*ceil(n/64)`` cells, built in blocks of
    at most ``_MASK_CELLS`` cells so its transient memory stays bounded; the masks
    themselves take up to ``n/8`` bytes each.  When all ``n`` rows fit in one block, the
    rows are indexed by vertex, an isolated vertex's row left zero; otherwise only the
    vertices with an edge get a row, found by marking the endpoints."""
    width = 64 * ((n + 63) >> 6)
    step = max(_MASK_CELLS // max(width, 64), 1)  # rows per block
    rows, heads, tails = None, us, vs
    if n > step:
        present = np.zeros(n, bool)
        present[us] = True
        present[vs] = True
        if not present.all():
            rows, at = np.flatnonzero(present), np.cumsum(present) - 1
            heads, tails = at[us], at[vs]
    count = n if rows is None else len(rows)
    if count > step:  # several blocks: sorted, each block's bits are one run
        bits = np.sort(np.concatenate((heads * width + vs, tails * width + us)))
        cuts = np.searchsorted(bits, np.arange(0, count + step, step) * width).tolist()
    packed: list[int] = []
    for block, lo in enumerate(range(0, count, step)):
        cells = np.zeros((min(step, count - lo), width), bool)
        flat = cells.reshape(-1)
        if count > step:
            flat[bits[cuts[block]:cuts[block + 1]] - lo * width] = True
        else:
            flat[heads * width + vs] = True
            flat[tails * width + us] = True
        packed += _packed_rows(cells)
    if rows is None:
        return tuple(packed)
    masks = [0] * n
    for v, m in zip(rows.tolist(), packed):
        masks[v] = m
    return tuple(masks)


def pairs_of_masks(masks: Masks) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(us, vs)`` of the pairs ``u < v`` with bit ``v`` set in ``masks[u]``,
    in lexicographic order."""
    rows = [u for u, m in enumerate(masks) if m >> u + 1]
    width = (len(masks) + 7) >> 3
    raw = b"".join((masks[u] >> u + 1 << u + 1).to_bytes(width, "little") for u in rows)
    bits = np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little")  # one 0/1 byte per bit
    at, vs = np.divmod(np.flatnonzero(bits), 8 * width)
    us = np.array(rows, np.intp)[at]
    us.flags.writeable = vs.flags.writeable = False
    return us, vs


def _bits_at_pairs(masks: Masks, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Whether bit ``vs[i]`` is set in ``masks[us[i]]``: each pair's byte gathered from
    the bytes of the rows that ``us`` names, then shifted."""
    named = np.zeros(len(masks), bool)
    named[us] = True
    width = (len(masks) + 7) >> 3
    raw = b"".join([masks[u].to_bytes(width, "little") for u in np.flatnonzero(named).tolist()])
    start = (np.cumsum(named) - 1) * width  # of each named row's bytes in raw
    byte = np.frombuffer(raw, np.uint8)[start[us] + (vs >> 3)]
    return (byte >> (vs & 7).astype(np.uint8) & 1).astype(bool)


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
        full = (1 << n) - 1
        return cls.from_adjacency(n, tuple([full ^ (1 << v) for v in range(n)]))

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
        blue = tuple([a ^ r for a, r in zip(graph.adjacency, red_adjacency)])
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

    def adjacency_for(self, colour: Colour) -> Masks:
        return self.red_adjacency if colour is Colour.RED else self.blue_adjacency

    def swap_colours(self) -> "ColouredGraph":
        return ColouredGraph.from_masks(self.graph, self.blue_adjacency)

    content_hash = Graph.content_hash


def _as_colouring(g: Graph | ColouredGraph) -> ColouredGraph:
    """``g`` if coloured, or an edgeless ``Graph``, which is what an edgeless colouring's
    text parses to, as its one colouring; ``ValueError`` for a plain graph with edges."""
    if isinstance(g, ColouredGraph):
        return g
    if any(g.adjacency):
        raise ValueError("expected a coloured graph (edge lines 'u v c')")
    return ColouredGraph.from_masks(g, g.adjacency)


def colour_all(graph: Graph, colour: Colour) -> ColouredGraph:
    red = graph.adjacency if colour is Colour.RED else (0,) * graph.n
    return ColouredGraph.from_masks(graph, red)


# ---------------------------------------------------------------------------
# Text format: a header line "n m", then m edge lines "u v" (plain) or "u v c"
# with c in {r, b} (coloured).  The writer ends every line with "\n" and sorts
# the edge lines as strings, which is (str(u), str(v)) order because a space
# sorts before every digit.
#
# The parser reads ASCII text only.  A token is a run of the digits 0-9 and
# the letters r and b; a line is the bytes up to a "\n" or the end of the
# text.  A blank line holds only whitespace: spaces, tabs, "\r", "\f" and
# "\v".  Every other line holds tokens separated by spaces and tabs.  "\r",
# "\f" and "\v" may stand before its first token, and one "\r" may end it,
# after any spaces and tabs.  The first non-blank line is the header: two
# digit tokens, n and m.  Each later non-blank line holds two digit tokens,
# u and v, and, in a text with any r or b at all, a one-letter third token r
# or b.  Digit tokens may be zero-padded; one past the int64 range reads as
# the int64 maximum.  An n for which 2*n*n passes the int64 range is
# rejected before anything is allocated.
# ---------------------------------------------------------------------------

_TEXT_GRAMMAR = "graph text is not a line 'n m' then lines all 'u v' or all 'u v c'"
_INT64_MAX = (1 << 63) - 1
_BLOCK = 1 << 16  # body bytes per tokenizer pass (cut after a newline) and per writer block
_HEADER = re.compile(rb"(\d+)[ \t]+(\d+)[ \t]*\r?")


def _byte_classes() -> bytes:
    r"""A ``bytes.translate`` table onto one byte per class: "0" digit, "r" r or b,
    " " space or tab, "\n", "\r", "\f" for "\f" or "\v", and 0 for every byte the
    grammar never allows.  The token classes are the two at or above "0"."""
    table = bytearray(256)
    for byte, cls in zip(b"0123456789rb \t\n\r\f\v", b"0000000000rr  \n\r\f\f"):
        table[byte] = cls
    return bytes(table)


_CLASSES = _byte_classes()
# A digit token adds byte * _PLACE[j][span] for the byte j places left of its
# last, where span is the token length - 1; past the token the factor is 0.
# _OFFSET[span] takes the "0" bytes back out.  Both cover 18 digits in int64.
_PLACE = np.array([[10**j if j <= s else 0 for s in range(18)] for j in range(18)], np.int64)
_OFFSET = np.array([ord("0") * (10 ** (s + 1) - 1) // 9 for s in range(18)], np.int64)


def _block_keys(
    data: bytes, classes: bytes, start: int, stop: int, width: int, n: int
) -> tuple[np.ndarray, bool, bool]:
    """The edge lines of ``data[start:stop]``, whole lines that open and close with a
    newline, as int64 codes ``u*n + v`` of their sorted pairs (in width 3, doubled
    plus 1 for r), and whether a line is a self-loop and whether one leaves
    ``range(n)``; the codes of such a block mean nothing.  ``classes`` is ``data``
    through ``_CLASSES``.  Raises the grammar ValueError."""
    c = np.frombuffer(classes, np.uint8, stop - start, start)
    d = np.frombuffer(data, np.uint8, stop - start, start)
    token = c >= ord("0")
    # A block past twice _BLOCK holds a line past _BLOCK.  If its tokens outnumber what
    # its lines can hold, the line check below fails anyway: fail before the arrays of
    # several int64 per token.
    if stop - start > 2 * _BLOCK:
        if np.count_nonzero(token[1:] > token[:-1]) > width * (classes.count(b"\n", start, stop) - 1):
            raise ValueError(_TEXT_GRAMMAR)
    edges = (token[1:] != token[:-1]).nonzero()[0]
    first, last = edges[0::2] + 1, edges[1::2]
    # The tokens before each newline step by 0 (a blank line) or by width.
    newlines = (c == ord("\n")).nonzero()[0]
    before = np.searchsorted(first, newlines)
    steps = before[1:] - before[:-1]
    if np.count_nonzero(steps) * width != len(first) or steps.max(initial=0) > width:
        raise ValueError(_TEXT_GRAMMAR)
    if classes.find(b"\f", start, stop) >= 0 or classes.find(b"\r", start, stop) >= 0:
        # "\r", "\f" and "\v" stand only before a line's first token, or "\r" just before its newline
        odd = ((c == ord("\f")) | (c == ord("\r"))).nonzero()[0]
        after_token = np.searchsorted(first, odd) > before[np.searchsorted(newlines, odd) - 1]
        line_end = (c[odd] == ord("\r")) & (c[odd + 1] == ord("\n"))
        if (after_token & ~line_end).any():
            raise ValueError(_TEXT_GRAMMAR)
    span = last - first
    if width == 3:  # each third token is one r or b, and those are all of them
        third = first[2::3]
        if span[2::3].any() or (c[third] != ord("r")).any() or np.count_nonzero(c == ord("r")) != len(third):
            raise ValueError(_TEXT_GRAMMAR)
    top = int(span.max(initial=0))
    capped = np.minimum(span, 17) if top > 17 else span
    values = d[last] - _OFFSET[capped]
    for j in range(1, min(top, 17) + 1):
        values += d[last - j] * _PLACE[j][capped]
    if top > 17:  # past 18 digits: through int, saturating at the int64 maximum
        for i in np.flatnonzero(span > 17).tolist():
            digits = data[start + first[i]:start + last[i] + 1].lstrip(b"0")
            values[i] = _INT64_MAX if len(digits) > 19 else min(int(digits or b"0"), _INT64_MAX)
    cells = values.reshape(-1, width)
    us, vs = np.minimum(cells[:, 0], cells[:, 1]), np.maximum(cells[:, 0], cells[:, 1])
    keys = us * n + vs
    if width == 3:  # the red flag rides in the low bit, so one sort orders both
        keys = keys << 1 | (d[third] == ord("r"))
    return keys, bool((us == vs).any()), bool((vs >= n).any())


def _text_keys(text: str) -> tuple[int, int, int, np.ndarray, str | None]:
    """The header's n and m, the line width, the edge codes of ``_block_keys`` in
    text order, and the message of the first fault the codes cannot show: a
    self-loop, else an endpoint outside ``range(n)``, else None.  Raises the
    grammar ValueError, and the huge-n one before reading the body."""
    try:
        data = text.encode("ascii") + b"\n"  # every line, the last one too, ends in a newline
    except UnicodeEncodeError:
        raise ValueError(_TEXT_GRAMMAR) from None
    classes = data.translate(_CLASSES)
    start = len(data) - len(data.lstrip())
    at = data.find(b"\n", start)  # the header's newline, which opens the body
    header = _HEADER.fullmatch(data, start, at) if at >= 0 else None
    if header is None or b"\0" in classes:
        raise ValueError(_TEXT_GRAMMAR)
    digits = header[1].lstrip(b"0")
    if len(digits) > 10 or 2 * int(digits or b"0") ** 2 > _INT64_MAX:
        raise ValueError("graph text header n is too large: 2*n*n must fit in int64")
    n, width = int(header[1]), 3 if classes.find(b"r", at) >= 0 else 2
    blocks, end = [], len(data) - 1
    while True:
        cut = data.find(b"\n", at + _BLOCK)
        cut = end if cut < 0 else cut
        blocks.append(_block_keys(data, classes, at, cut + 1, width, n))
        if cut == end:
            break
        at = cut
    keys = np.concatenate([k for k, _, _ in blocks])
    fault = (
        "self-loop in graph text" if any(loop for _, loop, _ in blocks)
        else "edge endpoint outside range(n)" if any(out for _, _, out in blocks)
        else None
    )
    return n, int(header[2]), width, keys, fault


def _label_cells(n: int, width: int, suffixes: Sequence[bytes]) -> np.ndarray:
    """One ``(n, width)`` byte table per suffix, whose row ``v`` holds the decimal digits
    of ``v`` then the suffix, NUL-padded.  The digits come from one broadcast over place
    values; each run of labels with one digit count is then shifted left in every table."""
    size = len(str(max(n - 1, 0)))
    digits = ord("0") + np.arange(n)[:, None] // 10 ** np.arange(size - 1, -1, -1) % 10
    longest = max(map(len, suffixes))
    ends = np.array([list(suffix.ljust(longest, b"\0")) for suffix in suffixes], np.uint8)
    tables = np.zeros((len(suffixes), n, width), np.uint8)
    for k in range(1, size + 1):
        run = slice(10 ** (k - 1) if k > 1 else 0, 10**k)
        tables[:, run, :k] = digits[run, size - k:]
        tables[:, run, k:k + longest] = ends[:, None]
    return tables


def write_graph_text(g: Graph | ColouredGraph) -> str:
    """The text of ``g`` in the format above, built as bytes.  Each line is two cells of
    NUL-padded 64-bit words, ``"u "`` and ``"v\\n"`` or ``"v c\\n"``, gathered from per-label
    tables in line order into a buffer of at most ``_BLOCK`` bytes at a time; one
    ``translate`` per block drops the padding."""
    n = g.n
    size = len(str(max(n - 1, 0)))  # digits of the longest label
    width = 8 * -(-(size + 3) // 8)  # bytes of a cell, which holds "v c\n"
    if isinstance(g, ColouredGraph):
        us, vs = g.graph.edge_pairs
        cells = _label_cells(n, width, (b" ", b" b\n", b" r\n"))  # blue tails, then red
        picks = vs + n * _bits_at_pairs(g.red_adjacency, us, vs)
    else:
        us, vs = g.edge_pairs
        cells = _label_cells(n, width, (b" ", b"\n"))
        picks = vs
    # A label's string rank: the space and the NUL padding after its digits sort
    # below every digit, as the end of a string does.
    rank = np.empty(n, np.intp)
    rank[np.lexsort(cells[0, :, size - 1::-1].T)] = np.arange(n)
    # The keys are unique, so any sort gives this order; the stable one runs
    # fastest on these keys, which the sorted edge pairs nearly order already.
    order = np.argsort(rank[us] * n + rank[vs], kind="stable")
    heads, tails = cells[0].view(np.uint64), cells[1:].reshape(-1, width).view(np.uint64)
    words, step = width // 8, _BLOCK // (2 * width)  # step: lines per block
    text = bytearray(f"{n} {len(order)}\n".encode())
    block = bytearray(2 * width * min(len(order), step))
    lines = np.frombuffer(block, np.uint64).reshape(-1, 2 * words)
    for lo in range(0, len(order), step):
        part = order[lo:lo + step]
        lines[:len(part), :words] = heads.take(us[part], axis=0)
        lines[:len(part), words:] = tails.take(picks[part], axis=0)
        lines[len(part):] = 0  # past the last block's lines: padding too
        text += block.translate(None, b"\0")
    return text.decode("ascii")


def parse_graph_text(text: str) -> Graph | ColouredGraph:
    """The graph or coloured graph of a text in the format above.

    One ``bytes.translate`` classes every byte; the body is then tokenized in
    numpy passes over blocks of about ``_BLOCK`` bytes of whole lines.  Raises
    ``ValueError`` on a text outside the grammar, a huge ``n``, a header count
    that does not match, a self-loop, an endpoint outside ``range(n)`` or a
    duplicate edge, checked in that order."""
    n, m, width, keys, fault = _text_keys(text)
    if len(keys) != m:
        raise ValueError(f"header promises {m} edges, found {len(keys)} lines")
    if fault:
        raise ValueError(fault)
    keys.sort()
    pairs = keys >> (width - 2)
    if (pairs[1:] == pairs[:-1]).any():
        raise ValueError("duplicate edge in graph text")
    us = pairs // n
    graph = Graph.from_pairs(n, us, pairs - us * n)
    if width == 2:
        return graph
    red = np.flatnonzero((keys & 1).astype(bool))  # an index, not a bool mask: much faster to gather
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

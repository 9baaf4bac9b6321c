import dataclasses
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monotile import graphs as graphs_module
from monotile.graphs import (
    Colour,
    ColouredGraph,
    Edge,
    Graph,
    colour_all,
    exact_ratio,
    masks_from_pairs,
    normalize_edge,
    pairs_of_masks,
    parse_graph_text,
    pattern_by_name,
    write_graph_text,
)

from .conftest import coloured_graphs, graphs


def _reference_write_graph_text(g: Graph | ColouredGraph) -> str:
    """The per-edge writer the bulk one replaced: f-string lines sorted as strings."""
    if isinstance(g, ColouredGraph):
        lines = [f"{u} {v} {c.value[0]}" for (u, v), c in g.colour.items()]
        header = f"{g.graph.n} {len(lines)}"
    else:
        lines = [f"{u} {v}" for u, v in g.edges]
        header = f"{g.n} {len(lines)}"
    return "\n".join([header] + sorted(lines)) + "\n"


def _reference_parse_graph_text(text: str) -> Graph | ColouredGraph:
    """The line-by-line parser the bulk one replaced."""
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
            if parts[2] not in ("r", "b"):
                raise ValueError(f"unknown colour char {parts[2]!r}")
            colours.append(Colour.RED if parts[2] == "r" else Colour.BLUE)
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


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])


def test_graph_rejects_out_of_range_endpoint():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 3)}))


def test_from_edges_normalizes_and_dedups():
    g = Graph.from_edges(4, [(2, 0), (0, 2), (1, 3)])
    assert g.edges == frozenset({(0, 2), (1, 3)})


def test_normalize_edge():
    assert normalize_edge(5, 2) == (2, 5)
    with pytest.raises(ValueError):
        normalize_edge(1, 1)


def test_constructors():
    assert Graph.complete(5).num_edges == 10
    assert Graph.empty(4).num_edges == 0
    assert Graph.path(4).num_edges == 3
    assert Graph.cycle(5).num_edges == 5
    assert Graph.matching(3).num_edges == 3
    assert Graph.matching(3).n == 6


def test_adjacency_masks():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert g.adjacency[1] == (1 << 0) | (1 << 2)
    assert g.degree(1) == 2
    assert g.degree(3) == 0


def test_coloured_graph_requires_total_colouring():
    g = Graph.complete(3)
    with pytest.raises(ValueError):
        ColouredGraph(g, {(0, 1): Colour.RED})
    overfull = {e: Colour.RED for e in g.edges}
    overfull[(5, 6)] = Colour.BLUE
    with pytest.raises(ValueError):
        ColouredGraph(g, overfull)


def test_colour_adjacency_and_swap():
    g = Graph.complete(3)
    cg = ColouredGraph(g, {(0, 1): Colour.RED, (0, 2): Colour.BLUE, (1, 2): Colour.BLUE})
    assert cg.red_adjacency[0] == 1 << 1
    assert cg.blue_adjacency[0] == 1 << 2
    swapped = cg.swap_colours()
    assert swapped.colour_of(0, 1) is Colour.BLUE
    assert swapped.colour_of(1, 2) is Colour.RED


def test_text_roundtrip_plain():
    g = Graph.from_edges(5, [(0, 3), (1, 2), (0, 1)])
    text = write_graph_text(g)
    assert text.splitlines()[0] == "5 3"
    assert parse_graph_text(text) == g


def test_text_roundtrip_coloured():
    cg = colour_all(Graph.complete(3), Colour.RED)
    back = parse_graph_text(write_graph_text(cg))
    assert isinstance(back, ColouredGraph)
    assert back.colour == cg.colour


def test_text_output_sorted_lexicographically():
    g = Graph.from_edges(12, [(10, 11), (2, 3), (0, 1)])
    lines = write_graph_text(g).splitlines()[1:]
    assert lines == sorted(lines)


def test_text_mixed_lines_rejected():
    with pytest.raises(ValueError):
        parse_graph_text("2 2\n0 1 r\n0 1")


def test_text_bad_colour_char():
    with pytest.raises(ValueError):
        parse_graph_text("2 1\n0 1 x")


def test_text_duplicate_edge_rejected():
    with pytest.raises(ValueError):
        parse_graph_text("3 2\n0 1\n1 0")


@given(coloured_graphs())
def test_text_roundtrip_property(cg):
    back = parse_graph_text(write_graph_text(cg))
    if cg.graph.num_edges == 0:
        # no edge lines to carry colours: the text form degrades to plain
        assert back == cg.graph
    else:
        assert back.graph == cg.graph and back.colour == cg.colour


@given(graphs())
def test_content_hash_stable(g):
    assert g.content_hash() == parse_graph_text(write_graph_text(g)).content_hash()


def test_pattern_names():
    assert pattern_by_name("k3") == Graph.complete(3)
    assert pattern_by_name("k4") == Graph.complete(4)
    assert pattern_by_name("p4") == Graph.path(4)
    assert pattern_by_name("c5") == Graph.cycle(5)
    assert pattern_by_name("matching-2") == Graph.matching(2)
    with pytest.raises(ValueError):
        pattern_by_name("q7")


# Vertex counts on each side of the 1-, 2- and 3-digit label boundaries, where
# string order and numeric order of the labels part ways.
BOUNDARY_N = (9, 10, 11, 99, 100, 101, 999, 1000, 1001)


@st.composite
def boundary_hosts(draw):
    """A plain or coloured graph with ``n`` at a label boundary and edges near the boundary labels."""
    n = draw(st.sampled_from(BOUNDARY_N))
    near = sorted({v for b in (0, 9, 10, 99, 100, 999, 1000, n - 1) for v in (b - 1, b, b + 1) if 0 <= v < n})
    vertex = st.sampled_from(near) | st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=40))
    g = Graph.from_edges(n, pairs)
    if not draw(st.booleans()):
        return g
    return ColouredGraph(g, {e: draw(st.sampled_from(list(Colour))) for e in sorted(g.edges)})


@given(boundary_hosts())
def test_bulk_writer_matches_reference(g):
    text = write_graph_text(g)
    assert text == _reference_write_graph_text(g)
    assert parse_graph_text(text) == _reference_parse_graph_text(text)


# Past five-digit labels a coloured line's cell grows from one 64-bit word to two.
WIDE_N = (9999, 10000, 10001, 99999, 100000, 100001)


def _wide_hosts():
    """Plain, two-coloured, all-red and all-blue hosts on ``WIDE_N`` vertices, each a clique
    on the labels next to every digit-count boundary, and the smallest hosts."""
    for n in WIDE_N:
        near = sorted({v for b in (0, 10, 100, 1000, 10000, 100000, n) for v in (b - 1, b, b + 1) if 0 <= v < n})
        g = Graph.from_edges(n, [(u, v) for i, u in enumerate(near) for v in near[i + 1:]])
        mixed = {(u, v): Colour.RED if (u ^ v) & 1 else Colour.BLUE for u, v in g.edges}
        yield pytest.param(g, id=f"plain-{n}")
        yield pytest.param(ColouredGraph(g, mixed), id=f"mixed-{n}")
        yield pytest.param(colour_all(g, Colour.RED), id=f"red-{n}")
        yield pytest.param(colour_all(g, Colour.BLUE), id=f"blue-{n}")
    for n in (0, 1):
        yield pytest.param(Graph(n), id=f"plain-{n}")
        yield pytest.param(colour_all(Graph(n), Colour.RED), id=f"red-{n}")


@pytest.mark.parametrize("g", _wide_hosts())
def test_writer_matches_reference_past_five_digit_labels(g):
    text = write_graph_text(g)
    assert text == _reference_write_graph_text(g)
    back = parse_graph_text(text)
    assert back == (g if isinstance(g, Graph) or g.graph.num_edges else g.graph)


@pytest.mark.parametrize("n", [300, 100_001])
def test_writer_matches_reference_over_several_blocks(n):
    """More lines than two writer blocks hold, the last block partly filled, with one-word
    cells (n = 300) and two-word cells (n = 100001, edges mostly among its low labels, so
    that the masks stay small)."""
    rng = np.random.default_rng(n)
    pairs = rng.integers(0, 300, (12_000, 2)).tolist() + [(v, n - 1) for v in range(40)]
    g = Graph.from_edges(n, [e for e in map(tuple, pairs) if e[0] != e[1]])
    assert g.num_edges > 2 * graphs_module._BLOCK // 16  # 16 bytes a line in one-word cells
    cg = ColouredGraph(g, {e: Colour.RED if (e[0] * 7 + e[1]) % 3 else Colour.BLUE for e in g.edges})
    for host in (g, cg):
        text = write_graph_text(host)
        assert text == _reference_write_graph_text(host)
        assert parse_graph_text(text) == host


@given(boundary_hosts(), st.data())
def test_parser_accepts_loose_whitespace(g, data):
    """Extra spaces, tabs and blank lines anywhere, and a missing final newline, parse the same."""
    space = st.text(" \t", min_size=1, max_size=3)
    pad = st.text(" \t", max_size=3)
    lines = []
    for line in write_graph_text(g).splitlines():
        lines += [data.draw(pad) for _ in range(data.draw(st.integers(0, 2)))]
        lines.append(data.draw(pad) + data.draw(space).join(line.split()) + data.draw(pad))
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + data.draw(st.sampled_from(["", newline, "\n\n", "\n \t\n"]))
    plain_if_edgeless = g.graph if isinstance(g, ColouredGraph) and not g.graph.num_edges else g
    assert parse_graph_text(text) == _reference_parse_graph_text(text) == plain_if_edgeless


@pytest.mark.parametrize(
    "text",
    [
        "",
        " \n\t\n",
        "3",
        "3 1 1\n0 1",
        "3 2\n0 1",
        "3 1\n0 1\n1 2",
        "3 1\n0 1 r 2",
        "3 2\n0 1 r\n1 2",
        "3 2\n0 1\n1 2 b",
        "3 1\n0 1 x",
        "3 1\n0 1 R",
        "3 1\n1 1",
        "3 1\n1 1 r",
        "3 1\n0 3",
        "3 1\n3 0 b",
        "3 1\n-1 2",
        "3 1\n0 -2 r",
        "3 2\n0 1\n0 1",
        "3 2\n0 1\n1 0",
        "3 2\n0 1 r\n1 0 b",
        "3 1\n0 x",
        "-1 0",
        "3\r1\n0 1",
        "3 1\n0\r1",
        "3 1\n0 99999999999999999999999",
    ],
)
def test_parser_rejects_what_the_reference_rejects(text):
    with pytest.raises(ValueError):
        _reference_parse_graph_text(text)
    with pytest.raises(ValueError):
        parse_graph_text(text)


def test_parser_normalises_reversed_lines():
    for text in ("3 2\n1 0\n2 1", "3 2\n1 0 r\n2 1 b\n"):
        assert parse_graph_text(text) == _reference_parse_graph_text(text)
    assert parse_graph_text("3 2\n1 0 r\n2 1 b").colour == {(0, 1): Colour.RED, (1, 2): Colour.BLUE}


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


def _regex_parse_graph_text(text: str) -> Graph | ColouredGraph:
    """The parser the blockwise tokenizer replaced: the text checked against a grammar
    regex, then its numbers read by ``np.fromstring``."""
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
    if width == 3:
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


def _parse_outcome(parse, text):
    """The parsed object with its edge arrays, or the ValueError message."""
    try:
        g = parse(text)
    except ValueError as exc:
        return str(exc)
    graph = g.graph if isinstance(g, ColouredGraph) else g
    return g, [a.tolist() for a in graph.edge_pairs]


_NUMBER = st.integers(0, 7).map(str) | st.sampled_from(
    ["00", "007", "9" * 18, "0" * 17 + "6", "1" + "0" * 18, "9" * 19, "9" * 20, "0" * 25 + "3"]
)
_SEP = st.sampled_from([" ", "\t", "  ", " \t"])
_LEAD = st.sampled_from(["", "", " ", "\t", "\r", "\x0c", "\x0b", "\n", "\r\n", " \x0c\t"])
# A line ending outside the grammar about one time in eleven.
_TAIL = st.sampled_from([""] * 30 + [" ", "\t", "\r", " \r", "\t\r"] * 8 + ["\x0b", "\x0c", "r", " rb", " 1", "\r\r", "\r "])
# No digits: one dropped into the header could make an n that the reference allocates for.
_JUNK = st.sampled_from(["x", "\u0663", "\x00", "\x1c", "\xe9", "r", "b", "\r", "\x0b", " ", "\n", "\r\n"])


@st.composite
def _graph_texts(draw):
    """Texts near the grammar: padded numbers, both widths (now and then mixed), leading
    and trailing whitespace of every kind, header counts right or wrong, and now and
    then a stray byte dropped in anywhere."""
    coloured = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        cells = [draw(_NUMBER), draw(_NUMBER)]
        if coloured != draw(st.sampled_from([False] * 19 + [True])):
            cells.append(draw(st.sampled_from("rb")))
        lines.append(draw(_LEAD) + draw(_SEP).join(cells) + draw(_TAIL))
    m = len(lines) if draw(st.booleans()) else draw(st.integers(0, 6))
    n = draw(st.integers(0, 8).map(str) | st.just("0" * 24 + "5"))
    header = draw(_LEAD) + n + draw(_SEP) + str(m) + draw(_TAIL)
    text = "\n".join([header, *lines]) + draw(st.sampled_from(["", "\n", "\r\n", "\n\n", "\r", "\x0c", "\n\t\x0b"]))
    if draw(st.sampled_from([False] * 5 + [True])):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_JUNK) + text[at:]
    return text


@pytest.mark.parametrize("block", [None, 1, 3, 8])
@settings(max_examples=200, deadline=None)
@given(_graph_texts())
@example("3 1\n0 1 r\x0b")
@example("3 1\n0 1\r\r\n")
@example("3 1\n\x0b0 1")
@example("3 1\n0 1r")
@example("3 1\n0 1 rb")
@example("3 1\n0 \u0663")
@example("3 1\n0 0000000000000000000000001")
@example("1 0\n\r\n00000000000000000000022 1 b\n\x0c")
@example("3 1\n0r 1 b")
@example("3 1\n0 1 r5")
@example("3 2\n0 1 2\n1")
@example("3 2\n0 1 r 2\n1 b")
@example("3 1\n9223372036854775808 9999999999999999999")
def test_parser_matches_regex_reference(block, text):
    """The tokenizer accepts and rejects what the regex parser did, with the same graph
    or the same message, also when blocks of 1, 3 or 8 bytes put seams in every line."""
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(graphs_module, "_BLOCK", block)
        assert _parse_outcome(parse_graph_text, text) == _parse_outcome(_regex_parse_graph_text, text)


def test_parser_memory_stays_near_the_text_size_on_a_long_line():
    """A one-line body of 200,000 tokens is rejected before the tokenizer builds its
    arrays of several int64 per token."""
    text = "3 1\n" + "1 " * 200_000
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="not a line"):
            parse_graph_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(text)


@pytest.mark.parametrize(
    "text",
    ["99999999999999999999 1\n0 1", "9223372036854775808 1\n0 1 r", "2147483648 1\n0 1 2", "0" * 5000 + "1" * 11 + " 0"],
)
def test_parser_rejects_a_huge_n_before_allocating(text):
    """An n with 2*n*n past int64 is a ValueError, raised before the body is read."""
    with pytest.raises(ValueError, match="too large"):
        parse_graph_text(text)


def test_parser_cap_admits_the_largest_n():
    """2*n*n fits int64 for n = 2**31 - 1, so the text goes on to the body, whose bad
    line (or count) stops it before anything n-sized is built."""
    with pytest.raises(ValueError, match="not a line"):
        parse_graph_text("2147483647 1\n0 1 2")
    with pytest.raises(ValueError, match="header promises 2 edges"):
        parse_graph_text("2147483647 2\n0 1")


@given(coloured_graphs(max_n=12))
def test_mask_constructors_match_dict_built_objects(cg):
    g = cg.graph
    edges = sorted(g.edges)
    us, vs = (np.array(side, dtype=np.intp) for side in zip(*edges)) if edges else (np.zeros(0, np.intp),) * 2
    assert Graph.from_adjacency(g.n, masks_from_pairs(g.n, us, vs)) == g
    assert [tuple(map(int, e)) for e in zip(*g.edge_pairs)] == edges
    reds = [e for e in edges if cg.colour[e] is Colour.RED]
    red = masks_from_pairs(g.n, np.array([u for u, _ in reds], np.intp), np.array([v for _, v in reds], np.intp))
    built = ColouredGraph.from_masks(g, red)
    assert built == cg
    assert built.colour == cg.colour and list(built.colour) == edges
    assert built.blue_adjacency == cg.blue_adjacency
    assert built.swap_colours() == ColouredGraph(g, {e: c.other for e, c in cg.colour.items()})
    assert Graph.from_adjacency(g.n, g.adjacency).edges == g.edges


def _reference_masks_from_pairs(n, us, vs):
    """The mask builder the packbits one replaced: bytes OR-ed in with ``ufunc.at``, one
    ``ceil(n/8)``-byte row per vertex that has an edge."""
    rows, cols = np.concatenate((us, vs)), np.concatenate((vs, us))
    present = np.bincount(rows, minlength=n).astype(bool)
    width = (n + 7) >> 3
    buf = np.zeros((np.count_nonzero(present), width), np.uint8)
    bits = np.left_shift(1, cols & 7).astype(np.uint8)
    np.bitwise_or.at(buf, ((np.cumsum(present) - 1)[rows], cols >> 3), bits)
    raw, masks = buf.tobytes(), [0] * n
    for i, v in enumerate(np.flatnonzero(present).tolist()):
        masks[v] = int.from_bytes(raw[i * width:(i + 1) * width], "little")
    return tuple(masks)


@st.composite
def pair_arrays(draw):
    """``n`` in [1, 70] and pairs of distinct vertices in either order, repeats allowed."""
    n = draw(st.integers(1, 70))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=120))
    us, vs = (np.array(side, np.intp) for side in zip(*pairs)) if pairs else (np.zeros(0, np.intp),) * 2
    return n, us, vs


@given(pair_arrays(), st.sampled_from([None, 64, 200]))
def test_masks_from_pairs_matches_reference(case, cells):
    """With the default block size, one block; with 64 or 200 cells, blocks of 1 to 3 rows."""
    n, us, vs = case
    with pytest.MonkeyPatch.context() as patch:
        if cells is not None:
            patch.setattr(graphs_module, "_MASK_CELLS", cells)
        assert masks_from_pairs(n, us, vs) == _reference_masks_from_pairs(n, us, vs)


@pytest.mark.parametrize("n", [63, 64, 65, 128])
def test_masks_from_pairs_with_and_without_isolated_vertices(n):
    """Hosts where every vertex has an edge and hosts with isolated vertices.  With the
    default block size all ``n`` rows fit in one block, indexed by vertex, an isolated
    vertex's row left zero.  With 256 cells (two rows of 128 or four of 64 per block) the
    matrix takes several blocks: rows indexed by vertex when every vertex has an edge,
    else only the rows of the vertices with an edge."""
    cycle = [(v, (v + 1) % n) for v in range(n)]
    matching = [(v, v + 1) for v in range(0, n - 1, 2)] + ([(n - 2, n - 1)] if n % 2 else [])
    path = [(v, v + 1) for v in range(n // 2)]
    spaced = [(v, v + 3) for v in range(0, n - 3, 6)]
    for cells in (None, 256):
        with pytest.MonkeyPatch.context() as patch:
            if cells is not None:
                patch.setattr(graphs_module, "_MASK_CELLS", cells)
            for edges, covering in ((cycle, True), (matching, True), (path, False), (spaced, False)):
                us, vs = (np.array(side, np.intp) for side in zip(*edges))
                assert (len(np.union1d(us, vs)) == n) is covering
                for a, b in ((us, vs), (vs, us), (us[::-1], vs[::-1])):
                    assert masks_from_pairs(n, a, b) == _reference_masks_from_pairs(n, a, b)


def test_masks_from_pairs_memory_stays_near_the_masks():
    """A sparse host where most vertices have an edge: the bool matrix is built in blocks,
    so the peak stays near the masks themselves (443 MiB for 29 MiB of masks in one block)."""
    n = 20_000
    rng = np.random.default_rng(5)
    pairs = rng.integers(0, n, (2 * n, 2))
    us, vs = pairs[pairs[:, 0] != pairs[:, 1]][:n].T.copy()
    tracemalloc.start()
    try:
        masks = masks_from_pairs(n, us, vs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sys.getsizeof(masks) + sum(sys.getsizeof(m) for m in masks)
    assert size > 20 << 20 and peak < 1.5 * size
    want = _reference_masks_from_pairs(n, us, vs)
    assert masks == want


@pytest.mark.parametrize("cols", [1, 63, 64, 65, 128, 130, 2049])
def test_packed_rows_match_the_bit_sums_in_either_order(cols):
    """Random rows, plus all-zero rows and rows set only in their first word, whose
    packed bytes end in NULs."""
    bits = np.random.default_rng(cols).random((cols, cols)) < 0.5
    bits[1::3] = False
    bits[2::3, 64:] = False
    for matrix in (bits, bits.T):  # the transpose is Fortran-ordered
        want = [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in matrix]
        assert graphs_module._packed_rows(matrix) == want


def test_the_zero_vertex_graph_round_trips_through_text():
    assert graphs_module._packed_rows(np.zeros((3, 0), bool)) == [0, 0, 0]
    assert write_graph_text(Graph(0)) == "0 0\n"
    back = parse_graph_text("0 0\n")
    assert back == Graph(0) and back.content_hash() == Graph(0).content_hash()


@given(boundary_hosts(), st.randoms(use_true_random=False), st.sampled_from(["\n", "\r\n"]))
def test_parsed_edge_pairs_are_the_lexicographic_pairs(g, rnd, newline):
    """Reversed, shuffled and blank-separated lines still parse to read-only ``edge_pairs``
    in lexicographic order, equal to the pairs read back from the masks."""
    head, *lines = write_graph_text(g).splitlines()
    lines = [" ".join([b, a, *c] if rnd.random() < 0.5 else [a, b, *c]) for a, b, *c in map(str.split, lines)]
    rnd.shuffle(lines)
    lines = [ln for line in lines for ln in ([""] if rnd.random() < 0.2 else []) + [line]]
    parsed = parse_graph_text(newline.join([head, *lines]) + newline)
    graph = parsed.graph if isinstance(parsed, ColouredGraph) else parsed
    assert parsed == (g.graph if isinstance(g, ColouredGraph) and not g.graph.num_edges else g)
    for got, want in zip(graph.edge_pairs, pairs_of_masks(graph.adjacency)):
        assert got.dtype == want.dtype == np.intp and not got.flags.writeable
        assert np.array_equal(got, want)


def _field_tuple_hash(obj) -> int:
    """The hash a frozen dataclass generates: that of its field values as a tuple."""
    return hash(tuple(getattr(obj, f.name) for f in dataclasses.fields(obj)))


@given(coloured_graphs(max_n=12))
def test_cached_hashes_are_the_field_tuple_hashes(cg):
    g = cg.graph
    edges = sorted(g.edges)
    us, vs = (np.array(side, dtype=np.intp) for side in zip(*edges)) if edges else (np.zeros(0, np.intp),) * 2
    hosts = [Graph(g.n, frozenset(edges)), Graph.from_adjacency(g.n, g.adjacency), Graph.from_pairs(g.n, us, vs)]
    for host in hosts:
        assert host == g
        assert hash(host) == hash(host) == _field_tuple_hash(host) == hash(g)
    colourings = [cg, ColouredGraph(hosts[0], dict(cg.colour)), ColouredGraph.from_masks(hosts[2], cg.red_adjacency)]
    for coloured in colourings:
        assert coloured == cg
        assert hash(coloured) == hash(coloured) == _field_tuple_hash(coloured) == hash(cg)
    assert hash(cg.swap_colours()) == _field_tuple_hash(cg.swap_colours())


def test_exact_ratio_memo_keys_on_the_type():
    # Fraction(0.1) equals 0.1 and hashes the same, but it is the binary value.
    exact_ratio.cache_clear()
    binary = Fraction(0.1)
    assert exact_ratio(binary) == Fraction(3602879701896397, 36028797018963968)
    assert exact_ratio(0.1) == Fraction(1, 10)
    assert exact_ratio(binary) is binary
    assert exact_ratio(1) == 1 and exact_ratio(1.0) == 1 and exact_ratio(True) == 1
    assert exact_ratio(0.35) == Fraction(7, 20)

from typing import Iterable

from hypothesis import example, given, settings
from hypothesis import strategies as st

from monotile.clusters import ClusterCertificate, verify_cluster
from monotile.embeddings import EmbeddedCopy
from monotile.graphs import Colour, ColouredGraph, Graph, colour_all, mask_of, normalize_edge, pattern_by_name
from monotile.patterns import PatternStats
from monotile.tilings import Tiling, tiling_errors, validate_tiling

from .conftest import coloured_graphs


def _red_k6():
    return colour_all(Graph.complete(6), Colour.RED)


def test_valid_tiling(k3):
    tiling = Tiling(
        Colour.RED,
        (EmbeddedCopy((0, 1, 2), Colour.RED), EmbeddedCopy((3, 4, 5), Colour.RED)),
    )
    assert validate_tiling(_red_k6(), k3, tiling)
    assert tiling.size == 2
    assert tiling.vertices == frozenset(range(6))


def test_overlap_detected(k3):
    tiling = Tiling(
        Colour.RED,
        (EmbeddedCopy((0, 1, 2), Colour.RED), EmbeddedCopy((2, 3, 4), Colour.RED)),
    )
    assert any("overlaps" in p for p in tiling_errors(_red_k6(), k3, tiling))


def test_wrong_colour_detected(k3):
    g = Graph.complete(3)
    cg = ColouredGraph(
        g, {(0, 1): Colour.RED, (0, 2): Colour.RED, (1, 2): Colour.BLUE}
    )
    tiling = Tiling(Colour.RED, (EmbeddedCopy((0, 1, 2), Colour.RED),))
    assert not validate_tiling(cg, k3, tiling)
    assert tiling_errors(cg, k3, tiling) == ["copy 0: pattern edge (1,2) maps to a blue edge, wanted red"]
    blue = Tiling(Colour.BLUE, (EmbeddedCopy((2, 1, 0), Colour.BLUE),))
    assert sorted(tiling_errors(cg, k3, blue)) == [
        "copy 0: pattern edge (0,2) maps to a red edge, wanted blue",
        "copy 0: pattern edge (1,2) maps to a red edge, wanted blue",
    ]


def test_non_edge_detected(k3):
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    cg = ColouredGraph(g, {e: Colour.RED for e in g.edges})
    tiling = Tiling(Colour.RED, (EmbeddedCopy((0, 1, 2), Colour.RED),))
    assert tiling_errors(cg, k3, tiling) == ["copy 0: pattern edge (0,2) maps to the non-edge (0, 2)"]
    reversed_map = Tiling(Colour.RED, (EmbeddedCopy((2, 1, 0), Colour.RED),))
    assert tiling_errors(cg, k3, reversed_map) == ["copy 0: pattern edge (0,2) maps to the non-edge (0, 2)"]


def test_inside_restriction(k3):
    tiling = Tiling(Colour.RED, (EmbeddedCopy((0, 1, 2), Colour.RED),))
    assert validate_tiling(_red_k6(), k3, tiling, inside=mask_of([0, 1, 2]))
    assert not validate_tiling(_red_k6(), k3, tiling, inside=mask_of([0, 1]))


def test_non_injective_map_detected(k3):
    tiling = Tiling(Colour.RED, (EmbeddedCopy((0, 1, 1), Colour.RED),))
    assert not validate_tiling(_red_k6(), k3, tiling)


def test_wrong_arity_detected(k3):
    tiling = Tiling(Colour.RED, (EmbeddedCopy((0, 1), Colour.RED),))
    assert not validate_tiling(_red_k6(), k3, tiling)


def _reference_copy_errors(G: ColouredGraph, H: PatternStats, copy: EmbeddedCopy, colour: Colour | None) -> list[str]:
    """The per-copy check the mask validator replaced, on vertex sets and per-edge lookups."""
    problems: list[str] = []
    vm = copy.vertex_map
    if len(vm) != H.k:
        return [f"vertex map has {len(vm)} entries for a {H.k}-vertex pattern"]
    if min(vm, default=0) < 0:
        return ["vertex map leaves the host vertex range"]
    if len(set(vm)) != len(vm):
        return ["vertex map is not injective"]
    if any(not 0 <= v < G.n for v in vm):
        problems.append("vertex map leaves the host vertex range")
        return problems
    for u, v in H.pattern.edges:
        a, b = vm[u], vm[v]
        if not G.graph.adjacency[a] >> b & 1:
            problems.append(f"pattern edge ({u},{v}) maps to the non-edge {normalize_edge(a, b)}")
        elif colour is not None and not G.adjacency_for(colour)[a] >> b & 1:
            problems.append(f"pattern edge ({u},{v}) maps to a {colour.other.value} edge, wanted {colour.value}")
    return problems


def _reference_tiling_errors(
    G: ColouredGraph, H: PatternStats, tiling: Tiling, inside: Iterable[int] | None = None
) -> list[str]:
    """The validator the mask one replaced: frozenset containment for ``inside``.  The
    overlap and ``inside`` checks read a copy's vertices >= 0."""
    problems: list[str] = []
    seen = 0
    allowed = None if inside is None else frozenset(inside)
    for i, copy in enumerate(tiling.copies):
        for p in _reference_copy_errors(G, H, copy, tiling.colour):
            problems.append(f"copy {i}: {p}")
        vertices = {v for v in copy.vertex_map if v >= 0}
        m = mask_of(vertices)
        if m & seen:
            problems.append(f"copy {i} overlaps an earlier copy")
        seen |= m
        if allowed is not None and not vertices <= allowed:
            problems.append(f"copy {i} leaves the allowed vertex set")
    return problems


def _outcome(validator, *args):
    """The message list, or the type and text of the exception raised."""
    try:
        return validator(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@st.composite
def _tilings(draw):
    """A host, a pattern and a tiling whose maps are drawn near the host: wrong lengths,
    repeats, overlaps and vertices past the host (and, rarely, negative) all turn up."""
    cg = draw(coloured_graphs(min_n=1, max_n=8))
    H = PatternStats.from_graph(pattern_by_name(draw(st.sampled_from(["k2", "k3", "p3", "p4"]))))
    low = draw(st.sampled_from([0, 0, 0, -2]))
    vertex = st.integers(low, cg.n + 2)
    maps = st.lists(vertex, min_size=max(H.k - 1, 0), max_size=H.k + 1).filter(lambda vm: len(vm) != H.k) | st.lists(
        vertex, min_size=H.k, max_size=H.k
    )
    copies = draw(st.lists(maps, max_size=4))
    colour = draw(st.sampled_from(list(Colour)))
    tiling = Tiling(colour, tuple(EmbeddedCopy(tuple(vm), colour) for vm in copies))
    inside = draw(st.none() | st.lists(st.integers(-3, cg.n + 3), max_size=cg.n + 3))
    return cg, H, tiling, inside


_K6 = colour_all(Graph.complete(6), Colour.RED)
_K3 = PatternStats.from_graph(Graph.complete(3))


@settings(max_examples=400, deadline=None)
@given(_tilings())
@example((_K6, _K3, Tiling(Colour.RED, (EmbeddedCopy((0, 1, 7), Colour.RED),)), [0, 1, 7, -1]))
@example((_K6, _K3, Tiling(Colour.RED, (EmbeddedCopy((0, 1, 2), Colour.RED),)), [-1, 0, 1, 2, 10**6]))
@example((_K6, _K3, Tiling(Colour.BLUE, (EmbeddedCopy((0, -1, 2), Colour.BLUE),)), None))
def test_mask_validator_matches_reference(case):
    cg, H, tiling, inside = case
    expected = _outcome(_reference_tiling_errors, cg, H, tiling, inside)
    assert isinstance(expected, list)  # neither validator raises, negative vertices included
    # No copy vertex the checks read is negative, so the mask drops those entries.
    allowed = -1 if inside is None else mask_of(v for v in inside if v >= 0)
    assert _outcome(tiling_errors, cg, H, tiling, allowed) == expected


def test_negative_vertex_is_reported_not_raised():
    """A negative vertex reads as leaving the host range, in place of the injectivity,
    range and edge checks; the overlap and ``inside`` checks read the other entries."""
    range_error = "copy 0: vertex map leaves the host vertex range"
    lone = Tiling(Colour.BLUE, (EmbeddedCopy((0, -1, 2), Colour.BLUE),))
    assert tiling_errors(_K6, _K3, lone) == [range_error]
    assert tiling_errors(_K6, _K3, Tiling(Colour.RED, (EmbeddedCopy((-1, -1, 2), Colour.RED),))) == [range_error]
    pair = Tiling(Colour.RED, (EmbeddedCopy((0, -1, 2), Colour.RED), EmbeddedCopy((2, 3, 4), Colour.RED)))
    assert tiling_errors(_K6, _K3, pair, mask_of([0, 2, 3, 4])) == [range_error, "copy 1 overlaps an earlier copy"]
    assert tiling_errors(_K6, _K3, pair, 0b11001) == [
        range_error,
        "copy 0 leaves the allowed vertex set",
        "copy 1 overlaps an earlier copy",
        "copy 1 leaves the allowed vertex set",
    ]
    cert = ClusterCertificate(frozenset(range(6)), pair, Tiling(Colour.BLUE, ()), 0.4)
    assert not verify_cluster(_K6, _K3, cert)

from monotile.embeddings import EmbeddedCopy
from monotile.graphs import Colour, ColouredGraph, Graph, colour_all
from monotile.tilings import Tiling, tiling_errors, validate_tiling


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
    assert validate_tiling(_red_k6(), k3, tiling, inside=[0, 1, 2])
    assert not validate_tiling(_red_k6(), k3, tiling, inside=[0, 1])


def test_non_injective_map_detected(k3):
    tiling = Tiling(Colour.RED, (EmbeddedCopy((0, 1, 1), Colour.RED),))
    assert not validate_tiling(_red_k6(), k3, tiling)


def test_wrong_arity_detected(k3):
    tiling = Tiling(Colour.RED, (EmbeddedCopy((0, 1), Colour.RED),))
    assert not validate_tiling(_red_k6(), k3, tiling)

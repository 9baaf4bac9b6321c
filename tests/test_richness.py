import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotile.embeddings import EmbeddedCopy
from monotile.extraction import maximal_cluster_family
from monotile.graphs import Colour, ColouredGraph, Graph, colour_all
from monotile.oracles import good_copy_witness_count
from monotile.richness import GoodCopy, Side, richness_probe
from monotile.instances import bowtie_union

from .conftest import all_colourings, coloured_graphs


def test_good_copy_keeps_the_dataclass_contract():
    # GoodCopy fills its own instance dict; everything else is the dataclass's.
    def make():
        return EmbeddedCopy(tuple([0, 2, 1]), Colour.BLUE)

    record = GoodCopy(make(), Side.Y)
    twin = GoodCopy(copy=make(), side_hit=Side.Y)
    assert [f.name for f in dataclasses.fields(GoodCopy)] == ["copy", "side_hit"]
    assert vars(record) == vars(twin) == {"copy": make(), "side_hit": Side.Y}
    assert record == twin and hash(record) == hash(twin)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.side_hit = Side.X
    changed = dataclasses.replace(record, side_hit=Side.X)
    assert type(changed) is GoodCopy and vars(changed) == {"copy": make(), "side_hit": Side.X}
    assert changed != record
    assert repr(record) == f"GoodCopy(copy={make()!r}, side_hit={Side.Y!r})"
    restored = pickle.loads(pickle.dumps(record))
    assert restored == record and hash(restored) == hash(record)


def test_probe_all_red_k6(k3):
    g = colour_all(Graph.complete(6), Colour.RED)
    hit = richness_probe(g, k3, [0, 1, 2], [3, 4, 5])
    assert hit is not None and hit.side_hit is Side.X
    assert hit.copy.colour is Colour.RED
    assert len(hit.copy.vertices & {0, 1, 2}) >= 1


def test_probe_requires_disjoint_sets(k3):
    g = colour_all(Graph.complete(6), Colour.RED)
    with pytest.raises(ValueError):
        richness_probe(g, k3, [0, 1], [1, 2])


@pytest.mark.parametrize("X, Y", [((0, 99), (3, 4)), ((0, 1), (3, 6)), ((0, -1), (3, 4)), ((0, 1), (-2, 4))])
def test_probe_rejects_vertices_outside_the_host(k3, X, Y):
    # Vertex 99 (or 6) used to drop out of the universe, and a negative one raised
    # Python's "negative shift count".
    g = colour_all(Graph.complete(6), Colour.RED)
    with pytest.raises(ValueError, match=r"range\(6\)"):
        richness_probe(g, k3, X, Y)


def test_probe_none_on_mono_free_k4(k3):
    # red perfect matching leaves K4 with no monochromatic triangle
    g = Graph.complete(4)
    colour = {e: Colour.BLUE for e in g.edges}
    colour[(0, 1)] = Colour.RED
    colour[(2, 3)] = Colour.RED
    colour[(0, 2)] = Colour.RED
    cg = ColouredGraph(g, colour)
    assert richness_probe(cg, k3, [0, 1], [2, 3]) is None


def test_probe_empty_x_blue_copy_inside_y(k3):
    g = colour_all(Graph.complete(3), Colour.BLUE)
    hit = richness_probe(g, k3, [], [0, 1, 2])
    assert hit is not None and hit.side_hit is Side.Y
    assert hit.copy.colour is Colour.BLUE


@settings(max_examples=150, deadline=None)
@given(coloured_graphs(min_n=2, max_n=8), st.data())
def test_probe_agrees_with_witness_enumeration(k3, cg, data):
    verts = list(range(cg.n))
    xs = data.draw(st.lists(st.sampled_from(verts), unique=True, max_size=cg.n))
    rest = [v for v in verts if v not in xs]
    ys = data.draw(
        st.lists(st.sampled_from(rest), unique=True, max_size=len(rest))
    ) if rest else []
    hit = richness_probe(cg, k3, xs, ys)
    count = good_copy_witness_count(cg, k3, xs, ys)
    assert (hit is None) == (count == 0)


def _naive_bowtie_exists(cg):
    """Double loop over all red and blue triangles."""
    from itertools import combinations

    def mono_triangles(colour):
        out = []
        for tri in combinations(range(cg.n), 3):
            edges = [(tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])]
            if all(cg.colour.get(e) is colour for e in edges):
                out.append(set(tri))
        return out

    for red in mono_triangles(Colour.RED):
        for blue in mono_triangles(Colour.BLUE):
            if len(red & blue) == 1:
                return True
    return False


# A K3 tie is a bow tie: a red and a blue triangle sharing alpha = 1 vertex
# (two shared vertices would share an edge of both colours).

def test_bowtie_on_planted_instance(k3):
    cg = bowtie_union(1, isolated=3)
    (cert,) = maximal_cluster_family(cg, k3).certificates
    (red,), (blue,) = cert.red_tiling.copies, cert.blue_tiling.copies
    assert red.colour is Colour.RED and blue.colour is Colour.BLUE
    assert len(red.vertices & blue.vertices) == 1


def test_bowtie_none_on_all_red(k3):
    g = colour_all(Graph.complete(7), Colour.RED)
    assert maximal_cluster_family(g, k3).certificates == ()


def test_bowtie_matches_naive_oracle_on_all_k5_colourings(k3):
    for cg in all_colourings(Graph.complete(5)):
        family = maximal_cluster_family(cg, k3)
        assert bool(family.certificates) == _naive_bowtie_exists(cg)

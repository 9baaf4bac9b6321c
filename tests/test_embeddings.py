from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monotile.embeddings import (
    copy_leads,
    find_mono_copy,
    find_triangle,
    first_copy,
    iter_copies,
    iter_embeddings,
    iter_triangles,
    lead_vertex,
)
from monotile.extraction import greedy_packing
from monotile.graphs import Colour, Graph, colour_all, mask_of, pattern_by_name
from monotile.oracles import iter_copies_bruteforce, mono_copy_count_bruteforce
from monotile.patterns import PatternStats
from monotile.sampling import philox_generator

from .conftest import all_colourings, coloured_graphs


def test_find_in_all_red_k5(k3):
    g = colour_all(Graph.complete(5), Colour.RED)
    copy = find_mono_copy(g, k3, colour_filter=Colour.RED)
    assert copy is not None and copy.colour is Colour.RED
    assert find_mono_copy(g, k3, colour_filter=Colour.BLUE) is None


def test_cycle_has_no_triangle_under_any_colouring(k3):
    c5 = Graph.cycle(5)
    for cg in all_colourings(c5):
        assert find_mono_copy(cg, k3) is None


@pytest.mark.parametrize(
    "n,colour,expect",
    [(4, Colour.RED, 4), (4, Colour.BLUE, 0), (6, Colour.RED, 20)],
)
def test_count_on_complete_red_hosts(k3, n, colour, expect):
    # A triangle is its own vertex set, so one listed copy per triangle.
    g = colour_all(Graph.complete(n), Colour.RED)
    assert len(list(iter_copies(g.adjacency_for(colour), k3.pattern, (1 << n) - 1))) == expect


def test_counts_are_subgraph_counts_not_embeddings():
    # three perfect matchings of K4, not 24 labelled embeddings
    two_k2 = PatternStats.from_graph(Graph.matching(2))
    g = colour_all(Graph.complete(4), Colour.RED)
    assert mono_copy_count_bruteforce(g, two_k2, Colour.RED) == 3


@pytest.mark.parametrize(
    "pattern,expect",
    [
        (Graph.complete(3), 6),
        (Graph.path(4), 2),
        (Graph.matching(2), 8),
        (Graph.cycle(5), 10),
        (Graph.empty(3), 6),
    ],
)
def test_automorphism_counts(pattern, expect):
    # The matcher lists every embedding of a pattern into itself once: |Aut(H)| of them.
    full = (1 << pattern.n) - 1
    assert sum(1 for _ in iter_embeddings(pattern.adjacency, pattern, full)) == expect


def test_allowed_vertices_restrict_search(k3):
    g = colour_all(Graph.complete(6), Colour.RED)
    assert find_mono_copy(g, k3, allowed_vertices=[0, 1]) is None
    assert len(list(iter_copies(g.red_adjacency, k3.pattern, 0b1111))) == 4


def test_find_is_deterministic(k3):
    g = colour_all(Graph.complete(6), Colour.RED)
    assert find_mono_copy(g, k3) == find_mono_copy(g, k3)


def test_edgeless_pattern_rejected():
    stats = PatternStats.from_graph(Graph.empty(3))
    g = colour_all(Graph.complete(4), Colour.RED)
    with pytest.raises(ValueError):
        find_mono_copy(g, stats)


def test_find_none_iff_count_zero_exhaustive_k5(k3):
    for cg in all_colourings(Graph.complete(5)):
        for colour in (Colour.RED, Colour.BLUE):
            found = find_mono_copy(cg, k3, colour_filter=colour)
            count = mono_copy_count_bruteforce(cg, k3, colour)
            assert (found is None) == (count == 0)


def _matcher_copy_count(cg, stats, colour):
    # Labelled embeddings over |Aut(H)|: each subgraph copy is reached |Aut(H)| times.
    pattern = stats.pattern
    aut = sum(1 for _ in iter_embeddings(pattern.adjacency, pattern, (1 << pattern.n) - 1))
    embeddings = sum(1 for _ in iter_embeddings(cg.adjacency_for(colour), pattern, (1 << cg.n) - 1))
    assert embeddings % aut == 0
    return embeddings // aut


@settings(max_examples=80, deadline=None)
@given(coloured_graphs(max_n=6), st.sampled_from([Colour.RED, Colour.BLUE]))
def test_count_matches_bruteforce_oracle(k3, cg, colour):
    assert _matcher_copy_count(cg, k3, colour) == mono_copy_count_bruteforce(cg, k3, colour)


@settings(max_examples=80, deadline=None)
@given(coloured_graphs(min_n=4, max_n=7), st.sampled_from([Colour.RED, Colour.BLUE]))
def test_p4_count_matches_bruteforce_oracle(p4, cg, colour):
    assert _matcher_copy_count(cg, p4, colour) == mono_copy_count_bruteforce(cg, p4, colour)


@settings(max_examples=160, deadline=None)
@given(
    coloured_graphs(min_n=3, max_n=7),
    st.sampled_from(["k3", "p4", "c4"]),
    st.sampled_from([Colour.RED, Colour.BLUE]),
)
def test_copy_vertex_sets_match_bruteforce_oracle(cg, name, colour):
    # One mask per vertex subset holding a copy; the order is not compared.
    pattern = pattern_by_name(name)
    adj = cg.adjacency_for(colour)
    masks = [mask_of(vm) for vm in iter_copies(adj, pattern, (1 << cg.n) - 1)]
    assert len(masks) == len(set(masks))
    subsets = {mask_of(subset) for subset, _ in iter_copies_bruteforce(adj, pattern, range(cg.n))}
    assert set(masks) == subsets


@settings(max_examples=120, deadline=None)
@given(coloured_graphs(min_n=3, max_n=7), st.data())
def test_triangle_fast_path_matches_generic_matcher(cg, data):
    universe_verts = data.draw(
        st.lists(st.integers(0, cg.n - 1), unique=True, min_size=0, max_size=cg.n)
    )
    side_verts = data.draw(
        st.lists(st.integers(0, cg.n - 1), unique=True, min_size=0, max_size=cg.n)
    )
    universe = mask_of(universe_verts)
    side = mask_of(side_verts)
    pattern = Graph.complete(3)
    for adj in (cg.red_adjacency, cg.blue_adjacency):
        listed = list(iter_triangles(adj, universe))
        assert listed == sorted(set(listed))
        assert set(listed) == {
            tuple(sorted(vm)) for vm in iter_embeddings(adj, pattern, universe)
        }
        for min_side in range(4):
            fast = [t for t in listed if sum((side >> v) & 1 for v in t) >= min_side]
            slow = {
                tuple(sorted(vm))
                for vm in iter_embeddings(adj, pattern, universe, side, min_side)
            }
            assert set(fast) == slow
            # The lexicographically first triangle, also the generic matcher's first copy.
            first = min(fast, default=None)
            if min_side <= 1:
                assert find_triangle(adj, universe, side, min_side) == first
            generic = next(iter_embeddings(adj, pattern, universe, side, min_side), None)
            assert generic == first
            # Any superset of the class's lead mask, cut at or below the first
            # copy's lead vertex, is a sound promise.
            extra = data.draw(st.integers(0, (1 << cg.n) - 1))
            cut = data.draw(st.integers(0, cg.n if first is None else first[0]))
            leads = (copy_leads(adj, pattern) | extra) & ~((1 << cut) - 1)
            assert first_copy(adj, pattern, universe, side, min_side, leads) == first


def test_side_seeded_triangle_search_matches_brute_force():
    rng = philox_generator(2024)
    for _ in range(600):
        n = int(rng.integers(3, 10))
        adj = [0] * n
        for u, v in combinations(range(n), 2):
            if rng.random() < 0.6:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        universe = int(rng.integers(0, 1 << n))
        side = int(rng.integers(0, 1 << n))
        triangles = [
            t for t in combinations(range(n), 3)
            if all((universe >> v) & 1 for v in t)
            and (adj[t[0]] >> t[1]) & 1 and (adj[t[0]] >> t[2]) & 1 and (adj[t[1]] >> t[2]) & 1
        ]
        for min_side in range(4):
            valid = [t for t in triangles if sum((side >> v) & 1 for v in t) >= min_side]
            if min_side <= 1:
                assert find_triangle(adj, universe, side, min_side) == min(valid, default=None)
            assert first_copy(adj, Graph.complete(3), universe, side, min_side) == min(valid, default=None)


@settings(max_examples=150, deadline=None)
@given(coloured_graphs(min_n=3, max_n=12), st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1))
@example(colour_all(Graph.complete(3), Colour.RED), 0b111, 0b001)  # the side vertex leads
@example(colour_all(Graph.complete(3), Colour.RED), 0b111, 0b100)  # a lower neighbour leads
def test_sided_triangle_search_under_lead_mask_matches_unmasked(cg, universe, side):
    n = cg.n
    for adj in (cg.red_adjacency, cg.blue_adjacency):
        first = find_triangle(adj, universe)
        # No triangle in the universe leads below the first one's lead vertex.
        cut = n if first is None else first[0]
        leads = copy_leads(adj, Graph.complete(3)) & ~((1 << cut) - 1)
        for min_side in range(2):
            expected = find_triangle(adj, universe, side, min_side)
            assert find_triangle(adj, universe, side, min_side, leads=leads) == expected
        for min_side in range(2, 4):
            expected = first_copy(adj, Graph.complete(3), universe, side, min_side)
            assert first_copy(adj, Graph.complete(3), universe, side, min_side, leads=leads) == expected


@settings(max_examples=150, deadline=None)
@given(
    coloured_graphs(min_n=3, max_n=10),
    st.sampled_from(["k3", "p3"]),
    st.integers(0, 2**14 - 1),
    st.integers(0, 2**14 - 1),
    st.integers(1, 4),
)
@example(colour_all(Graph.complete(3), Colour.RED), "k3", 0b1000, 0b1000, 1)
@example(colour_all(Graph.complete(3), Colour.RED), "p3", 0b1111, 0b1000, 1)
def test_copy_search_clips_the_universe_to_the_host(cg, name, universe, side, extra_bits):
    pattern = pattern_by_name(name)
    host = (1 << cg.n) - 1
    # Both masks get bits past the host, on top of the random 14-bit draws.
    wide_universe, wide_side = universe | extra_bits << cg.n, side | extra_bits << cg.n
    for adj in (cg.red_adjacency, cg.blue_adjacency):
        for min_side in range(4):
            expected = first_copy(adj, pattern, universe & host, side & host, min_side)
            assert first_copy(adj, pattern, wide_universe, wide_side, min_side) == expected
        assert list(iter_copies(adj, pattern, wide_universe)) == list(iter_copies(adj, pattern, universe & host))
    assert find_triangle(Graph.complete(3).adjacency, 0b1000, 0b1000, 1) is None


# Vertices 2 and 3 lie in both red triangles but lead neither.
_SHARED_NON_LEADS = colour_all(
    Graph.from_edges(4, [e for t in ((0, 2, 3), (1, 2, 3)) for e in combinations(t, 2)]), Colour.RED
)


@settings(max_examples=150, deadline=None)
@given(coloured_graphs(min_n=1, max_n=8), st.sampled_from(["k3", "k4", "c4", "p4"]))
@example(_SHARED_NON_LEADS, "k3")
def test_copy_leads_match_brute_force(cg, name):
    pattern = pattern_by_name(name)
    everything = (1 << cg.n) - 1
    for adj in (cg.red_adjacency, cg.blue_adjacency):
        if name == "k3":
            expected = mask_of({t[0] for t in iter_triangles(adj, everything)})
        else:
            lead = lead_vertex(pattern)
            expected = mask_of({vm[lead] for vm in iter_embeddings(adj, pattern, everything)})
        assert copy_leads(adj, pattern) == expected


def _restarted_packing(cg, H, colour, free):
    """Disjoint copies taken first-found, each scan restarted from vertex 0 of the free set."""
    out = []
    while (copy := find_mono_copy(cg, H, free, colour)) is not None:
        assert copy.vertex_mask & free == copy.vertex_mask
        free &= ~copy.vertex_mask
        out.append(copy)
    return tuple(out)


# Red triangles leading with vertices 0 and 1: a scan resumed beyond the
# first copy's lead vertex plus one misses the second.
_ADJACENT_LEADS = colour_all(
    Graph.from_edges(6, [e for t in ((0, 2, 3), (1, 4, 5)) for e in combinations(t, 2)]), Colour.RED
)


@settings(max_examples=80, deadline=None)
@given(
    coloured_graphs(min_n=3, max_n=9),
    st.sampled_from(["k3", "c4", "p4"]),
    st.sampled_from(list(Colour)),
    st.integers(0, (1 << 9) - 1),
)
@example(_ADJACENT_LEADS, "k3", Colour.RED, (1 << 9) - 1)
def test_greedy_packing_matches_restarted_scan(cg, name, colour, free):
    H = PatternStats.from_graph(pattern_by_name(name))
    free &= (1 << cg.n) - 1
    assert greedy_packing(cg, H, colour, free) == _restarted_packing(cg, H, colour, free)


def test_mask_and_iterable_universes_agree(k3):
    g = colour_all(Graph.complete(6), Colour.RED)
    assert find_mono_copy(g, k3, 0b111100) == find_mono_copy(g, k3, [2, 3, 4, 5])
    assert find_mono_copy(g, k3, 0b111100).vertex_map == (2, 3, 4)

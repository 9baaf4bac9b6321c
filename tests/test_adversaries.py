from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotile.adversaries import (
    ADVERSARY_NAMES,
    AdversarySpec,
    _clique_estimate,
    _closing_counter,
    _closing_estimate,
    _resolve_pattern,
    _visit_order,
    colour_with,
)
from monotile.budget import DEFAULT_WORK_BUDGET
from monotile.embeddings import find_triangle, iter_embeddings
from monotile.graphs import Colour, Edge, Graph, normalize_edge, pattern_by_name
from monotile.patterns import PatternStats
from monotile.sampling import derive_seed, philox_generator, sample_gnp, threshold_probability

from .conftest import CountingMasks, graphs


def test_unknown_adversary_rejected():
    with pytest.raises(ValueError):
        AdversarySpec("chaos-monkey", {}, 0)


def test_uniform_random_deterministic():
    g = Graph.complete(8)
    a = colour_with(g, AdversarySpec("uniform-random", {}, 42))
    b = colour_with(g, AdversarySpec("uniform-random", {}, 42))
    assert a.colour == b.colour
    c = colour_with(g, AdversarySpec("uniform-random", {}, 43))
    assert a.colour != c.colour


def test_planted_partition_example():
    g = Graph.complete(6)
    cg = colour_with(g, AdversarySpec("planted-partition", {"part": [0, 1, 2]}, 0))
    assert cg.colour_of(0, 1) is Colour.RED
    assert cg.colour_of(1, 2) is Colour.RED
    assert cg.colour_of(0, 3) is Colour.BLUE
    assert cg.colour_of(4, 5) is Colour.BLUE


@pytest.mark.parametrize("part", [[0, 1, 99], [-1, 0, 1], [6]])
def test_planted_partition_rejects_part_vertices_outside_the_host(part):
    with pytest.raises(ValueError, match=r"range\(6\)"):
        colour_with(Graph.complete(6), AdversarySpec("planted-partition", {"part": part}, 0))


def test_planted_partition_default_size():
    g = Graph.complete(25)
    cg = colour_with(g, AdversarySpec("planted-partition", {}, 0))
    reds = [e for e, c in cg.colour.items() if c is Colour.RED]
    assert reds and all(u < 5 and v < 5 for u, v in reds)


def test_copy_avoider_finds_mono_free_k5_for_some_seed():
    hit = False
    for seed in range(20):
        cg = colour_with(Graph.complete(5), AdversarySpec("copy-avoider-greedy", {}, seed))
        full = (1 << 5) - 1
        if find_triangle(cg.red_adjacency, full) is None and find_triangle(
            cg.blue_adjacency, full
        ) is None:
            hit = True
            break
    assert hit


def test_copy_avoider_with_custom_pattern():
    spec = AdversarySpec("copy-avoider-greedy", {"pattern": "p4"}, 1)
    cg = colour_with(Graph.complete(6), spec)
    assert len(cg.colour) == 15


def test_majority_degree_polarizes():
    cg = colour_with(Graph.complete(10), AdversarySpec("majority-degree", {}, 5))
    reds = sum(1 for c in cg.colour.values() if c is Colour.RED)
    # rich-get-richer drifts toward one colour dominating
    assert reds == 0 or reds == 45 or abs(2 * reds - 45) > 5


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8), st.sampled_from(ADVERSARY_NAMES), st.integers(0, 2**32))
def test_every_adversary_is_total_and_deterministic(g, name, seed):
    spec = AdversarySpec(name, {}, seed)
    a = colour_with(g, spec)
    assert set(a.colour) == g.edges
    assert colour_with(g, spec).colour == a.colour


# Reference copy-avoider: lists every copy of the pattern in the host up
# front, then counts per edge the copies whose other edges all carry one
# colour.  Slow, but independent of the incremental per-colour masks.

def _reference_copies_by_edge(G: Graph, pattern: Graph) -> dict[Edge, list[tuple[Edge, ...]]]:
    universe = (1 << G.n) - 1
    by_edge: dict[Edge, list[tuple[Edge, ...]]] = {e: [] for e in G.edges}
    seen: set[frozenset[Edge]] = set()
    for vm in iter_embeddings(G.adjacency, pattern, universe):
        edge_set = frozenset(normalize_edge(vm[u], vm[v]) for u, v in pattern.edges)
        if edge_set in seen:
            continue
        seen.add(edge_set)
        fixed = tuple(sorted(edge_set))
        for e in fixed:
            by_edge[e].append(fixed)
    return by_edge


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_edge_order_permutes_the_sorted_edge_list(seed):
    host = sample_gnp(60, 0.3, derive_seed("edge-order", seed))
    edges = sorted(host.edges)
    perm = philox_generator(derive_seed("adversary-order", seed)).permutation(len(edges)).tolist()
    us, vs, _ = _visit_order(host, seed, "adversary-majority")
    assert list(zip(us.tolist(), vs.tolist())) == [edges[i] for i in perm]


def _reference_copy_avoider(G: Graph, spec: AdversarySpec) -> dict[Edge, Colour]:
    by_edge = _reference_copies_by_edge(G, _resolve_pattern(spec))
    coin = philox_generator(derive_seed("adversary-avoider", spec.seed))
    assigned: dict[Edge, Colour] = {}
    us, vs, _ = _visit_order(G, spec.seed, "adversary-avoider")  # ties draw scalar coins below
    for e in zip(us.tolist(), vs.tolist()):
        closed = {Colour.RED: 0, Colour.BLUE: 0}
        for copy_edges in by_edge[e]:
            colours = {assigned.get(other) for other in copy_edges if other != e}
            if len(colours) == 1:
                (only,) = colours
                if only is not None:
                    closed[only] += 1
        if closed[Colour.RED] < closed[Colour.BLUE]:
            pick = Colour.RED
        elif closed[Colour.BLUE] < closed[Colour.RED]:
            pick = Colour.BLUE
        else:
            pick = Colour.RED if coin.random() < 0.5 else Colour.BLUE
        assigned[e] = pick
    return assigned


# A triangle with a pendant edge: no automorphism reverses the pendant edge,
# so copies through a host edge are found only by pinning it both ways.
PAW = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
P3_PLUS_ISOLATED = Graph.from_edges(4, [(0, 1), (1, 2)])


REFERENCE_PATTERNS = ("k3", "p3", "p4", "c4", "k4", "matching-2", PAW, P3_PLUS_ISOLATED)
REFERENCE_IDS = ["k3", "p3", "p4", "c4", "k4", "matching-2", "paw", "p3+k1"]


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=8), st.sampled_from(REFERENCE_PATTERNS), st.integers(0, 2**32))
def test_copy_avoider_matches_reference(g, pattern, seed):
    spec = AdversarySpec("copy-avoider-greedy", {"pattern": pattern}, seed)
    assert colour_with(g, spec).colour == _reference_copy_avoider(g, spec)


@pytest.mark.parametrize("pattern", REFERENCE_PATTERNS, ids=REFERENCE_IDS)
def test_copy_avoider_matches_reference_on_complete_hosts(pattern):
    for n in range(5, 9):
        for seed in range(3):
            spec = AdversarySpec("copy-avoider-greedy", {"pattern": pattern}, seed)
            g = Graph.complete(n)
            assert colour_with(g, spec).colour == _reference_copy_avoider(g, spec)


@pytest.mark.parametrize("n", [30, 100])
@pytest.mark.parametrize("C", [0.5, 5.0])
def test_copy_avoider_matches_reference_on_random_hosts(n, C):
    p = threshold_probability(n, C, PatternStats.from_graph(pattern_by_name("k3")))
    for seed in (0, 1):
        host = sample_gnp(n, p, derive_seed("avoider-reference", n, C, seed))
        spec = AdversarySpec("copy-avoider-greedy", {}, seed)
        assert colour_with(host, spec).colour == _reference_copy_avoider(host, spec)


@pytest.mark.parametrize("pattern", REFERENCE_PATTERNS[1:], ids=REFERENCE_IDS[1:])
def test_closing_estimate_bounds_pinned_embeddings(pattern):
    pattern = _resolve_pattern(AdversarySpec("copy-avoider-greedy", {"pattern": pattern}))
    hosts = [Graph.complete(7)] + [
        sample_gnp(n, p, derive_seed("closing-estimate", n, p, seed))
        for n, p in ((10, 0.3), (12, 0.6)) for seed in range(3)
    ]
    for host in hosts:
        universe = (1 << host.n) - 1
        per_edge = _closing_estimate(host, pattern) // host.num_edges
        for u, v in host.edges:
            leaves = sum(
                1
                for a, b in pattern.edges
                for x, y in ((u, v), (v, u))
                for _ in iter_embeddings(host.adjacency, pattern, universe, pin=((a, x), (b, y)))
            )
            assert leaves <= per_edge


def _automorphisms(pattern: Graph) -> int:
    return sum(
        all(normalize_edge(perm[a], perm[b]) in pattern.edges for a, b in pattern.edges)
        for perm in permutations(range(pattern.n))
    )


@pytest.mark.parametrize("pattern", [PAW, "p4", "c4", "matching-2"], ids=["paw", "p4", "c4", "matching-2"])
def test_pinned_cost_is_automorphisms_times_closed_copies(pattern):
    """Without isolated vertices a copy is the image of ``|Aut(H)|`` embeddings, and the
    pinned searches list each embedding through uv once."""
    pattern = _resolve_pattern(AdversarySpec("copy-avoider-greedy", {"pattern": pattern}))
    aut = _automorphisms(pattern)
    assert aut > 1
    hosts = [Graph.complete(7)] + [
        sample_gnp(n, p, derive_seed("pinned-cost", n, p, seed))
        for n, p in ((10, 0.4), (12, 0.6)) for seed in range(2)
    ]
    for host in hosts:
        count = _closing_counter(host, pattern, float("inf"))
        by_edge = _reference_copies_by_edge(host, pattern)
        for u, v in host.edges:
            adj = list(host.adjacency)  # the other edges, uv not yet placed
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            without_uv = list(adj)
            assert count(adj, u, v) == aut * len(by_edge[(u, v)])
            assert adj == without_uv


@pytest.mark.parametrize("name", ADVERSARY_NAMES)
@pytest.mark.parametrize("pattern", ["k3", "c4"])
def test_every_adversary_colours_the_zero_vertex_graph(name, pattern):
    cg = colour_with(Graph(0), AdversarySpec(name, {"pattern": pattern}, 0))
    assert cg.n == 0 and cg.red_adjacency == cg.blue_adjacency == () and cg.colour == {}


def test_closing_estimate_admits_c4_at_n300():
    c4 = pattern_by_name("c4")
    host = sample_gnp(300, threshold_probability(300, 5.0, PatternStats.from_graph(c4)), 0)
    _closing_counter(host, c4, None)  # D^(k-2) at every later position gives 9.8e7, over budget


# Reference greedy loop: the loop as first written, which put each edge in
# both colours' masks, read both costs with the edge present and took it out
# of the dearer colour, drawing one scalar coin per tie.

def _reference_greedy(G: Graph, seed: int, label: str, cost) -> tuple[int, ...]:
    coin = philox_generator(derive_seed(label, seed))
    red, blue = [0] * G.n, [0] * G.n
    us, vs, _ = _visit_order(G, seed, label)
    for u, v in zip(us.tolist(), vs.tolist()):
        bu, bv = 1 << u, 1 << v
        red[u] |= bv
        red[v] |= bu
        blue[u] |= bv
        blue[v] |= bu
        cost_red, cost_blue = cost(red, u, v), cost(blue, u, v)
        tie_to_red = cost_red == cost_blue and coin.random() < 0.5
        drop = blue if cost_red < cost_blue or tie_to_red else red
        drop[u] ^= bv
        drop[v] ^= bu
    return tuple(red)


GREEDY_REFERENCES = {
    "majority-degree": (
        "adversary-majority",
        lambda adj, u, v: -adj[u].bit_count() - adj[v].bit_count(),
    ),
    "copy-avoider-greedy": ("adversary-avoider", lambda adj, u, v: (adj[u] & adj[v]).bit_count()),
}


def _assert_greedy_matches_reference(g: Graph, name: str, seed: int) -> None:
    label, cost = GREEDY_REFERENCES[name]
    cg = colour_with(g, AdversarySpec(name, {}, seed))
    assert cg.red_adjacency == _reference_greedy(g, seed, label, cost)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=12), st.sampled_from(sorted(GREEDY_REFERENCES)), st.integers(0, 2**32))
def test_greedy_matches_reference_loop(g, name, seed):
    _assert_greedy_matches_reference(g, name, seed)


# C=None is the complete host K_n, where every early edge is a tie.
@pytest.mark.parametrize("name", sorted(GREEDY_REFERENCES))
@pytest.mark.parametrize(
    "n, C", [(500, 0.5), (100, 5.0), (1500, 1.0)] + [(n, None) for n in range(9, 13)]
)
def test_greedy_matches_reference_loop_on_random_hosts(name, n, C):
    k3 = PatternStats.from_graph(pattern_by_name("k3"))
    for seed in (0, 1, 2):
        if C is None:
            host = Graph.complete(n)
        else:
            p = threshold_probability(n, C, k3)
            host = sample_gnp(n, p, derive_seed("greedy-reference", n, C, seed))
        _assert_greedy_matches_reference(host, name, seed)


@pytest.mark.parametrize("m", [0, 1, 7, 5000])
def test_bulk_coin_draw_equals_scalar_draws(m):
    seed = derive_seed("adversary-avoider", m)
    scalar = philox_generator(seed)
    assert philox_generator(seed).random(m).tolist() == [scalar.random() for _ in range(m)]


CLIQUES = ("k4", "k5", "k6")


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 12),
    st.sampled_from([0.3, 0.6, 0.9]),
    st.sampled_from(CLIQUES),
    st.integers(0, 2**32),
)
def test_clique_avoider_matches_reference(n, p, pattern, seed):
    g = sample_gnp(n, p, seed)
    spec = AdversarySpec("copy-avoider-greedy", {"pattern": pattern}, seed)
    assert colour_with(g, spec).colour == _reference_copy_avoider(g, spec)


@pytest.mark.parametrize("pattern", CLIQUES)
def test_clique_avoider_matches_reference_on_complete_hosts(pattern):
    for n in range(5, 10):
        for seed in range(2):
            spec = AdversarySpec("copy-avoider-greedy", {"pattern": pattern}, seed)
            g = Graph.complete(n)
            assert colour_with(g, spec).colour == _reference_copy_avoider(g, spec)


@pytest.mark.parametrize("pattern", CLIQUES)
def test_clique_estimate_bounds_iterations_and_old_estimate(pattern):
    clique = pattern_by_name(pattern)
    hosts = [Graph.complete(7)] + [
        sample_gnp(n, p, derive_seed("closing-estimate", n, p, seed))
        for n, p in ((10, 0.3), (12, 0.6), (30, 0.7)) for seed in range(3)
    ]
    for host in hosts:
        estimate = _clique_estimate(host, clique.n)
        assert estimate <= _closing_estimate(host, clique)
        count = _closing_counter(host, clique, float("inf"))
        for u, v in host.edges:
            adj = CountingMasks(host.adjacency)
            count(adj, u, v)
            # the cost reads adj[u] and adj[v] once, then one mask per loop iteration of its
            # recursion; each greedy edge counts twice, in colour masks that are subgraphs of the host
            assert 2 * (adj.reads - 2) <= estimate // host.num_edges


K34 = Graph.from_edges(7, [(a, b) for a in range(3) for b in range(3, 7)])


@pytest.mark.parametrize("host", [Graph.cycle(9), K34], ids=["c9", "k3,4"])
def test_clique_estimate_is_zero_without_triangles(host):
    for k in (4, 5, 6):
        assert _clique_estimate(host, k) == 0


def test_k4_avoider_admitted_at_n240():
    k4 = pattern_by_name("k4")
    host = sample_gnp(240, threshold_probability(240, 5.0, PatternStats.from_graph(k4)), 0)
    assert _clique_estimate(host, 4) <= DEFAULT_WORK_BUDGET < _closing_estimate(host, k4)
    cg = colour_with(host, AdversarySpec("copy-avoider-greedy", {"pattern": k4}, 0))
    assert set(cg.colour) == host.edges

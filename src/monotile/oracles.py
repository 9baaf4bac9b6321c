"""Brute-force ground truth for the fast paths, plus exact small-host solvers.

Everything here enumerates: copies come from combinations and permutations
rather than the backtracking matcher, 2-density from raw edge subsets, and
tiling numbers from exhaustive colouring sweeps with exact packing.  These
are the second route of every dual-route check in the test suite, so none
of it may call into the search code it validates.

Copy enumeration skips vertex subsets that span fewer host edges than the
pattern has, since no permutation of them can hold a copy.

Exhaustive colouring sweeps over complete hosts dedup colourings up to
relabelling through the networkx graph atlas (all isomorphism classes up to
seven vertices), read once per process; general hosts enumerate raw with a
colour-swap cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from typing import Iterable, Iterator, Mapping

import networkx as nx

from .budget import require_budget
from .graphs import Colour, ColouredGraph, Edge, Graph, iter_bits
from .patterns import PatternStats

#: Classical two-colour Ramsey numbers R(K_a, K_b) kept as reference fixtures.
RAMSEY_TABLE: Mapping[tuple[int, int], int] = {
    (3, 3): 6,
    (3, 4): 9,
    (3, 5): 14,
    (3, 6): 18,
    (4, 4): 18,
}


# ---------------------------------------------------------------------------
# Pattern statistics, the slow way
# ---------------------------------------------------------------------------

def m2_density_bruteforce(pattern: Graph) -> Fraction:
    """2-density via all edge subsets closed into their spanned subgraphs."""
    if pattern.n < 1:
        raise ValueError("pattern needs at least one vertex")
    if pattern.num_edges < 2:
        return Fraction(1, 2)
    edges = sorted(pattern.edges)
    best = Fraction(1, 2)
    for r in range(1, len(edges) + 1):
        for subset in combinations(edges, r):
            spanned = {v for e in subset for v in e}
            if len(spanned) >= 3:
                ratio = Fraction(len(subset) - 1, len(spanned) - 2)
                if ratio > best:
                    best = ratio
    return best


def independence_number_bruteforce(pattern: Graph) -> int:
    """Maximum independent set by checking every vertex subset, largest first."""
    verts = range(pattern.n)
    for size in range(pattern.n, 0, -1):
        for subset in combinations(verts, size):
            if all(e not in pattern.edges for e in combinations(subset, 2)):
                return size
    return 0


# ---------------------------------------------------------------------------
# Copy enumeration by combinations + permutations
# ---------------------------------------------------------------------------

def iter_copies_bruteforce(
    host_edges: frozenset[Edge],
    pattern: Graph,
    universe: Iterable[int],
) -> Iterator[tuple[tuple[int, ...], frozenset[Edge]]]:
    """All subgraph copies of ``pattern`` in the host, as (vertex set, edge set)."""
    verts = sorted(universe)
    pattern_edges = sorted(pattern.edges)
    need = len(pattern_edges)
    for subset in combinations(verts, pattern.n):
        # A copy maps the pattern's edges injectively onto host pairs inside subset.
        if len(host_edges.intersection(combinations(subset, 2))) < need:
            continue
        seen: set[frozenset[Edge]] = set()
        for perm in permutations(subset):
            mapped = []
            for u, v in pattern_edges:
                a, b = perm[u], perm[v]
                e = (a, b) if a < b else (b, a)
                if e not in host_edges:
                    break
                mapped.append(e)
            else:
                edge_set = frozenset(mapped)
                if edge_set not in seen:
                    seen.add(edge_set)
                    yield subset, edge_set


def mono_copy_count_bruteforce(
    G: ColouredGraph,
    H: PatternStats,
    colour: Colour,
    universe: Iterable[int] | None = None,
) -> int:
    """Monochromatic subgraph-copy count via raw enumeration."""
    verts = range(G.n) if universe is None else universe
    edges = G.edges_of_colour(colour)
    return sum(1 for _ in iter_copies_bruteforce(edges, H.pattern, verts))


def _count_good_copies(
    G: ColouredGraph,
    H: PatternStats,
    red_side: frozenset[int],
    blue_side: frozenset[int],
    universe: Iterable[int],
) -> int:
    count = 0
    for colour, side in ((Colour.RED, red_side), (Colour.BLUE, blue_side)):
        edges = G.edges_of_colour(colour)
        for subset, _ in iter_copies_bruteforce(edges, H.pattern, universe):
            if len(side.intersection(subset)) >= H.alpha:
                count += 1
    return count


def good_copy_count(
    G: ColouredGraph,
    H: PatternStats,
    A: Iterable[int],
    B: Iterable[int],
    budget: float | None = None,
) -> int:
    """Exact count of copies that are red meeting ``A`` or blue meeting ``B``.

    ``A`` and ``B`` must partition the host's vertices.  Balance is the
    setting of interest for supersaturation but is not enforced: the
    colour/side symmetry sweeps need odd hosts too.
    """
    a_set, b_set = frozenset(A), frozenset(B)
    if a_set & b_set or a_set | b_set != frozenset(range(G.n)):
        raise ValueError("A and B must partition the host vertex set")
    require_budget(float(G.n) ** H.k, budget, "good-copy enumeration")
    return _count_good_copies(G, H, a_set, b_set, range(G.n))


def good_copy_witness_count(
    G: ColouredGraph,
    H: PatternStats,
    X: Iterable[int],
    Y: Iterable[int],
) -> int:
    """Witness count for a pair of disjoint sets, restricted to their union."""
    x_set, y_set = frozenset(X), frozenset(Y)
    if x_set & y_set:
        raise ValueError("X and Y must be disjoint")
    return _count_good_copies(G, H, x_set, y_set, sorted(x_set | y_set))


# ---------------------------------------------------------------------------
# Exhaustive colouring sweeps
# ---------------------------------------------------------------------------

def is_complete_host(G: Graph) -> bool:
    return G.num_edges == G.n * (G.n - 1) // 2


@cache
def _atlas() -> dict[int, tuple[Graph, ...]]:
    """The networkx atlas, parsed once per process, grouped by order in atlas order."""
    by_order: dict[int, list[Graph]] = {}
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        by_order.setdefault(n, []).append(Graph.from_edges(n, g.edges()))
    return {n: tuple(graphs) for n, graphs in by_order.items()}


def atlas_graphs(n: int) -> list[Graph]:
    """All graphs on ``n`` vertices up to isomorphism (atlas ceiling: 7)."""
    if n > 7:
        raise ValueError("the graph atlas stops at 7 vertices")
    return list(_atlas().get(n, ()))


def iter_colourings(G: Graph, budget: float | None = None, reduce: bool = True):
    """Yield 2-colourings of the host's edges.

    With ``reduce`` (the default), complete hosts on up to 7 vertices yield
    one representative per isomorphism class of the red graph, and other
    hosts fix the first edge red to cut the global colour swap; both
    reductions preserve colour-swap- and relabelling-invariant predicates
    (tiling numbers, richness).  With ``reduce=False`` every one of the
    ``2^e`` colourings appears.
    """
    edges = sorted(G.edges)
    if reduce and is_complete_host(G) and G.n <= 7:
        for red_graph in atlas_graphs(G.n):
            yield ColouredGraph.from_masks(G, red_graph.adjacency)
        return
    if not edges:
        yield ColouredGraph(G, {})
        return
    fixed = 1 if reduce else 0
    require_budget(2.0 ** (len(edges) - fixed), budget, "colouring enumeration")
    for bits in range(2 ** (len(edges) - fixed)):
        colour = {}
        if reduce:
            colour[edges[0]] = Colour.RED
        for i, e in enumerate(edges[fixed:]):
            colour[e] = Colour.RED if (bits >> i) & 1 else Colour.BLUE
        yield ColouredGraph(G, colour)


def max_disjoint_copies(copy_masks: list[int], k: int) -> int:
    """Largest number of pairwise vertex-disjoint copies, by branch and bound."""
    masks = sorted(set(copy_masks))
    best = 0

    def branch(index: int, used: int, size: int) -> None:
        nonlocal best
        if size + (len(masks) - index) <= best:
            return
        for i in range(index, len(masks)):
            m = masks[i]
            if m & used:
                continue
            branch(i + 1, used | m, size + 1)
        if size > best:
            best = size
    branch(0, 0, 0)
    return best


def max_mono_tiling_size(G: ColouredGraph, H: PatternStats, colour: Colour) -> int:
    masks = []
    seen = set()
    edges = G.edges_of_colour(colour)
    for subset, _ in iter_copies_bruteforce(edges, H.pattern, range(G.n)):
        m = 0
        for v in subset:
            m |= 1 << v
        if m not in seen:
            seen.add(m)
            masks.append(m)
    return max_disjoint_copies(masks, H.k)


@dataclass(frozen=True)
class RtResult:
    """Exact value or a certified bracket for the tiling Ramsey number."""

    lower: int
    upper: int
    exact: bool
    colourings_checked: int
    mode: str

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError("enumeration was cut short; only the bracket is certified")
        return self.upper


def exact_rt(H: PatternStats, G: Graph, budget: float | None = None) -> RtResult:
    """Smallest over all 2-colourings of the largest monochromatic tiling.

    On budget exhaustion the result degrades to a certified bracket: the
    upper end is the worst colouring seen, the lower end stays at the
    trivial zero rather than guessing.
    """
    atlas_mode = is_complete_host(G) and G.n <= 7
    best_upper = G.n // max(H.k, 1)
    checked = 0
    spent = 0.0
    limit = float("inf") if budget is None else budget
    per_colouring = max(1.0, float(G.n) ** H.k)  # copy enumeration dominates
    exhausted = False
    for coloured in iter_colourings(G, budget=float("inf")):
        if spent + per_colouring > limit:
            exhausted = True
            break
        spent += per_colouring
        checked += 1
        size = max(
            max_mono_tiling_size(coloured, H, Colour.RED),
            max_mono_tiling_size(coloured, H, Colour.BLUE),
        )
        best_upper = min(best_upper, size)
        if best_upper == 0:
            break  # nothing can go lower
    mode = "atlas" if atlas_mode else "raw"
    if exhausted:
        return RtResult(lower=0, upper=best_upper, exact=False, colourings_checked=checked, mode=mode)
    return RtResult(
        lower=best_upper, upper=best_upper, exact=True, colourings_checked=checked, mode=mode
    )


# ---------------------------------------------------------------------------
# Richness decisions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RichnessCounterexample:
    colouring: Mapping[Edge, Colour]
    X: frozenset[int]
    Y: frozenset[int]


@dataclass(frozen=True)
class RichnessVerdict:
    """``rich`` is definitive in exhaustive mode; in sampled mode only a found
    counterexample is definitive (``rich=False``), otherwise ``rich=None``."""

    rich: bool | None
    mode: str
    trials: int
    counterexample: RichnessCounterexample | None = None


def iter_disjoint_pairs(n: int, s: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    for xs in combinations(range(n), s):
        rest = [v for v in range(n) if v not in xs]
        for ys in combinations(rest, s):
            yield xs, ys


def richness_decide(
    G_template: Graph,
    H: PatternStats,
    s: int,
    budget: float | None = None,
    samples: int = 200,
    seed: int = 0,
) -> RichnessVerdict:
    """Decide (or sample) whether every colouring serves every disjoint s-set pair."""
    if s < 1:
        raise ValueError("s must be positive")
    n = G_template.n
    pairs = list(iter_disjoint_pairs(n, s))
    if not pairs:
        return RichnessVerdict(rich=True, mode="vacuous", trials=0)

    atlas_mode = is_complete_host(G_template) and n <= 7
    colouring_count = (
        len(atlas_graphs(n)) if atlas_mode else 2.0 ** max(G_template.num_edges - 1, 0)
    )
    limit = float("inf") if budget is None else budget
    work = colouring_count * len(pairs) * (float(n) ** H.k)

    if atlas_mode or work <= limit:
        trials = 0
        for coloured in iter_colourings(G_template, budget=limit):
            for xs, ys in pairs:
                trials += 1
                if good_copy_witness_count(coloured, H, xs, ys) == 0:
                    return RichnessVerdict(
                        rich=False,
                        mode="exhaustive",
                        trials=trials,
                        counterexample=RichnessCounterexample(
                            dict(coloured.colour), frozenset(xs), frozenset(ys)
                        ),
                    )
        return RichnessVerdict(rich=True, mode="exhaustive", trials=trials)

    # Sampled mode: adversarial colourings first, then uniform random ones.
    from .adversaries import AdversarySpec, colour_with
    from .sampling import derive_seed, philox_generator

    rng = philox_generator(derive_seed("richness-sample", seed))
    specs = [
        AdversarySpec("copy-avoider-greedy", {"pattern": H.pattern}, seed),
        AdversarySpec("planted-partition", {}, seed),
        AdversarySpec("majority-degree", {}, seed),
    ]
    trials = 0
    for trial in range(samples):
        if trial < len(specs):
            coloured = colour_with(G_template, specs[trial])
        else:
            coloured = colour_with(
                G_template, AdversarySpec("uniform-random", {}, derive_seed(seed, trial))
            )
        for _ in range(min(len(pairs), 20)):
            idx = int(rng.integers(len(pairs)))
            xs, ys = pairs[idx]
            trials += 1
            if good_copy_witness_count(coloured, H, xs, ys) == 0:
                return RichnessVerdict(
                    rich=False,
                    mode="sampled",
                    trials=trials,
                    counterexample=RichnessCounterexample(
                        dict(coloured.colour), frozenset(xs), frozenset(ys)
                    ),
                )
    return RichnessVerdict(rich=None, mode="sampled", trials=trials)


# ---------------------------------------------------------------------------
# Clique counting and supersaturation
# ---------------------------------------------------------------------------

def count_cliques(G: Graph, r: int, budget: float | None = None) -> int:
    """Number of ``r``-cliques, by ordered bitset extension."""
    if r < 1:
        raise ValueError("clique order must be positive")
    require_budget(float(G.n) ** min(r, 3), budget, "clique enumeration")
    adj = G.adjacency
    count = 0

    def extend(cand: int, depth: int) -> None:
        # depth vertices are fixed so far; candidates extend them upward.
        nonlocal count
        if depth == r - 1:
            count += cand.bit_count()
            return
        for v in iter_bits(cand):
            extend(cand & adj[v] & ~((1 << (v + 1)) - 1), depth + 1)

    if r == 1:
        return G.n
    extend((1 << G.n) - 1, 0)
    return count


@dataclass(frozen=True)
class SupersatReport:
    count: int
    R: int
    t: int | None
    hypothesis_met: bool
    bound: float | None
    meets_bound: bool | None


def densest_t(G: Graph) -> int:
    """Largest integer ``t`` with ``e(G) >= (1 - 1/t) * n^2 / 2``."""
    n, e = G.n, G.num_edges
    gap = n * n - 2 * e
    if gap <= 0:
        raise AssertionError("simple graphs always leave a diagonal gap")
    return (n * n) // gap


def clique_supersat_count(
    G: Graph, R: int, t: int | None = None, budget: float | None = None
) -> SupersatReport:
    """Exact clique count against the dense-graph supersaturation lower bound.

    The bound ``binom(t, R) * (n/t)^R`` (Lovász–Simonovits) applies whenever
    ``e(G) >= (1 - 1/t) * n^2 / 2`` and ``t >= R >= 3``; outside that regime
    the count is still returned with the hypothesis flagged unmet.
    """
    if R < 3:
        raise ValueError("clique order below 3 is outside the supersaturation regime")
    count = count_cliques(G, R, budget)
    n = G.n
    t_used = densest_t(G) if t is None else t
    dense_enough = Fraction(G.num_edges) >= (1 - Fraction(1, t_used)) * Fraction(n * n, 2)
    hypothesis = t_used >= R and dense_enough
    if not hypothesis:
        return SupersatReport(count, R, t_used, False, None, None)
    from math import comb

    bound_exact_num = comb(t_used, R) * n**R  # bound = num / t^R
    meets = count * t_used**R >= bound_exact_num
    bound = comb(t_used, R) * (n / t_used) ** R
    return SupersatReport(count, R, t_used, True, bound, meets)

"""Brute-force ground truth for the fast paths, plus exact small-host solvers.

Everything here enumerates: copies come from combinations and permutations
rather than the backtracking matcher, 2-density from raw edge subsets, and
tiling numbers from exhaustive colouring sweeps with exact packing.  These
are the second route of every dual-route check in the test suite, so none
of it may call into the search code it validates.

Copy enumeration reads host adjacency masks.  The pattern's permutations
are swept once per pattern, into its distinct edge images over position
pairs; each vertex subset then reads its present pairs from the masks, is
skipped when they are fewer than the pattern's edges, and holds exactly the
images inside them.  A host coloured more than once is swept once per
pattern, into a table of ``(vertex mask, pair mask)`` entries kept as long
as the host lives; a pair mask sets one bit per edge, pairs ``u < v``
numbered in lexicographic order.  A colour class is read once into its own
pair mask, and its copies are the entries it covers, in the order a sweep of
the class alone lists them.  The colouring sweep of ``exact_rt`` and the
container hypergraph read the table of their host; the good-copy and tiling
oracles list a colouring's red and blue copies once, as vertex masks kept as
long as the colouring lives, by sweeping its two colour classes for a host's
first colouring and from the host's table for later ones, and filter those
lists for every side pair they are asked about.

Exhaustive colouring sweeps over complete hosts dedup colourings up to
relabelling through the networkx graph atlas (all isomorphism classes up to
seven vertices), read once per process; general hosts enumerate raw with a
colour-swap cut.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from typing import Iterable, Iterator, Mapping

import networkx as nx

from .budget import require_budget
from .graphs import Colour, ColouredGraph, Edge, Graph, Masks, iter_bits, mask_of
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

@cache
def _pattern_images(pattern: Graph) -> tuple[int, ...]:
    """The pattern's distinct edge images under permutations of its positions.

    Position pairs ``i < j`` are numbered in ``combinations(range(k), 2)``
    order and an image is the bitmask of the pairs it covers; images are
    kept in the order their first permutation reaches them.
    """
    index = {pair: bit for bit, pair in enumerate(combinations(range(pattern.n), 2))}
    edges = sorted(pattern.edges)
    images: dict[int, None] = {}
    for perm in permutations(range(pattern.n)):
        image = 0
        for u, v in edges:
            a, b = perm[u], perm[v]
            image |= 1 << index[(a, b) if a < b else (b, a)]
        images.setdefault(image)
    return tuple(images)


def _iter_subset_images(
    host_adjacency: Masks, pattern: Graph, universe: Iterable[int]
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """``(subset, images)`` for every subset that holds a copy, with the images
    it holds: the subset's present position pairs are read from the host
    masks once, then every image inside them is a copy."""
    images = _pattern_images(pattern)
    need = images[0].bit_count()
    pairs = tuple((1 << bit, i, j) for bit, (i, j) in enumerate(combinations(range(pattern.n), 2)))
    for subset in combinations(sorted(universe), pattern.n):
        present = 0
        for pair_bit, i, j in pairs:
            if host_adjacency[subset[i]] >> subset[j] & 1:
                present |= pair_bit
        if present.bit_count() < need:
            continue
        held = [image for image in images if image & present == image]
        if held:
            yield subset, held


def iter_copies_bruteforce(
    host_adjacency: Masks,
    pattern: Graph,
    universe: Iterable[int],
) -> Iterator[tuple[tuple[int, ...], frozenset[Edge]]]:
    """All subgraph copies of ``pattern`` in the host, as (vertex set, edge set).

    Subsets come in ``combinations`` order and, within one, edge sets in the
    order a sweep of its vertex permutations first reaches them.  Whether an
    image is present depends only on the image, so filtering the pattern's
    images keeps that order.
    """
    pairs = tuple(combinations(range(pattern.n), 2))
    positions = {
        image: tuple(pair for bit, pair in enumerate(pairs) if image >> bit & 1)
        for image in _pattern_images(pattern)
    }
    for subset, held in _iter_subset_images(host_adjacency, pattern, universe):
        for image in held:
            yield subset, frozenset((subset[i], subset[j]) for i, j in positions[image])


def mono_copy_count_bruteforce(
    G: ColouredGraph,
    H: PatternStats,
    colour: Colour,
    universe: Iterable[int] | None = None,
) -> int:
    """Monochromatic subgraph-copy count via raw enumeration."""
    verts = range(G.n) if universe is None else universe
    return sum(len(held) for _, held in _iter_subset_images(G.adjacency_for(colour), H.pattern, verts))


def pair_mask(adjacency: Masks) -> int:
    """The edges of ``adjacency`` as one mask over the pairs ``u < v``, numbered
    in lexicographic order: row ``u`` starts at bit ``u*(2n-u-1)/2``."""
    n = len(adjacency)
    pm = 0
    for u, m in enumerate(adjacency):
        pm |= (m >> (u + 1)) << (u * (2 * n - u - 1) // 2)
    return pm


# Per host graph, its copies of each pattern as (vertex mask, pair mask), one
# entry per copy, or None while only one colouring of the host has listed its
# copies.  Weak keys: a table lives exactly as long as its host.
_HOST_COPIES: weakref.WeakKeyDictionary[Graph, dict[Graph, tuple[tuple[int, int], ...] | None]] = (
    weakref.WeakKeyDictionary()
)


def host_copies(host: Graph, pattern: Graph) -> tuple[tuple[int, int], ...]:
    """``(vertex mask, pair mask)`` of every copy of ``pattern`` in ``host``, in
    ``iter_copies_bruteforce`` order, enumerated once per host and pattern."""
    tables = _HOST_COPIES.setdefault(host, {})
    table = tables.get(pattern)
    if table is None:
        n = host.n
        positions = tuple(combinations(range(pattern.n), 2))
        image_pairs = {
            image: tuple(bit for bit in range(len(positions)) if image >> bit & 1)
            for image in _pattern_images(pattern)
        }
        start = [u * (2 * n - u - 1) // 2 - u - 1 for u in range(n)]  # pair (u, v) is bit start[u] + v
        listed: list[tuple[int, int]] = []
        for subset, held in _iter_subset_images(host.adjacency, pattern, range(n)):
            vm = mask_of(subset)
            bits = [1 << (start[subset[i]] + subset[j]) for i, j in positions]
            for image in held:
                em = 0
                for bit in image_pairs[image]:
                    em |= bits[bit]
                listed.append((vm, em))
        table = tables[pattern] = tuple(listed)
    return table


def _covered(table: tuple[tuple[int, int], ...], pm: int) -> list[int]:
    """Vertex masks of the table's copies whose edges all lie in ``pm``."""
    return [vm for vm, em in table if pm & em == em]


def _swept(adjacency: Masks, pattern: Graph) -> tuple[int, ...]:
    """Vertex masks of the copies of ``pattern`` in ``adjacency``, by its own sweep."""
    listed: list[int] = []
    for subset, held in _iter_subset_images(adjacency, pattern, range(len(adjacency))):
        listed += [mask_of(subset)] * len(held)
    return tuple(listed)


# Per colouring, the vertex masks of its red and its blue copies of each
# pattern, one entry per copy.  Weak keys: an entry lives exactly as long as
# its colouring.
_COPY_MASKS: weakref.WeakKeyDictionary[ColouredGraph, dict[Graph, tuple[tuple[int, ...], tuple[int, ...]]]] = (
    weakref.WeakKeyDictionary()
)


def _copy_masks(G: ColouredGraph, pattern: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Vertex masks of every red and of every blue copy of ``pattern`` in ``G``,
    listed once per colouring.  The first colouring of a host sweeps its two
    colour classes; later ones filter the host's table, built on the second."""
    memo = _COPY_MASKS.get(G)
    if memo is None:
        memo = _COPY_MASKS[G] = {}
    masks = memo.get(pattern)
    if masks is None:
        tables = _HOST_COPIES.setdefault(G.graph, {})
        if pattern in tables:
            table = host_copies(G.graph, pattern)
            masks = (
                tuple(_covered(table, pair_mask(G.red_adjacency))),
                tuple(_covered(table, pair_mask(G.blue_adjacency))),
            )
        else:
            tables[pattern] = None
            masks = (_swept(G.red_adjacency, pattern), _swept(G.blue_adjacency, pattern))
        memo[pattern] = masks
    return masks


def _count_good_copies(G: ColouredGraph, H: PatternStats, red_side: int, blue_side: int) -> int:
    """Copies inside ``red_side | blue_side`` that are red with at least alpha
    vertices in ``red_side`` or blue with at least alpha in ``blue_side``."""
    universe = red_side | blue_side
    alpha = H.alpha
    count = 0
    for masks, side in zip(_copy_masks(G, H.pattern), (red_side, blue_side)):
        for m in masks:
            if m & universe == m and (m & side).bit_count() >= alpha:
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
    return _count_good_copies(G, H, mask_of(a_set), mask_of(b_set))


def good_copy_witness_count(
    G: ColouredGraph,
    H: PatternStats,
    X: Iterable[int],
    Y: Iterable[int],
) -> int:
    """Witness count for a pair of disjoint sets, restricted to their union."""
    x_mask, y_mask = mask_of(X), mask_of(Y)
    if x_mask & y_mask:
        raise ValueError("X and Y must be disjoint")
    return _count_good_copies(G, H, x_mask, y_mask)


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


def max_disjoint_copies(copy_masks: Iterable[int], k: int, stop: int | None = None) -> int:
    """Largest number of pairwise vertex-disjoint ``k``-vertex copies, by branch
    and bound: a branch is cut when its copies left to try, or its covered
    vertices left unused split into ``k``-sets, cannot beat the best found.
    With ``stop``, the search ends at the first ``stop`` disjoint copies and
    returns ``stop``, a lower bound on the largest number."""
    masks = sorted(set(copy_masks))
    covered = 0
    for m in masks:
        covered |= m
    goal = len(masks) if stop is None else stop
    best = 0

    def branch(index: int, used: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if best >= goal or size + min(len(masks) - index, (covered & ~used).bit_count() // k) <= best:
            return
        for i in range(index, len(masks)):
            m = masks[i]
            if m & used:
                continue
            branch(i + 1, used | m, size + 1)
            if best >= goal:
                return
    branch(0, 0, 0)
    return best


def max_mono_tiling_size(G: ColouredGraph, H: PatternStats, colour: Colour) -> int:
    red, blue = _copy_masks(G, H.pattern)
    return max_disjoint_copies(red if colour is Colour.RED else blue, H.k)


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
    table = host_copies(G, H.pattern) if per_colouring <= limit else ()  # no table past the budget
    for coloured in iter_colourings(G, budget=float("inf")):
        if spent + per_colouring > limit:
            exhausted = True
            break
        spent += per_colouring
        checked += 1
        # A colour whose search reaches best_upper cannot lower it: stop there.
        red = max_disjoint_copies(_covered(table, pair_mask(coloured.red_adjacency)), H.k, best_upper)
        if red < best_upper:
            blue = max_disjoint_copies(_covered(table, pair_mask(coloured.blue_adjacency)), H.k, best_upper)
            best_upper = max(red, blue)
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

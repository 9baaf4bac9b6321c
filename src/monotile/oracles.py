"""Brute-force ground truth for the fast paths, plus exact small-host solvers.

Everything here enumerates: copies come from combinations and permutations
rather than the backtracking matcher, 2-density from raw edge subsets, and
tiling numbers from exhaustive colouring sweeps with exact packing.  These
are the second route of every dual-route check in the test suite, so none
of it may call into the search code it validates.

Copy enumeration reads host adjacency masks.  The pattern's permutations
are swept once per pattern, into its distinct edge images over position
pairs, each decoded once into its position pairs for every reader; each
vertex subset then reads its present pairs from the masks, is skipped when
they are fewer than the pattern's edges, and holds exactly the images inside
them.  The good-copy and tiling oracles sweep each colour class
of a colouring once per pattern, into the vertex masks of its copies, keep
them in the colouring's own instance dict, so they die with it, and filter
those lists for every side pair they are asked about.  ``exact_rt`` on an
atlas host lists the host's copies once per call as ``(vertex mask, pair
mask)`` entries, a pair mask setting one bit per edge, pairs ``u < v``
numbered in lexicographic order (at most 21 bits on seven vertices), and
keeps the entries whose edges a colour class covers; on other hosts it
sweeps each colour class of each colouring.  None of ``exact_rt``'s tables
outlives the call that built it.  ``richness_decide`` counts its side pairs
and unranks each sampled one, so it never lists them all.  ``count_cliques``
runs the ordered clique extension ``graphs._cliques``, which the copy-avoider
also runs; no check compares the two.

Exhaustive colouring sweeps over complete hosts dedup colourings up to
relabelling through the graph atlas (all isomorphism classes up to seven
vertices, in the order and labelling of ``networkx.graph_atlas_g()``).  The
atlas is the checked-in table ``atlas.txt`` next to this module, read once per
process: one line per graph, its order and its pair mask in hex, written by
``scripts/build_atlas_table.py``.  General hosts enumerate raw with a
colour-swap cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import comb
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .budget import require_budget, work_limit
from .graphs import Colour, ColouredGraph, Edge, Graph, Masks, _cliques, disjoint_side_masks, iter_bits, mask_of
from .patterns import PatternStats


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
def _image_pairs(pattern: Graph) -> tuple[tuple[Edge, ...], dict[int, tuple[Edge, ...]]]:
    """The position pairs, and the pattern's distinct edge images under
    permutations of its positions, each with the pairs it covers.

    Position pairs ``i < j`` are numbered in ``combinations(range(k), 2)``
    order and an image is the bitmask of the pairs it covers, decoded into
    those pairs in that order; images are kept in the order their first
    permutation reaches them.
    """
    pairs = tuple(combinations(range(pattern.n), 2))
    index = {pair: bit for bit, pair in enumerate(pairs)}
    edges = sorted(pattern.edges)
    decoded: dict[int, tuple[Edge, ...]] = {}
    for perm in permutations(range(pattern.n)):
        image = 0
        for u, v in edges:
            a, b = perm[u], perm[v]
            image |= 1 << index[(a, b) if a < b else (b, a)]
        if image not in decoded:
            decoded[image] = tuple(p for bit, p in enumerate(pairs) if image >> bit & 1)
    return pairs, decoded


def _iter_subset_images(
    host_adjacency: Masks, pattern: Graph, universe: Iterable[int]
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """``(subset, images)`` for every subset that holds a copy, with the images
    it holds: the subset's present position pairs are read from the host
    masks once, then every image inside them is a copy."""
    positions, decoded = _image_pairs(pattern)
    images = tuple(decoded)
    need = images[0].bit_count()
    pairs = tuple((1 << bit, i, j) for bit, (i, j) in enumerate(positions))
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
    decoded = _image_pairs(pattern)[1]
    for subset, held in _iter_subset_images(host_adjacency, pattern, universe):
        for image in held:
            yield subset, frozenset((subset[i], subset[j]) for i, j in decoded[image])


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


def host_copies(host: Graph, pattern: Graph) -> tuple[tuple[int, int], ...]:
    """``(vertex mask, pair mask)`` of every copy of ``pattern`` in ``host``, in
    ``iter_copies_bruteforce`` order."""
    n = host.n
    decoded = _image_pairs(pattern)[1]
    start = [u * (2 * n - u - 1) // 2 - u - 1 for u in range(n)]  # pair (u, v) is bit start[u] + v
    listed: list[tuple[int, int]] = []
    for subset, held in _iter_subset_images(host.adjacency, pattern, range(n)):
        vm = mask_of(subset)
        for image in held:
            em = 0
            for i, j in decoded[image]:
                em |= 1 << (start[subset[i]] + subset[j])
            listed.append((vm, em))
    return tuple(listed)


def _covered(table: tuple[tuple[int, int], ...], pm: int) -> list[int]:
    """Vertex masks of the table's copies whose edges all lie in ``pm``."""
    return [vm for vm, em in table if pm & em == em]


def _swept(adjacency: Masks, pattern: Graph) -> tuple[int, ...]:
    """Vertex masks of the copies of ``pattern`` in ``adjacency``, by its own sweep."""
    listed: list[int] = []
    for subset, held in _iter_subset_images(adjacency, pattern, range(len(adjacency))):
        listed += [mask_of(subset)] * len(held)
    return tuple(listed)


def _copy_masks(G: ColouredGraph, pattern: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Vertex masks of every red and of every blue copy of ``pattern`` in ``G``,
    each colour class swept once per colouring.  The lists are kept per pattern in the
    colouring's instance dict, as ``cached_property`` keeps a view: they live as long as it."""
    memo = G.__dict__.setdefault("_oracle_copy_masks", {})
    masks = memo.get(pattern)
    if masks is None:
        masks = memo[pattern] = (_swept(G.red_adjacency, pattern), _swept(G.blue_adjacency, pattern))
    return masks


def _count_good_copies(G: ColouredGraph, H: PatternStats, red_side: int, blue_side: int) -> int:
    """Copies inside ``red_side | blue_side`` that are red with at least alpha
    vertices in ``red_side`` or blue with at least alpha in ``blue_side``."""
    universe = red_side | blue_side
    red, blue = _copy_masks(G, H.pattern)
    alpha = H.alpha
    count = 0
    for m in red:
        if m & universe == m and (m & red_side).bit_count() >= alpha:
            count += 1
    for m in blue:
        if m & universe == m and (m & blue_side).bit_count() >= alpha:
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
    """Witness count for a pair of disjoint vertex sets of the host, restricted to their union."""
    x_mask, y_mask = disjoint_side_masks(G.n, X, Y)
    return _count_good_copies(G, H, x_mask, y_mask)


# ---------------------------------------------------------------------------
# Exhaustive colouring sweeps
# ---------------------------------------------------------------------------

def is_complete_host(G: Graph) -> bool:
    return G.num_edges == G.n * (G.n - 1) // 2


_ATLAS_CEILING = 7  # the atlas table's largest order
_SAMPLED_COLOURINGS = 200  # colourings a sampled richness_decide draws


def _atlas_host(G: Graph) -> bool:
    return G.n <= _ATLAS_CEILING and is_complete_host(G)


def _read_atlas_table() -> str:
    return (Path(__file__).parent / "atlas.txt").read_text()


@cache
def _atlas() -> dict[int, tuple[Graph, ...]]:
    """The atlas table, read once per process, grouped by order in atlas order.

    A line ``n mask`` is the graph on ``n`` vertices whose edges are the pairs
    of ``combinations(range(n), 2)`` at the set bits of the hex ``mask``.
    """
    pairs = [tuple(combinations(range(n), 2)) for n in range(_ATLAS_CEILING + 1)]
    by_order: dict[int, list[Graph]] = {}
    for line in _read_atlas_table().splitlines():
        order, hex_mask = line.split()
        n = int(order)
        adjacency = [0] * n
        for bit in iter_bits(int(hex_mask, 16)):
            u, v = pairs[n][bit]
            adjacency[u] |= 1 << v
            adjacency[v] |= 1 << u
        by_order.setdefault(n, []).append(Graph.from_adjacency(n, tuple(adjacency)))
    return {n: tuple(graphs) for n, graphs in by_order.items()}


def atlas_graphs(n: int) -> list[Graph]:
    """All graphs on ``n`` vertices up to isomorphism (the atlas holds orders up to 7)."""
    if n > _ATLAS_CEILING:
        raise ValueError(f"the graph atlas stops at {_ATLAS_CEILING} vertices")
    return list(_atlas().get(n, ()))


def iter_colourings(G: Graph):
    """Yield 2-colourings of the host's edges, up to colour swap.

    Complete hosts on up to 7 vertices yield one representative per
    isomorphism class of the red graph, and other hosts fix the first edge
    red to cut the global colour swap; both reductions preserve
    colour-swap- and relabelling-invariant predicates (tiling numbers,
    richness).  It charges no budget: callers stop it or price its
    ``2**(m-1)`` colourings first.
    """
    if _atlas_host(G):
        for red_graph in atlas_graphs(G.n):
            yield ColouredGraph.from_masks(G, red_graph.adjacency)
        return
    us, vs = (a.tolist() for a in G.edge_pairs)
    if not us:
        yield ColouredGraph.from_masks(G, G.adjacency)
        return
    for bits in range(2 ** (len(us) - 1)):
        red = [0] * G.n
        for i in iter_bits(bits << 1 | 1):  # bit 0: the first edge, always red
            red[us[i]] |= 1 << vs[i]
            red[vs[i]] |= 1 << us[i]
        yield ColouredGraph.from_masks(G, tuple(red))


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

    On budget exhaustion (``None`` is the default budget) the result
    degrades to a certified bracket: the upper end is the worst colouring
    seen, the lower end stays at the trivial zero rather than guessing.
    """
    atlas_mode = _atlas_host(G)
    best_upper = G.n // max(H.k, 1)
    checked, spent, exhausted = 0, 0.0, False
    limit = work_limit(budget)
    per_colouring = max(1.0, float(G.n) ** H.k)  # copy enumeration dominates
    # Atlas hosts (pair masks of at most 21 bits) filter one table of their
    # copies; raw hosts sweep each colour class, the work per_colouring charges.
    table = host_copies(G, H.pattern) if atlas_mode else None

    def copies(adjacency: Masks) -> Iterable[int]:
        return _swept(adjacency, H.pattern) if table is None else _covered(table, pair_mask(adjacency))

    for coloured in iter_colourings(G):
        if spent + per_colouring > limit:
            exhausted = True
            break
        spent += per_colouring
        checked += 1
        # A colour whose search reaches best_upper cannot lower it: stop there.
        red = max_disjoint_copies(copies(coloured.red_adjacency), H.k, best_upper)
        if red < best_upper:
            blue = max_disjoint_copies(copies(coloured.blue_adjacency), H.k, best_upper)
            best_upper = max(red, blue)
        if best_upper == 0:
            break  # nothing can go lower
    lower = 0 if exhausted else best_upper
    return RtResult(lower, best_upper, not exhausted, checked, "atlas" if atlas_mode else "raw")


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


def _nth_combination(pool: list[int], r: int, index: int) -> tuple[int, ...]:
    """The ``index``-th of ``combinations(pool, r)``, counted from 0."""
    n, c, picked = len(pool), comb(len(pool), r), []
    while r:
        c, n, r = c * r // n, n - 1, r - 1  # c: the combinations that pick pool[-1 - n] next
        while index >= c:
            index -= c
            c, n = c * (n - r) // n, n - 1
        picked.append(pool[-1 - n])
    return tuple(picked)


def _nth_disjoint_pair(n: int, s: int, index: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ``index``-th pair of ``iter_disjoint_pairs(n, s)``, without listing those before it."""
    x_index, y_index = divmod(index, comb(n - s, s))
    xs = _nth_combination(list(range(n)), s, x_index)
    return xs, _nth_combination([v for v in range(n) if v not in xs], s, y_index)


def richness_decide(
    G_template: Graph,
    H: PatternStats,
    s: int,
    budget: float | None = None,
) -> RichnessVerdict:
    """Decide (or sample) whether every colouring serves every disjoint s-set pair.

    Non-atlas hosts are sampled when the exhaustive work estimate exceeds
    the budget (``None`` is the default budget): ``_SAMPLED_COLOURINGS`` (200)
    colourings at seed 0, adversarial ones first, each with up to 20 pairs.
    """
    if not isinstance(s, int) or s < 1:
        raise ValueError(f"s must be a positive int, not {s!r}")
    n = G_template.n
    pair_count = comb(n, s) * comb(n - s, s) if 2 * s <= n else 0  # iter_disjoint_pairs' length
    if not pair_count:
        return RichnessVerdict(rich=True, mode="vacuous", trials=0)

    atlas_mode = _atlas_host(G_template)
    colouring_count = len(atlas_graphs(n)) if atlas_mode else 2 ** max(G_template.num_edges - 1, 0)
    limit = work_limit(budget)
    work = colouring_count * pair_count * n**H.k  # exact: past 1,024 edges it overflows a float

    def sampled() -> Iterator[tuple[ColouredGraph, tuple[int, ...], tuple[int, ...]]]:
        # Adversarial colourings first, then uniform random ones.
        from .adversaries import AdversarySpec, colour_with
        from .sampling import derive_seed, philox_generator

        rng = philox_generator(derive_seed("richness-sample", 0))
        specs = [
            AdversarySpec("copy-avoider-greedy", {"pattern": H.pattern}, 0),
            AdversarySpec("planted-partition", {}, 0),
            AdversarySpec("majority-degree", {}, 0),
        ]
        for trial in range(_SAMPLED_COLOURINGS):
            uniform = AdversarySpec("uniform-random", {}, derive_seed(0, trial))
            coloured = colour_with(G_template, specs[trial] if trial < len(specs) else uniform)
            for _ in range(min(pair_count, 20)):
                yield (coloured, *_nth_disjoint_pair(n, s, int(rng.integers(pair_count))))

    if atlas_mode or work <= limit:
        mode = "exhaustive"
        draws = ((c, xs, ys) for c in iter_colourings(G_template) for xs, ys in iter_disjoint_pairs(n, s))
    else:
        mode, draws = "sampled", sampled()
    trials = 0
    for coloured, xs, ys in draws:
        trials += 1
        if good_copy_witness_count(coloured, H, xs, ys) == 0:
            counterexample = RichnessCounterexample(dict(coloured.colour), frozenset(xs), frozenset(ys))
            return RichnessVerdict(rich=False, mode=mode, trials=trials, counterexample=counterexample)
    return RichnessVerdict(rich=True if mode == "exhaustive" else None, mode=mode, trials=trials)


# ---------------------------------------------------------------------------
# Clique counting and supersaturation
# ---------------------------------------------------------------------------

def count_cliques(G: Graph, r: int, budget: float | None = None) -> int:
    """Number of ``r``-cliques, by ordered bitset extension (``graphs._cliques``).

    The budget is charged ``comb(n, 1) + ... + comb(n, r - 1)``: the
    extension reads one mask per clique on fewer than ``r`` vertices.
    """
    if r < 1:
        raise ValueError("clique order must be positive")
    require_budget(sum(comb(G.n, d) for d in range(1, r)), budget, "clique enumeration")
    return _cliques(G.adjacency, (1 << G.n) - 1, r)


@dataclass(frozen=True)
class SupersatReport:
    count: int
    R: int
    t: int | None
    hypothesis_met: bool
    bound: float | None
    meets_bound: bool | None


def densest_t(G: Graph) -> int:
    """Largest integer ``t`` with ``e(G) >= (1 - 1/t) * n^2 / 2``, below ``n^2 / (n^2 - 2e)``
    with ``n^2 - 2e >= n``; ``ValueError`` on the zero-vertex host, where every ``t`` qualifies."""
    n = G.n
    if n == 0:
        raise ValueError("densest_t needs a host with at least one vertex")
    return (n * n) // (n * n - 2 * G.num_edges)


def clique_supersat_count(
    G: Graph, R: int, t: int | None = None, budget: float | None = None
) -> SupersatReport:
    """Exact clique count against the dense-graph supersaturation lower bound.

    The bound ``binom(t, R) * (n/t)^R`` (Lovász–Simonovits) applies whenever
    ``e(G) >= (1 - 1/t) * n^2 / 2`` and ``t >= R >= 3``; outside that regime
    the count is still returned with the hypothesis flagged unmet.
    """
    if not isinstance(R, int):
        raise ValueError(f"R must be an int, not {R!r}")
    if R < 3:
        raise ValueError("clique order below 3 is outside the supersaturation regime")
    if t is not None and (not isinstance(t, int) or t < 1):
        raise ValueError(f"t must be a positive int, not {t!r}")
    count = count_cliques(G, R, budget)
    n = G.n
    t_used = densest_t(G) if t is None else t
    dense_enough = Fraction(G.num_edges) >= (1 - Fraction(1, t_used)) * Fraction(n * n, 2)
    if t_used < R or not dense_enough:
        return SupersatReport(count, R, t_used, False, None, None)
    meets = count * t_used**R >= comb(t_used, R) * n**R  # both sides of count >= bound times t^R
    bound = comb(t_used, R) * (n / t_used) ** R
    return SupersatReport(count, R, t_used, True, bound, meets)

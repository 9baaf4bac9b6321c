"""The coloured-edge hypergraph behind the container argument, with degree checks.

Vertices are pairs (edge of the complete host, colour); hyperedges are the
coloured edge sets of one-sided good copies: each copy of the pattern
meeting part A in at least alpha vertices contributes its edge set tagged
all red, each copy meeting part B likewise tagged all blue.  The degree
bounds below are theorem-backed, so a violation on an exhaustively built
instance is a hard failure of the build, never of the instance.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .budget import require_budget
from .graphs import Colour, Edge, Graph
from .oracles import iter_copies_bruteforce
from .patterns import PatternStats

HVertex = tuple[Edge, Colour]


@dataclass(frozen=True)
class AuxHypergraph:
    n: int
    part_a: frozenset[int]
    part_b: frozenset[int]
    pattern: PatternStats
    hyperedges: frozenset[frozenset[HVertex]]

    @property
    def uniformity(self) -> int:
        return self.pattern.ell

    @property
    def num_vertices(self) -> int:
        return 2 * math.comb(self.n, 2)

    @property
    def tau(self) -> float:
        """``n ** (-1 / max(m2, 1))``, the scale of the degree condition."""
        return float(self.n) ** (-float(Fraction(1) / self.pattern.m2_or_one))


def build_aux_hypergraph(
    n: int,
    A: Iterable[int],
    B: Iterable[int],
    H: PatternStats,
    budget: float | None = None,
) -> AuxHypergraph:
    """Exhaustively build the hypergraph over the complete host on ``n`` vertices."""
    part_a, part_b = frozenset(A), frozenset(B)
    if part_a & part_b or part_a | part_b != frozenset(range(n)):
        raise ValueError("A and B must partition the host vertex set")
    if len(part_a) != len(part_b):
        raise ValueError("the partition must be balanced")
    if H.ell < 1:
        raise ValueError("pattern needs at least one edge")
    require_budget(float(n) ** H.k, budget, "good-copy enumeration")

    host_edges = Graph.complete(n).edges
    hyperedges: set[frozenset[HVertex]] = set()
    for subset, edge_set in iter_copies_bruteforce(host_edges, H.pattern, range(n)):
        if len(part_a.intersection(subset)) >= H.alpha:
            hyperedges.add(frozenset((e, Colour.RED) for e in edge_set))
        if len(part_b.intersection(subset)) >= H.alpha:
            hyperedges.add(frozenset((e, Colour.BLUE) for e in edge_set))

    aux = AuxHypergraph(n, part_a, part_b, H, frozenset(hyperedges))
    _check_build(aux)
    return aux


def _check_build(aux: AuxHypergraph) -> None:
    ell = aux.uniformity
    if any(len(h) != ell for h in aux.hyperedges):
        raise AssertionError("hyperedge breaks uniformity")
    for h in aux.hyperedges:
        seen_edges = {e for e, _ in h}
        if len(seen_edges) != len(h):
            raise AssertionError("hyperedge carries one host edge in both colours")
    if len(aux.hyperedges) > 2**ell * aux.n**aux.pattern.k:
        raise AssertionError("hyperedge count exceeds the coarse upper bound")


@dataclass(frozen=True)
class DegreeCheck:
    j: int
    delta: int
    bound: float
    passed: bool


@dataclass(frozen=True)
class DegreeReport:
    checks: tuple[DegreeCheck, ...]
    single_degree_refined: bool  # d(e) <= ell * n^(k-2) for every single vertex
    all_passed: bool


def _bound_holds(delta: int, factor: int, n: int, k: int, j: int, m2_or_one: Fraction) -> bool:
    # delta <= factor * n^((k-2) - (j-1)/m), compared in exact integers by
    # raising both sides to the power of m's numerator.
    p, q = m2_or_one.numerator, m2_or_one.denominator
    exp = p * (k - 2) - (j - 1) * q
    lhs = delta**p
    rhs = factor**p
    if exp >= 0:
        return lhs <= rhs * n**exp
    return lhs * n**(-exp) <= rhs


def aux_degree_check(aux: AuxHypergraph) -> DegreeReport:
    """Exact maximum j-degrees against the factorial-tau bound, per j."""
    ell = aux.uniformity
    k = aux.pattern.k
    n = aux.n
    m2m = aux.pattern.m2_or_one
    fact = math.factorial(ell)

    counters: dict[int, Counter] = {j: Counter() for j in range(1, ell + 1)}
    for h in aux.hyperedges:
        elems = sorted(h, key=lambda vc: (vc[0], vc[1].value))
        for j in range(1, ell + 1):
            for sub in combinations(elems, j):
                counters[j][sub] += 1

    checks = []
    for j in range(1, ell + 1):
        delta = max(counters[j].values(), default=0)
        passed = _bound_holds(delta, fact, n, k, j, m2m)
        bound = fact * aux.tau ** (j - 1) * n ** (k - 2)
        checks.append(DegreeCheck(j, delta, bound, passed))

    delta1 = checks[0].delta if checks else 0
    refined = delta1 <= ell * n ** (k - 2)
    return DegreeReport(tuple(checks), refined, all(c.passed for c in checks) and refined)

"""The coloured-edge hypergraph behind the container argument, with degree checks.

Vertices are pairs (edge of the complete host, colour); hyperedges are the
coloured edge sets of one-sided good copies: each copy of the pattern
meeting part A in at least alpha vertices contributes its edge set tagged
all red, each copy meeting part B likewise tagged all blue.  The degree
bounds below are theorem-backed, so a violation on an exhaustively built
instance is a hard failure of the build, never of the instance.

The build writes each hyperedge as a sorted row of int codes,
``(u*n + v) << 1 | red`` per hypervertex, straight from the vertex subsets of
the complete host and the oracles' decode of the pattern's edge images into
position pairs: every subset holds every image.  One lexsort per colour keeps
the distinct rows, in ``np.unique(rows, axis=0)``'s row order.  The degree check counts j-subsets
of the rows as packed ints.  The frozenset form of the hyperedges is a view
built on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable

import numpy as np

from .budget import require_budget
from .graphs import Colour, Edge
from .oracles import _image_pairs
from .patterns import PatternStats

HVertex = tuple[Edge, Colour]


@dataclass(frozen=True, eq=False)
class AuxHypergraph:
    """Compared by identity; compare ``hyperedges`` for the value."""

    n: int
    part_a: frozenset[int]
    part_b: frozenset[int]
    pattern: PatternStats
    rows: np.ndarray  # read-only, one sorted row of hypervertex codes per hyperedge

    @cached_property
    def hyperedges(self) -> frozenset[frozenset[HVertex]]:
        n = self.n
        return frozenset(
            frozenset((divmod(c >> 1, n), Colour.RED if c & 1 else Colour.BLUE) for c in row)
            for row in self.rows.tolist()
        )

    @property
    def num_hyperedges(self) -> int:
        return len(self.rows)

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
    k, n_subsets = H.k, math.comb(n, H.k)
    decoded = _image_pairs(H.pattern)[1]
    # Charge the codes the build holds, one per pair of each image on each
    # subset, where they outnumber the n^k of the copy enumeration.
    codes_held = n_subsets * len(decoded) * H.ell
    require_budget(max(n**k, codes_held), budget, "good-copy enumeration")

    subsets = np.fromiter(chain.from_iterable(combinations(range(n), k)), np.int64, n_subsets * k)
    subsets = subsets.reshape(n_subsets, k)
    in_a = np.isin(subsets, list(part_a)).sum(axis=1)
    # Codes of each image's position pairs on each subset: an image's pairs
    # come in combinations order, so every row ascends, and every image has
    # ell pairs, so the row shape is the uniformity.
    i, j = np.array(list(decoded.values())).transpose(2, 0, 1)  # image, pair
    codes = (subsets[:, i] * n + subsets[:, j]) << 1  # subset, image, pair
    red = (codes[in_a >= H.alpha] | 1).reshape(-1, H.ell)
    blue = codes[k - in_a >= H.alpha].reshape(-1, H.ell)
    rows = np.concatenate([_distinct_rows(red), _distinct_rows(blue)])
    rows.flags.writeable = False
    aux = AuxHypergraph(n, part_a, part_b, H, rows)
    _check_build(aux)
    return aux


def _distinct_rows(codes: np.ndarray) -> np.ndarray:
    """``np.unique(codes, axis=0)`` for a 2-d int array with columns, by one lexsort:
    sorted rows, each kept if it differs from the row before it.

    Repeats come only from a pattern with an isolated vertex, which puts one
    edge set on several vertex subsets; the sort also fixes the row order of
    the images on one subset.
    """
    codes = codes[np.lexsort(codes.T[::-1])]
    keep = np.ones(len(codes), bool)
    keep[1:] = (codes[1:] != codes[:-1]).any(axis=1)
    return codes[keep]


def _check_build(aux: AuxHypergraph) -> None:
    if (np.diff(aux.rows >> 1, axis=1) <= 0).any():
        raise AssertionError("hyperedge carries one host edge in both colours")
    if aux.num_hyperedges > 2**aux.uniformity * aux.n**aux.pattern.k:
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
    lhs, rhs = delta**p, factor**p
    if exp >= 0:
        return lhs <= rhs * n**exp
    return lhs * n**(-exp) <= rhs


def aux_degree_check(aux: AuxHypergraph) -> DegreeReport:
    """Exact maximum j-degrees against the factorial-tau bound, per j."""
    ell, k, n, m2m = aux.uniformity, aux.pattern.k, aux.n, aux.pattern.m2_or_one
    fact = math.factorial(ell)

    # A j-subset of a sorted row is one int, its codes in base 2n^2; object
    # arrays keep Python ints where that overflows int64.
    base = 2 * n * n
    rows = aux.rows.astype(np.int64 if base**ell < 2**63 else object)
    checks = []
    for j in range(1, ell + 1):
        keys = []
        for cols in combinations(range(ell), j):
            key = rows[:, cols[0]]
            for c in cols[1:]:
                key = key * base + rows[:, c]
            keys.append(key)
        counts = np.unique(np.concatenate(keys), return_counts=True)[1]
        delta = int(counts.max(initial=0))
        passed = _bound_holds(delta, fact, n, k, j, m2m)
        bound = fact * aux.tau ** (j - 1) * n ** (k - 2)
        checks.append(DegreeCheck(j, delta, bound, passed))

    delta1 = checks[0].delta if checks else 0
    refined = delta1 <= ell * n ** (k - 2)
    return DegreeReport(tuple(checks), refined, all(c.passed for c in checks) and refined)

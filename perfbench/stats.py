"""Summary statistics for op times."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """An order statistic with ``beyond`` samples above it, at ``percentile``."""

    value: float
    percentile: float
    beyond: int
    samples: int

    @property
    def rule_met(self) -> bool:
        return self.beyond >= TAIL_BEYOND


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> Tail:
    """The highest percentile that still has ``beyond`` samples above it.

    With ``n`` sorted samples that is the ``(n - beyond)``-th one (counting
    from 1), the nearest-rank ``100 * (n - beyond) / n`` percentile.  With
    ``beyond`` samples or fewer no percentile qualifies, and the maximum is
    returned with ``rule_met`` false, so the caller can say so.
    """
    if not samples:
        raise ValueError("need at least one sample")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return Tail(ordered[-1], 100.0, 0, n)
    rank = n - beyond
    return Tail(ordered[rank - 1], 100.0 * rank / n, beyond, n)


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

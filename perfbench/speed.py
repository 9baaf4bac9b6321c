"""Machine-speed reference: a fixed pure-Python routine timed next to every op.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds to minutes.  Every end-to-end time is therefore scaled by
``NOMINAL_S / reference``, where ``reference`` is the time this routine took
right next to the timed work.  The routine uses no monotile code, so a change
to monotile cannot move it; it mixes the operations monotile is made of
(big-integer bit masks, tuple-keyed dicts and sets, text building) so that
a drift slows both alike.  On a machine where the routine takes ``NOMINAL_S``
the scaled values equal plain wall seconds.
"""

from __future__ import annotations

import gc
import time

NOMINAL_S = 0.015
_N = 300


def reference_work() -> int:
    """Fixed work: a seeded sparse graph as masks, common-neighbour counts, text."""
    masks = [0] * _N
    edges: dict[tuple[int, int], int] = {}
    x = 12345
    for i in range(5000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        u, v = x % _N, (x >> 11) % _N
        if u != v:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
            edges[(u, v) if u < v else (v, u)] = i & 1
    total = 0
    for u in range(_N):
        m = masks[u]
        while m:
            low = m & -m
            total += (masks[low.bit_length() - 1] & masks[u]).bit_count()
            m ^= low
    text = "\n".join(f"{u} {v} {'rb'[c]}" for (u, v), c in sorted(edges.items()))
    return total + len(frozenset(edges)) + len(text.split())


def reference_seconds(repeats: int = 1) -> float:
    """Median wall time of ``reference_work`` over ``repeats`` runs, garbage collector off."""
    samples = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            reference_work()
            samples.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    samples.sort()
    return samples[len(samples) // 2]

"""Random host graphs and the edge-probability regime derived from a pattern.

Sampling uses the Philox counter-based bit generator (``numpy.random.Philox``,
4x64 with 10 rounds) keyed directly by the seed, with one 64-bit word per
vertex pair in lexicographic order.  The key, ``seed mod 2**64`` in the low
word and 0 in the high one, reaches Philox through a key-only seed sequence,
so making a generator draws no OS entropy; the stream is the one
``Philox(key=seed % 2**64)`` gives.  The stream is specified exactly so the
same seed reproduces the same graph edge-for-edge anywhere.  Every coin the
package flips with probability ``p`` goes through ``draws_below``: it reads
one raw 64-bit word per coin and keeps the coin when the word is below
``ceil(p * 2**53) << 11``, which is exactly ``Generator.random() < p`` on
the same stream without converting the words to floats.  ``sample_gnp``
reads the words in blocks of whole upper-triangle rows, about ``2**16``
draws each, and keeps only the hits, already in lexicographic order: its
buffers are O(m + 2**16) for m edges, plus the transient bit matrix of the
mask build.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .graphs import Graph
from .patterns import PatternStats

_BLOCK = 1 << 16  # draws per block of whole upper-triangle rows


class _PhiloxKey(ISeedSequence):
    """A seed sequence that hands Philox its key and nothing else.

    ``Philox(key=...)`` builds an OS-entropy ``SeedSequence`` first and then
    ignores it; a counter-based generator needs only its key.  Philox asks a
    seed sequence for two 64-bit words, its key, and this answers only that.
    """

    def __init__(self, key: int):
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Philox key is two uint64 words, not {n_words} of {np.dtype(dtype)}")
        return np.array((self.key, 0), np.uint64)


def philox_generator(seed: int) -> np.random.Generator:
    """The package-wide PRNG: Philox4x64-10 keyed by ``seed mod 2**64``, a fresh one per call."""
    return np.random.Generator(np.random.Philox(_PhiloxKey(seed & (2**64 - 1))))


def draws_below(bits: np.random.BitGenerator, count: int, p: float) -> np.ndarray:
    """``Generator.random(count) < p`` on the stream of ``bits``, read as raw words.

    ``random()`` is ``(word >> 11) * 2**-53``, so it is below ``p`` exactly when
    ``word >> 11 < ceil(p * 2**53)``, that is when ``word < ceil(p * 2**53) << 11``
    (below ``2**64`` for ``p < 1``).  The ``count`` words are read whatever ``p`` is.
    """
    words = bits.random_raw(count)
    if not p > 0.0:  # NaN included, as random() < NaN is never true
        return np.zeros(count, bool)
    if p >= 1.0:
        return np.ones(count, bool)
    return words < np.uint64(math.ceil(p * 2**53) << 11)


def derive_seed(*parts) -> int:
    """Stable 64-bit seed derived from a tuple of labels and numbers."""
    text = "\x1f".join(repr(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def sample_gnp(n: int, p: float, seed: int) -> Graph:
    """Sample a binomial random graph on ``n`` vertices with edge probability ``p``."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    if p == 0.0 or n < 2:
        return Graph.empty(n)
    if p == 1.0:
        return Graph.complete(n)
    # Row u of the upper triangle holds the draws for pairs (u, u+1 .. n-1); offsets[u]
    # counts the draws before it.  Each block is the longest run of whole rows that
    # fits in _BLOCK draws (at least one row), so the stream is read in pair order.
    offsets = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    bits, hits, u = philox_generator(seed).bit_generator, [], 0
    while u < n - 1:
        w = max(u + 1, int(np.searchsorted(offsets, offsets[u] + _BLOCK, side="right")) - 1)
        hits.append(offsets[u] + np.flatnonzero(draws_below(bits, offsets[w] - offsets[u], p)))
        u = w
    vs = np.concatenate(hits)  # pair positions in the stream, turned into columns in place
    us = np.repeat(np.arange(n), np.diff(np.searchsorted(vs, offsets), append=len(vs)))
    vs += us + 1 - offsets[us]
    return Graph.from_pairs(n, us, vs)


def threshold_probability(n: int, C: float, pattern: PatternStats) -> float:
    """``min(1, C * n**(-1/max(m2, 1)))`` with the exponent compared exactly."""
    if n < 1:
        raise ValueError(f"need at least one vertex, not n = {n}")
    if not math.isfinite(C):
        raise ValueError(f"C must be finite, not {C}")
    if C < 0:
        raise ValueError(f"C must be non-negative, not {C}")
    exponent = Fraction(1) / pattern.m2_or_one
    return min(1.0, C * float(n) ** (-float(exponent)))

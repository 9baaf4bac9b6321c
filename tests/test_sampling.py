import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from monotile.graphs import Graph, masks_from_pairs
from monotile.sampling import (
    derive_seed,
    draws_below,
    philox_generator,
    sample_gnp,
    threshold_probability,
)


def test_p_zero_and_one():
    assert sample_gnp(5, 0.0, 1) == Graph.empty(5)
    assert sample_gnp(5, 1.0, 1) == Graph.complete(5)


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1, 2**64 + 7, -3])
def test_generator_is_philox_keyed_by_the_seed(seed):
    """The stream every other test takes as its reference: Philox4x64-10 keyed by
    ``seed mod 2**64``, as ``np.random.Philox(key=...)`` builds it."""
    got = philox_generator(seed)
    want = np.random.Generator(np.random.Philox(key=seed % 2**64))
    assert np.array_equal(got.random(1000), want.random(1000))
    assert np.array_equal(got.permutation(97), want.permutation(97))
    assert np.array_equal(got.integers(0, 2**15, size=500), want.integers(0, 2**15, size=500))
    assert np.array_equal(got.integers(0, 2**62, size=50), want.integers(0, 2**62, size=50))


def test_generators_are_fresh_per_call():
    first = philox_generator(5)
    first.random(10)
    assert np.array_equal(philox_generator(5).random(10), np.random.Generator(np.random.Philox(key=5)).random(10))


def test_key_seed_sequence_answers_only_the_philox_key_request():
    seed_seq = philox_generator(2**64 + 7).bit_generator.seed_seq
    assert seed_seq.generate_state(2, np.uint64).tolist() == [7, 0]
    for n_words, dtype in ((4, np.uint32), (2, np.uint32), (1, np.uint64), (3, np.uint64)):
        with pytest.raises(ValueError, match="two uint64 words"):
            seed_seq.generate_state(n_words, dtype)


def _check_draws_below(seed, count, p):
    """``draws_below`` against ``random(count) < p`` on a second generator with the same
    seed, and both streams left at the same place."""
    gen, ref = philox_generator(seed), philox_generator(seed)
    got, want = draws_below(gen.bit_generator, count, p), ref.random(count) < p
    assert got.dtype == bool and got.shape == (count,)
    assert np.array_equal(got, want)
    assert gen.bit_generator.random_raw(3).tolist() == ref.bit_generator.random_raw(3).tolist()


@pytest.mark.parametrize("count", [0, 1, 7, 2**16 + 3])
@pytest.mark.parametrize("p", [0.0, 5e-324, 2.0**-60, 1e-9, 0.02, 0.5, float(np.nextafter(1.0, 0.0)), 1.0])
def test_draws_below_is_random_below_p(count, p):
    for seed in (0, 11, 2**64 - 1):
        _check_draws_below(seed, count, p)


@given(st.floats(0.0, 1.0), st.integers(0, 2**64 - 1))
def test_draws_below_is_random_below_any_probability(p, seed):
    _check_draws_below(seed, 300, p)


@pytest.mark.parametrize("seed", [0, 3, 2**63 + 5])
def test_draws_below_excludes_a_draw_equal_to_p(seed):
    """``p`` equal to one of the stream's own draws: strict ``<`` leaves that draw out,
    and the next float up takes it in.  The draws include the first word whose 11 low
    bits are zero, the one word that equals its own threshold ``ceil(p * 2**53) << 11``."""
    count = 2**16
    draws = philox_generator(seed).random(count)
    words = philox_generator(seed).bit_generator.random_raw(count)
    exact = int(np.flatnonzero(words & np.uint64(2047) == 0)[0])
    for i in (0, 17, exact, count - 1):
        p = float(draws[i])
        got = draws_below(philox_generator(seed).bit_generator, count, p)
        assert not got[i] and np.array_equal(got, draws < p)
        got = draws_below(philox_generator(seed).bit_generator, count, float(np.nextafter(p, 1.0)))
        assert got[i] and np.array_equal(got, draws <= p)


def _pair_list_gnp(n, p, seed):
    """The loop construction sample_gnp replaced: one draw per pair, lexicographic."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if p == 0.0 or not pairs:
        return Graph.empty(n)
    if p == 1.0:
        return Graph.complete(n)
    keep = philox_generator(seed).random(len(pairs)) < p
    return Graph(n, frozenset(e for e, k in zip(pairs, keep) if k))


@pytest.mark.parametrize("n", [1, 2, 3, 50])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_matches_pair_list_construction(n, p):
    for seed in (0, 7, 2**63 + 5):
        fast, slow = sample_gnp(n, p, seed), _pair_list_gnp(n, p, seed)
        assert fast == slow
        # Same insertion order, so edge iteration order (and everything
        # downstream that iterates the edge set) is unchanged too.
        assert list(fast.edges) == list(slow.edges)


def _triu_gnp(n, p, seed):
    """The sampler before blocked draws: every pair from ``np.triu_indices``, one draw each."""
    us, vs = np.triu_indices(n, 1)  # row-major: pairs in lexicographic order
    keep = philox_generator(seed).random(len(us)) < p
    return Graph.from_adjacency(n, masks_from_pairs(n, us[keep], vs[keep])), (us[keep], vs[keep])


# 362 * 361 / 2 = 65341 pairs fit in one block of 2**16 draws; 363 * 362 / 2 = 65703 do not.
@pytest.mark.parametrize("n", [362, 363, 500, 700, 1000])
@pytest.mark.parametrize("p", [0.001, 0.02, 0.3, 0.999])
def test_blocked_draws_match_triu_reference(n, p):
    for seed in (0, 7, 2**63 + 5):
        fast = sample_gnp(n, p, seed)
        slow, (us, vs) = _triu_gnp(n, p, seed)
        assert fast.adjacency == slow.adjacency
        for got, want in zip(fast.edge_pairs, (us, vs)):
            assert got.dtype == np.intp and not got.flags.writeable
            assert np.array_equal(got, want)
        assert list(fast.edges) == list(slow.edges)


def test_sampling_memory_stays_near_the_edge_arrays(k3):
    """The draws are streamed in blocks: a G(2000, C=5) host peaks at a few times its
    edge arrays, not at the 24 bytes per vertex pair (about 53 MB) of drawing all at once."""
    p = threshold_probability(2000, 5.0, k3)
    tracemalloc.start()
    try:
        sample_gnp(2000, p, derive_seed("memory", 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16_000_000


def test_rejects_bad_probability():
    with pytest.raises(ValueError):
        sample_gnp(5, -0.1, 1)
    with pytest.raises(ValueError):
        sample_gnp(5, 1.5, 1)
    with pytest.raises(ValueError):
        sample_gnp(0, 0.5, 1)


def test_reproducible_edge_for_edge():
    a = sample_gnp(60, 0.3, 12345)
    b = sample_gnp(60, 0.3, 12345)
    assert a.edges == b.edges
    c = sample_gnp(60, 0.3, 12346)
    assert a.edges != c.edges  # astronomically unlikely to collide


def test_edge_count_within_four_sigma():
    n, p = 1000, 0.5
    pairs = n * (n - 1) // 2
    mean = pairs * p
    sigma = math.sqrt(pairs * p * (1 - p))
    for seed in (7, 8, 9):
        g = sample_gnp(n, p, seed)
        assert abs(g.num_edges - mean) < 4 * sigma


def test_threshold_probability_uses_m2_exponent(k3, k2):
    # triangle: exponent 1/2; edge: m2 = 1/2 so the exponent floor of 1 kicks in
    assert threshold_probability(100, 2.0, k3) == pytest.approx(0.2)
    assert threshold_probability(100, 2.0, k2) == pytest.approx(0.02)
    assert threshold_probability(4, 10.0, k3) == 1.0


@pytest.mark.parametrize("n", [0, -5])
def test_threshold_probability_needs_a_vertex(k3, n):
    with pytest.raises(ValueError, match=f"^need at least one vertex, not n = {n}$"):
        threshold_probability(n, 5.0, k3)


@pytest.mark.parametrize("C", [math.nan, math.inf, -math.inf])
def test_threshold_probability_needs_a_finite_constant(k3, C):
    with pytest.raises(ValueError, match=f"^C must be finite, not {C}$"):
        threshold_probability(4, C, k3)


def test_threshold_probability_needs_a_non_negative_constant(k3):
    with pytest.raises(ValueError, match="^C must be non-negative, not -1.0$"):
        threshold_probability(4, -1.0, k3)
    assert threshold_probability(4, 0.0, k3) == 0.0


def test_derive_seed_stable():
    assert derive_seed("a", 1) == derive_seed("a", 1)
    assert derive_seed("a", 1) != derive_seed("a", 2)
    assert 0 <= derive_seed("x") < 2**64

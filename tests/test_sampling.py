import math

import pytest

from monotile.graphs import Graph
from monotile.sampling import (
    ExperimentConfig,
    derive_seed,
    philox_generator,
    sample_gnp,
    threshold_probability,
)


def test_p_zero_and_one():
    assert sample_gnp(5, 0.0, 1) == Graph.empty(5)
    assert sample_gnp(5, 1.0, 1) == Graph.complete(5)


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


def test_experiment_config_validation(k3):
    cfg = ExperimentConfig.for_pattern(100, 2.0, 0.1, 7, k3)
    assert cfg.p == pytest.approx(0.2)
    with pytest.raises(ValueError):
        ExperimentConfig.for_pattern(100, 2.0, 1.5, 7, k3)
    with pytest.raises(ValueError):
        ExperimentConfig.for_pattern(100, -1.0, 0.1, 7, k3)


def test_derive_seed_stable():
    assert derive_seed("a", 1) == derive_seed("a", 1)
    assert derive_seed("a", 1) != derive_seed("a", 2)
    assert 0 <= derive_seed("x") < 2**64

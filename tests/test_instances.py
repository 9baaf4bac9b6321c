import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monotile.graphs import Colour, Graph, masks_from_pairs
from monotile.instances import planted_process_instance
from monotile.sampling import derive_seed, philox_generator


def _reference_planted_masks(s, seed, fraction, with_cross):
    """The host and red masks built pair by pair: ``np.nonzero`` on the draw matrix,
    then ``masks_from_pairs``."""
    n = 2 * s
    x_mask, y_mask = (1 << s) - 1, ((1 << s) - 1) << s
    if with_cross:
        draws = philox_generator(derive_seed("planted-cross", seed)).random(s * s)
        xs, ys = np.nonzero((draws < fraction).reshape(s, s))
        cross = masks_from_pairs(n, xs, ys + s)
        host = Graph.complete(n)
    else:
        cross = (0,) * n
        host = Graph.from_adjacency(n, tuple((x_mask if v < s else y_mask) ^ (1 << v) for v in range(n)))
    red = tuple(c | (y_mask ^ (1 << v) if v >= s else 0) for v, c in enumerate(cross))
    return host.adjacency, red


def _check_against_reference(H, s, seed, fraction, with_cross):
    inst = planted_process_instance(H, s, seed=seed, cross_red_fraction=fraction, with_cross=with_cross)
    host, red = _reference_planted_masks(s, seed, fraction, with_cross)
    assert inst.coloured.graph.adjacency == host
    assert inst.coloured.red_adjacency == red
    assert inst.coloured.blue_adjacency == tuple(a ^ r for a, r in zip(host, red))
    assert inst.x_vertices == frozenset(range(s)) and inst.y_vertices == frozenset(range(s, 2 * s))
    for tiling, colour, start in ((inst.blue_tiling, Colour.BLUE, 0), (inst.red_tiling, Colour.RED, s)):
        assert tiling.colour is colour
        assert [c.vertex_map for c in tiling.copies] == [
            tuple(range(b, b + H.k)) for b in range(start, start + s, H.k)
        ]
        assert all(c.colour is colour for c in tiling.copies)


# Sides of 6, 9, 15 and 21 vertices leave padding bits in their packed rows.
@settings(max_examples=60, deadline=None)
@given(
    q=st.integers(2, 16),
    seed=st.integers(0, 2**64 - 1),
    fraction=st.sampled_from([0.0, 0.3, 0.65, 1.0]),
    with_cross=st.booleans(),
)
@example(q=2, seed=0, fraction=0.3, with_cross=True)
@example(q=3, seed=1, fraction=0.65, with_cross=True)
@example(q=5, seed=2, fraction=0.3, with_cross=True)
@example(q=7, seed=3, fraction=0.65, with_cross=True)
@example(q=16, seed=4, fraction=1.0, with_cross=True)
@example(q=16, seed=5, fraction=0.0, with_cross=False)
def test_planted_host_matches_pairwise_construction(k3, q, seed, fraction, with_cross):
    _check_against_reference(k3, 3 * q, seed, fraction, with_cross)


@settings(max_examples=20, deadline=None)
@given(q=st.integers(2, 12), seed=st.integers(0, 2**64 - 1), fraction=st.sampled_from([0.0, 0.3, 0.65, 1.0]))
def test_planted_host_matches_pairwise_construction_on_p4(p4, q, seed, fraction):
    _check_against_reference(p4, 4 * q, seed, fraction, True)


# Rows of more than one 64-bit word.
@pytest.mark.parametrize("s", [66, 129])
def test_planted_host_matches_pairwise_construction_on_wide_sides(k3, s):
    _check_against_reference(k3, s, 9, 0.45, True)


@pytest.mark.parametrize("fraction", [float("nan"), -0.1, 1.5, float("inf"), -float("inf")])
@pytest.mark.parametrize("with_cross", [True, False])
def test_a_cross_fraction_outside_the_unit_interval_is_refused(k3, fraction, with_cross):
    """A fraction is a probability, checked as ``sample_gnp`` checks one: NaN would draw
    no red cross edge and 1.5 all of them."""
    with pytest.raises(ValueError, match="cross red fraction .* outside \\[0, 1\\]"):
        planted_process_instance(k3, 6, seed=1, cross_red_fraction=fraction, with_cross=with_cross)

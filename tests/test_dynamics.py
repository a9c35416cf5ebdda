import math

import numpy as np
import pytest

from splitmerge.dynamics import (
    assign_ranks,
    euler_step,
    market_weights,
    total_cap,
)
from splitmerge.params import ModelParams, RankTable


def make_params(**kw):
    base = dict(drift=RankTable(0.0, 0.0), vol=RankTable(1.0, 0.0))
    base.update(kw)
    return ModelParams(**base)


class TestRanks:
    def test_tie_goes_to_lowest_index(self):
        # caps (3, 5, 5, 1): the two 5s tie, index order breaks it
        r = assign_ranks(np.array([3.0, 5.0, 5.0, 1.0]))
        assert r.tolist() == [2, 0, 1, 3]

    def test_two_way_tie(self):
        r = assign_ranks(np.array([7.0, 7.0]))
        assert r.tolist() == [0, 1]

    def test_increasing_input(self):
        r = assign_ranks(np.array([1.0, 2.0, 3.0]))
        assert r.tolist() == [2, 1, 0]

    def test_idempotent_and_scale_invariant(self):
        caps = np.array([2.0, 9.0, 4.0, 4.0])
        a = assign_ranks(caps)
        b = assign_ranks(caps * 2.0)
        assert np.array_equal(a, b)

    def test_permutation_inverse(self):
        rng = np.random.default_rng(0)
        caps = rng.uniform(0.5, 3.0, size=9)
        r = assign_ranks(caps)
        assert np.array_equal(np.sort(r), np.arange(9))
        ranked = np.empty(9)
        ranked[r] = caps
        assert np.all(np.diff(ranked) <= 0)


class TestWeights:
    def test_examples(self):
        np.testing.assert_allclose(
            market_weights(np.array([1.0, 1.0, 2.0])), [0.25, 0.25, 0.5]
        )
        np.testing.assert_allclose(
            market_weights(np.array([2.0, 3.0, 5.0])), [0.2, 0.3, 0.5]
        )
        np.testing.assert_allclose(
            market_weights(np.array([3.0, 3.0])), [0.5, 0.5]
        )

    def test_power_of_two_scaling_is_exact(self):
        caps = np.array([1.3, 2.7, 0.9])
        assert np.array_equal(market_weights(caps), market_weights(caps * 4.0))

    def test_generic_scaling_close(self):
        caps = np.array([1.3, 2.7, 0.9])
        np.testing.assert_allclose(
            market_weights(caps), market_weights(caps * 1.7), rtol=1e-14
        )

    def test_total_cap_left_to_right(self):
        caps = np.array([0.1, 0.2, 0.3])
        assert total_cap(caps) == (np.float64(0.1) + 0.2) + 0.3


class TestEulerStep:
    def test_frozen_rank_hand_example(self):
        # N=2, g=(-1, +1) by rank, sigma irrelevant with zero noise,
        # caps (e, 1), dt = 0.1: log caps move by (-0.1, +0.1)
        p = make_params(
            drift=RankTable(0.0, 0.0, overrides={2: (-1.0, 1.0)}),
            dt=0.1,
        )
        out = euler_step(np.array([math.e, 1.0]), p, np.zeros(2))
        np.testing.assert_allclose(
            out, [math.exp(0.9), math.exp(0.1)], rtol=1e-14
        )

    def test_zero_drift_zero_noise_identity(self):
        p = make_params()
        caps = np.array([2.0, 3.0, 4.0])
        out = euler_step(caps, p, np.zeros(3))
        assert np.array_equal(out, caps)

    def test_weights_depend_only_on_ratios(self):
        p = make_params(drift=RankTable(0.1, 0.2), vol=RankTable(0.8, 0.4))
        rng = np.random.default_rng(3)
        caps = np.array([5.0, 1.0, 3.0, 2.0])
        z = rng.standard_normal(4)
        w1 = market_weights(euler_step(caps, p, z))
        w2 = market_weights(euler_step(caps * 8.0, p, z))
        np.testing.assert_allclose(w1, w2, rtol=1e-13)

    def test_overflow_raises(self):
        p = make_params(drift=RankTable(1000.0, 0.0), dt=1.0)
        with pytest.raises(OverflowError):
            euler_step(np.array([1e300, 1.0]), p, np.zeros(2))

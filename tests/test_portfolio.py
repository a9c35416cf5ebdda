import math

import numpy as np
import pytest

from splitmerge.dynamics import market_weights
from splitmerge.events import apply_merger, apply_split
from splitmerge.portfolio import PortfolioRule, WealthError, wealth_step


CAPS = [5.0, 1.0, 4.0]


class TestRules:
    def test_kinds_validated(self):
        with pytest.raises(ValueError):
            PortfolioRule("levered")
        with pytest.raises(ValueError):
            PortfolioRule("rank", -1)

    def test_cash(self):
        pi = PortfolioRule("cash").weights(CAPS)
        assert pi == [0.0, 0.0, 0.0]

    def test_market(self):
        pi = PortfolioRule("market").weights(CAPS)
        np.testing.assert_allclose(pi, [0.5, 0.1, 0.4])

    def test_equal(self):
        pi = PortfolioRule("equal").weights(CAPS)
        np.testing.assert_allclose(pi, [1 / 3] * 3)

    def test_rank_targets_by_rank(self):
        pi = PortfolioRule("rank", 0).weights(CAPS)
        assert pi == [1.0, 0.0, 0.0]
        pi = PortfolioRule("rank", 1).weights(CAPS)
        assert pi == [0.0, 0.0, 1.0]

    def test_name_targets_by_index(self):
        pi = PortfolioRule("name", 2).weights(CAPS)
        assert pi == [0.0, 0.0, 1.0]

    def test_vanished_target_goes_to_money_market(self):
        # the market can shrink below a fixed target through mergers
        small = [1.0, 2.0]
        for kind in ("rank", "name"):
            pi = PortfolioRule(kind, 4).weights(small)
            assert pi == [0.0, 0.0]

    def test_names(self):
        assert PortfolioRule("rank", 0).name == "rank-1"
        assert PortfolioRule("name", 2).name == "name-3"
        assert PortfolioRule("equal").name == "equal"


class TestWealthStep:
    def test_cash_is_identity(self):
        v = wealth_step(1.7, np.zeros(3), np.array([0.5, -0.9, 0.1]))
        assert v == 1.7

    def test_single_name_example(self):
        v = wealth_step(2.0, np.array([1.0, 0.0]), np.array([0.02, -0.5]))
        assert v == pytest.approx(2.04)

    def test_nonpositive_wealth_raises(self):
        with pytest.raises(WealthError):
            wealth_step(1.0, np.array([3.0]), np.array([-0.5]))


class TestTransfers:
    """Rules (A) and (B): the caps' event renames applied to the weights,
    a split's at the first child's cap share ``after[-2] / caps[i]``."""

    def test_merger_example(self):
        pi = [0.1, 0.2, 0.3, 0.4]
        out = apply_merger(pi, 1, 3)
        np.testing.assert_allclose(out, [0.1, 0.3, 0.6])
        assert abs(math.fsum(out) - math.fsum(pi)) <= 1e-15

    def test_merger_keeps_cash_zero(self):
        out = apply_merger([0.0] * 4, 0, 2)
        assert out == [0.0, 0.0, 0.0]

    def test_split_example(self):
        # company 2 of (2, 5, 3) splits at xi = 0.6; its weight 0.3
        # divides in proportion 3:2
        caps = [2.0, 5.0, 3.0]
        after = apply_split(caps, 1, 0.6)
        pi = [0.1, 0.3, 0.6]
        out = apply_split(pi, 1, after[-2] / caps[1])
        np.testing.assert_allclose(out, [0.1, 0.6, 0.18, 0.12])
        assert abs(math.fsum(out) - math.fsum(pi)) <= 1e-15

    def test_split_children_sum_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            caps = rng.uniform(0.5, 5.0, size=4).tolist()
            pi = rng.uniform(-0.5, 0.5, size=4).tolist()
            xi = float(rng.uniform(0.5, 0.7))
            after = apply_split(caps, 2, xi)
            out = apply_split(pi, 2, after[-2] / caps[2])
            # the two children together hold exactly the parent's weight
            assert out[3] + out[4] == pi[2]

    def test_market_portfolio_is_transfer_fixed_point(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            caps = rng.uniform(0.5, 5.0, size=5).tolist()
            mu = market_weights(caps)
            xi = float(rng.uniform(0.5, 0.7))
            after = apply_split(caps, 1, xi)
            out = apply_split(mu, 1, after[-2] / caps[1])
            np.testing.assert_allclose(out, market_weights(after), rtol=1e-12)

    def test_split_then_merge_children_restores_pi(self):
        caps = [2.0, 5.0, 3.0]
        after = apply_split(caps, 1, 0.6)
        pi = [0.2, 0.5, 0.3]
        spread = apply_split(pi, 1, after[-2] / caps[1])
        back = apply_merger(spread, 2, 3)
        assert sorted(back) == sorted(pi)

    @pytest.mark.parametrize("i", [2, -1])
    def test_split_position_out_of_range_raises_before_indexing(self, i):
        with pytest.raises(ValueError, match="out of range"):
            apply_split([0.5, 0.5], i, 0.5)

    @pytest.mark.parametrize("i, j", [(1, 3), (-1, 1), (1, 1), (2, 1)])
    def test_merger_pair_out_of_range_raises(self, i, j):
        with pytest.raises(ValueError, match="bad merger pair"):
            apply_merger([0.2, 0.3, 0.5], i, j)

import numpy as np
import pytest

from splitmerge.params import ModelParams, RankTable, SplitDist


def make_params(**kw):
    base = dict(
        drift=RankTable(0.0, 0.0),
        vol=RankTable(1.0, 0.0),
    )
    base.update(kw)
    return ModelParams(**base)


class TestRankTable:
    def test_parametric_family(self):
        t = RankTable(1.0, 2.0)
        # a + b*(k-1)/(N-1) over ranks 1..4
        np.testing.assert_allclose(t.row(4), [1.0, 1.0 + 2 / 3, 1.0 + 4 / 3, 3.0])

    def test_row_n1_does_not_divide_by_zero(self):
        assert RankTable(2.0, 5.0).row(1).tolist() == [2.0]

    def test_override_replaces_family(self):
        t = RankTable(0.0, 1.0, overrides={2: (-1.0, 1.0)})
        assert t.row(2).tolist() == [-1.0, 1.0]
        assert t.row(3).tolist() == [0.0, 0.5, 1.0]

    def test_override_wrong_length(self):
        with pytest.raises(ValueError):
            RankTable(0.0, 0.0, overrides={3: (1.0, 2.0)}).row(3)

    def test_padded_layout(self):
        t = RankTable(1.0, 1.0)
        tab = t.padded(5)
        assert tab.shape == (6, 7)
        # valid cells sit at [n, rank+1]
        assert tab[3, 1] == 1.0
        assert tab[3, 3] == 2.0
        # padding cells are exactly zero
        assert tab[3, 0] == 0.0
        assert tab[3, 4] == 0.0
        assert np.all(tab[:2] == 0.0)

    def test_extremes(self):
        assert RankTable(1.0, 2.0).extremes(8) == (1.0, 3.0)


class TestSplitDist:
    def test_point_mass(self):
        rng = np.random.default_rng(0)
        d = SplitDist("point")
        assert d.sample(rng, 0.3) == 0.5

    def test_uniform_support(self):
        rng = np.random.default_rng(0)
        d = SplitDist("uniform")
        xs = [d.sample(rng, 0.3) for _ in range(500)]
        assert all(0.5 <= x <= 0.7 for x in xs)
        assert max(xs) > 0.65 and min(xs) < 0.55

    def test_beta_support(self):
        rng = np.random.default_rng(0)
        d = SplitDist("beta", beta_a=2.0, beta_b=2.0)
        xs = [d.sample(rng, 0.4) for _ in range(300)]
        assert all(0.5 <= x <= 0.6 for x in xs)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SplitDist("triangular")

    def test_bad_beta_shapes(self):
        with pytest.raises(ValueError):
            SplitDist("beta", beta_a=0.0)


class TestModelParams:
    def test_delta0(self):
        p = make_params(delta=0.1, eps0=4.0 / 9.0)
        assert p.delta0 == pytest.approx(0.5)

    def test_valid_default(self):
        assert make_params().validate() == []

    def test_delta_rejection_cites_assumption_2(self):
        msgs = make_params(delta=0.2).validate()
        assert len(msgs) == 1
        assert msgs[0].startswith("Assumption 2 violated:")
        assert "1/6" in msgs[0]

    def test_drift_order_cites_assumption_1(self):
        # rank-1 drift above the rest violates the ordering requirement
        msgs = make_params(drift=RankTable(0.0, -1.0)).validate()
        assert any(m.startswith("Assumption 1 violated:") for m in msgs)

    def test_vol_rejection_cites_assumption_2(self):
        msgs = make_params(vol=RankTable(0.0, 0.0)).validate()
        assert any(m.startswith("Assumption 2 violated:") for m in msgs)

    def test_eps0_rejection_cites_assumption_3(self):
        msgs = make_params(eps0=0.6).validate()
        assert any(m.startswith("Assumption 3 violated:") for m in msgs)

    def test_clock_rejections_cite_assumption_5(self):
        assert any(
            m.startswith("Assumption 5 violated:")
            for m in make_params(clock_c=-1.0).validate()
        )
        assert any(
            m.startswith("Assumption 5 violated:")
            for m in make_params(clock_alpha=0.0).validate()
        )

    def test_problems_are_collected(self):
        msgs = make_params(delta=0.3, eps0=0.9, clock_c=-2.0).validate()
        assert len(msgs) == 3

    def test_require_valid_raises_with_all_problems(self):
        with pytest.raises(ValueError, match="Assumption 2"):
            make_params(delta=0.5).require_valid()
        p = make_params()
        assert p.require_valid() is p

    def test_theta_mode_checked(self):
        msgs = make_params(theta_mode="riskless").validate()
        assert any("theta_mode" in m for m in msgs)

    def test_sigma_range(self):
        p = make_params(vol=RankTable(0.5, 1.0))
        assert p.sigma_range() == (0.5, 1.5)

import numpy as np
import pytest

from splitmerge.cli import main
from splitmerge.engine import EngineRun, StepTables
from splitmerge.params import MAX_DRAWS, N_MAX_LIMIT, ModelParams, RankTable, SplitDist


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

    @pytest.mark.parametrize("eps0", [0.01, 0.3, 4.0 / 9.0])
    def test_support_mass_matches_closed_forms(self, eps0):
        hi = 1.0 - eps0
        mass = lambda a, b: SplitDist("beta", a, b).support_mass(eps0)
        assert mass(1.0, 1.0) == pytest.approx(0.5 - eps0, rel=1e-12)
        for a in (0.5, 3.0, 17.5, 1000.0):
            # Beta(a, 1) has cdf x**a
            assert mass(a, 1.0) == pytest.approx(hi**a - 0.5**a, rel=1e-9)
        cdf = lambda x: 3 * x**2 - 2 * x**3  # Beta(2, 2)
        assert mass(2.0, 2.0) == pytest.approx(cdf(hi) - 0.5, rel=1e-12)


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

    def test_beta_law_with_too_little_mass_cites_assumption_3(self):
        # Beta(1000, 1) puts 0.7**1000 on [0.5, 0.7]: the sampler would
        # give up after MAX_DRAWS draws at the first split
        msgs = make_params(
            eps0=0.3, split_dist=SplitDist("beta", 1000.0, 1.0)
        ).validate()
        assert len(msgs) == 1
        assert msgs[0].startswith("Assumption 3 violated: Beta(1000, 1) puts mass")
        assert f"{100 / MAX_DRAWS:g}" in msgs[0]

    @pytest.mark.parametrize("a, b", [(3.0, 1.5), (2.0, 2.0), (1.0, 1.0)])
    def test_beta_law_with_enough_mass_is_valid(self, a, b):
        assert make_params(eps0=0.3, split_dist=SplitDist("beta", a, b)).validate() == []

    def test_beta_law_with_nan_shape_is_rejected(self):
        msgs = make_params(split_dist=SplitDist("beta", float("nan"), 1.0)).validate()
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

    @pytest.mark.parametrize(
        "field, problem",
        [
            ("clock_c", "Assumption 5 violated: clock constant c >= 0, got nan"),
            ("clock_alpha", "Assumption 5 violated: clock exponent alpha > 0, got nan"),
        ],
    )
    def test_nan_clock_parameter_is_rejected(self, field, problem):
        # a nan constant would silence every merger clock (u < nan is false)
        assert make_params(**{field: np.nan}).validate() == [problem]

    @pytest.mark.parametrize("dt", [np.inf, -np.inf, np.nan, 0.0])
    def test_non_finite_or_nonpositive_dt_is_rejected(self, dt):
        problem = f"time step dt must be > 0 and finite, got {dt:g}"
        assert make_params(dt=dt).validate() == [problem]
        # a run names dt alone: its horizon is not compared with steps of it
        run = EngineRun(
            params=make_params(dt=dt), initial_caps=np.ones(3), horizon=1.0,
            n_paths=1, seed=0,
        )
        assert run.validate() == [problem]

    def test_infinite_dt_in_a_config_exits_two_naming_dt(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[model]\ndt = inf\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "time step dt must be > 0 and finite, got inf" in err
        assert "whole number of steps" not in err

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

    @pytest.mark.parametrize("cell", [np.nan, np.inf])
    def test_non_finite_vol_cell_cites_assumption_2(self, cell):
        vol = RankTable(1.0, 0.0, overrides={3: (1.0, cell, 1.0)})
        msgs = make_params(n_max=8, vol=vol).validate()
        assert len(msgs) == 1
        assert msgs[0].startswith("Assumption 2 violated: volatilities")

    @pytest.mark.parametrize(
        "drift, vol, problem",
        [
            (RankTable(0.0, 0.0), RankTable(1.0, 0.0, overrides={3: (1.0, 2.0)}),
             "vol override row for N=3 has length 2, not 3"),
            (RankTable(0.0, 0.0, overrides={99: (0.0,) * 99}), RankTable(1.0, 0.0),
             "drift override row for N=99 lies outside 2..n_max = 2..8"),
            (RankTable(0.0, 0.0), RankTable(1.0, 0.0, overrides={1: (1.0,)}),
             "vol override row for N=1 lies outside 2..n_max = 2..8"),
            (RankTable(0.0, 0.0, overrides={2: (0.0, np.inf)}), RankTable(1.0, 0.0),
             "Assumption 2 violated: drift table has non-finite entries at N=2"),
        ],
        ids=["short-row", "key-past-n_max", "key-below-2", "non-finite-cell"],
    )
    def test_bad_override_rows_are_listed_not_raised(self, drift, vol, problem):
        assert make_params(n_max=8, drift=drift, vol=vol).validate() == [problem]

    def test_every_bad_override_row_is_listed(self):
        drift = RankTable(0.0, 0.0, overrides={3: (1.0,), 9: (0.0,) * 9})
        vol = RankTable(1.0, 0.0, overrides={4: (1.0, 1.0, 1.0)})
        assert make_params(n_max=8, drift=drift, vol=vol).validate() == [
            "drift override row for N=3 has length 1, not 3",
            "drift override row for N=9 lies outside 2..n_max = 2..8",
            "vol override row for N=4 has length 3, not 4",
        ]

    def test_non_finite_vol_cell_names_its_row(self):
        vol = RankTable(1.0, 0.0, overrides={4: (1.0, np.nan, 1.0, 1.0)})
        assert make_params(n_max=8, vol=vol).validate() == [
            "Assumption 2 violated: volatilities must be finite; vol table "
            "has non-finite entries at N=4"
        ]

    @pytest.mark.parametrize(
        "c, alpha", [(1.0, 1000.0), (1e-300, 200.0), (1e308, 1.0), (1.0, np.inf)]
    )
    def test_clock_rate_overflow_cites_assumption_5(self, c, alpha):
        # c * N**alpha, or N**alpha on its own, overflows at n_max = 64
        msgs = make_params(clock_c=c, clock_alpha=alpha).validate()
        assert len(msgs) == 1
        assert msgs[0].startswith("Assumption 5 violated: clock rate")
        assert f"clock_alpha = {alpha:g}" in msgs[0]

    def test_largest_finite_clock_rate_is_valid(self):
        # 64**170 = 2**1020 is finite, as is every rate below it
        p = make_params(clock_c=1.0, clock_alpha=170.0)
        assert p.validate() == []
        assert np.isfinite(StepTables.build(p).pstep).all()
        assert make_params(clock_c=0.0, clock_alpha=1000.0).validate() == []

    @pytest.mark.parametrize("n_max", [2, -4, N_MAX_LIMIT + 1, 100_000_000])
    def test_n_max_out_of_range_is_the_only_table_problem(self, n_max):
        # checked first; no table is read, so no bogus table range
        msgs = make_params(n_max=n_max, vol=RankTable(0.0, 0.0)).validate()
        assert msgs == [f"company cap n_max must lie in [3, 1024], got {n_max}"]

    def test_n_max_limit_is_valid(self):
        assert make_params(n_max=N_MAX_LIMIT).validate() == []

    def test_sigma_range(self):
        p = make_params(vol=RankTable(0.5, 1.0))
        assert p.sigma_range() == (0.5, 1.5)

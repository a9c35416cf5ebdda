import dataclasses
import math

import numpy as np
import pytest

from splitmerge.engine import EngineRun, run_paths
from splitmerge.girsanov import GirsanovState, accumulate, theta_row
from splitmerge.harness import _zv_stats
from splitmerge.params import ModelParams, RankTable
from splitmerge.portfolio import PortfolioRule


def make_params(**kw):
    base = dict(drift=RankTable(0.0, 0.0), vol=RankTable(1.0, 0.0))
    base.update(kw)
    return ModelParams(**base)


class TestTheta:
    def test_growth_mode_is_drift_over_vol(self):
        p = make_params(theta_mode="growth")
        assert theta_row(p, 3).tolist() == [0.0, 0.0, 0.0]

    def test_martingale_mode_includes_ito_term(self):
        p = make_params(theta_mode="martingale")
        assert theta_row(p, 3).tolist() == [0.5, 0.5, 0.5]

    def test_log_drift_cancels_ito_correction(self):
        p = make_params(drift=RankTable(-0.5, 0.0), theta_mode="martingale")
        assert theta_row(p, 4)[1] == 0.0

    def test_mode_follows_params(self):
        p = make_params(theta_mode="martingale")
        growth = dataclasses.replace(p, theta_mode="growth")
        assert theta_row(growth, 3).tolist() == [0.0, 0.0, 0.0]

    def test_row_matches_scalar(self):
        # each entry is the scalar formula at that rank, in either mode
        p = make_params(
            drift=RankTable(0.1, 0.3), vol=RankTable(0.8, 0.4)
        )
        growth = dataclasses.replace(p, theta_mode="growth")
        g_row, s_row = p.drift.row(5), p.vol.row(5)
        for k, th in enumerate(theta_row(growth, 5)):
            assert th == g_row[k] / s_row[k]
        for k, th in enumerate(theta_row(p, 5)):
            g, s = g_row[k], s_row[k]
            assert th == (g + 0.5 * s * s) / s


class TestAccumulate:
    def test_zero_theta_keeps_z_at_one(self):
        # growth mode with zero drift: theta = 0, so Z stays exactly 1
        p = make_params(theta_mode="growth")
        gs = GirsanovState()
        rng = np.random.default_rng(0)
        caps = np.array([2.0, 1.0, 3.0])
        for _ in range(50):
            gs = accumulate(gs, caps, p, rng.standard_normal(3))
        assert gs.log_z == 0.0

    def test_qv_pathwise_bound(self):
        p = make_params(drift=RankTable(0.2, 0.1), vol=RankTable(0.9, 0.2))
        c = max(np.abs(theta_row(p, n)).max() for n in range(2, p.n_max + 1))
        gs = GirsanovState()
        rng = np.random.default_rng(1)
        caps = np.array([2.0, 1.0, 3.0, 0.5])
        steps = 200
        for _ in range(steps):
            gs = accumulate(gs, caps, p, rng.standard_normal(4))
        horizon = steps * p.dt
        assert gs.qv <= c * c * horizon * 4 + 1e-12
        assert gs.qv > 0.0

    def test_deterministic_replay(self):
        p = make_params()
        caps = np.array([1.0, 2.0])

        def run():
            gs = GirsanovState()
            rng = np.random.default_rng(7)
            for _ in range(20):
                gs = accumulate(gs, caps, p, rng.standard_normal(2))
            return gs

        a, b = run(), run()
        assert a.m == b.m and a.qv == b.qv and a.log_z == b.log_z


class TestLognormalZ:
    def test_fixed_count_moments(self):
        # constant theta, no events: log Z(T) is exactly normal with
        # mean -theta^2 N T / 2 and variance theta^2 N T
        p = make_params(
            vol=RankTable(0.3, 0.0),
            clock_c=0.0,
            clock_alpha=1.0,
            theta_mode="martingale",
            dt=1e-3,
        )
        th = 0.15  # (0 + 0.09/2) / 0.3
        n, horizon, paths = 5, 0.5, 4000
        res = run_paths(
            EngineRun(
                params=p,
                initial_caps=np.ones(n),
                horizon=horizon,
                n_paths=paths,
                seed=21,
            )
        )
        assert res.instr.splits == 0 and res.instr.mergers == 0
        logz = res.final_log_z
        mean_want = -0.5 * th * th * n * horizon
        var_want = th * th * n * horizon
        se_mean = math.sqrt(var_want / paths)
        assert abs(logz.mean() - mean_want) <= 3 * se_mean
        assert abs(logz.var(ddof=1) - var_want) <= 4 * var_want / math.sqrt(
            paths
        )
        np.testing.assert_allclose(res.final_qv, var_want, rtol=1e-12)


def _zv_estimate(rule, seed):
    """E[Z V] and its standard error for one rule in an event-active market."""
    p = make_params(clock_c=2.0, clock_alpha=1.0, eps0=4.0 / 9.0)
    assert p.theta_mode == "martingale"
    res = run_paths(
        EngineRun(
            params=p, initial_caps=np.array([1.0, 1.0, 2.0]), horizon=0.5,
            n_paths=4000, seed=seed, rules=(rule,),
        )
    )
    assert res.ok.all()
    return _zv_stats(res)[1][1:]


class TestMartingaleTest:
    def test_cash_rule_estimates_density_normalization(self):
        est, se = _zv_estimate(PortfolioRule("cash"), 9)
        assert abs(est - 1.0) <= 3.0 * se, (est, se)

    def test_market_rule(self):
        est, se = _zv_estimate(PortfolioRule("market"), 10)
        assert abs(est - 1.0) <= 3.0 * se, (est, se)

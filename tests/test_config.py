"""INI config loading: defaults, overrides, and collected problems."""

from pathlib import Path

import numpy as np
import pytest

from splitmerge.config import (
    ConfigError,
    RunConfig,
    load_config,
    parse_rule,
)
from splitmerge.harness import active_initial, active_params
from splitmerge.portfolio import PortfolioRule


def load_text(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return load_config(str(p))


class TestDefaults:
    def test_no_file_at_all(self):
        cfg = load_config(None)
        assert isinstance(cfg, RunConfig)
        assert np.array_equal(cfg.initial_caps, np.ones(3))
        assert cfg.params.delta == 0.1
        assert cfg.params.theta_mode == "martingale"
        assert cfg.run.paths == 1000
        assert cfg.run.seed == 7
        assert cfg.run.portfolio.kind == "market"

    def test_empty_file(self, tmp_path):
        cfg = load_text(tmp_path, "")
        assert cfg.params.clock_c == 1.0
        assert cfg.params.clock_alpha == 2.0
        assert cfg.run.horizon == 1.0
        assert cfg.run.stride == 0

    def test_params_are_valid_out_of_the_box(self):
        load_config(None).params.require_valid()


class TestOverrides:
    def test_model_section(self, tmp_path):
        cfg = load_text(
            tmp_path,
            """
            [model]
            drift_a = -0.2
            drift_b = 0.4
            vol_a = 0.7
            vol_b = 0.3
            delta = 0.12
            eps0 = 0.45
            clock_c = 3.5
            clock_alpha = 1.0
            dt = 0.0005
            theta_mode = growth
            split_dist = beta
            beta_a = 3.0
            beta_b = 1.5
            """,
        )
        p = cfg.params
        assert p.drift.a == -0.2 and p.drift.b == 0.4
        assert p.vol.a == 0.7 and p.vol.b == 0.3
        assert p.delta == 0.12 and p.eps0 == 0.45
        assert p.clock_c == 3.5 and p.clock_alpha == 1.0
        assert p.dt == 0.0005
        assert p.theta_mode == "growth"
        assert p.split_dist.kind == "beta"
        assert p.split_dist.beta_a == 3.0

    def test_explicit_caps(self, tmp_path):
        cfg = load_text(tmp_path, "[initial]\ncaps = 4, 1, 1, 1, 1\n")
        assert np.array_equal(
            cfg.initial_caps, np.array([4.0, 1.0, 1.0, 1.0, 1.0])
        )

    def test_count_shorthand(self, tmp_path):
        cfg = load_text(tmp_path, "[initial]\nn = 6\n")
        assert np.array_equal(cfg.initial_caps, np.ones(6))

    def test_run_section(self, tmp_path):
        cfg = load_text(
            tmp_path,
            """
            [run]
            horizon = 2.5
            paths = 500
            seed = 42
            workers = 4
            stride = 10
            portfolio = rank:2
            """,
        )
        r = cfg.run
        assert r.horizon == 2.5 and r.paths == 500 and r.seed == 42
        assert r.workers == 4 and r.stride == 10
        assert r.portfolio.kind == "rank" and r.portfolio.k == 1

    def test_inline_comments(self, tmp_path):
        cfg = load_text(
            tmp_path,
            "[model]\ndelta = 0.12 ; tighter threshold\n"
            "[run]\nseed = 3 # reproducibility\n",
        )
        assert cfg.params.delta == 0.12
        assert cfg.run.seed == 3


class TestParseRule:
    def test_plain_kinds(self):
        assert parse_rule("market").kind == "market"
        assert parse_rule(" CASH ").kind == "cash"
        assert parse_rule("equal").kind == "equal"

    def test_indexed_kinds_are_one_based(self):
        r = parse_rule("rank:2")
        assert r.kind == "rank" and r.k == 1
        r = parse_rule("name:1")
        assert r.kind == "name" and r.k == 0

    def test_rejects_zero_index(self):
        with pytest.raises(ValueError, match=">= 1"):
            parse_rule("name:0")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rule("leveraged")
        with pytest.raises(ValueError):
            parse_rule("rank:two")
        with pytest.raises(ValueError, match="needs an index"):
            parse_rule("rank")


class TestProblems:
    def err(self, tmp_path, text):
        with pytest.raises(ConfigError) as ei:
            load_text(tmp_path, text)
        return ei.value

    def test_assumption_violation_cites_assumption(self, tmp_path):
        e = self.err(tmp_path, "[model]\ndelta = 0.2\n")
        assert any("Assumption 2" in p for p in e.problems)
        assert "1/6" in str(e)

    def test_negative_drift_slope(self, tmp_path):
        e = self.err(tmp_path, "[model]\ndrift_b = -0.5\n")
        assert any("Assumption 1" in p for p in e.problems)

    def test_multiple_problems_collected(self, tmp_path):
        e = self.err(
            tmp_path,
            "[model]\ndelta = 0.2\ndt = -1\n[run]\npaths = 0\n",
        )
        assert len(e.problems) >= 3
        assert any("paths" in p for p in e.problems)

    def test_zero_paths_rejected(self, tmp_path):
        e = self.err(tmp_path, "[run]\npaths = 0\n")
        assert any("paths must be positive" in p for p in e.problems)

    def test_unknown_section(self, tmp_path):
        e = self.err(tmp_path, "[portfolio]\nkind = market\n")
        assert any("unknown section" in p for p in e.problems)

    def test_misspelt_keys_are_reported(self, tmp_path):
        # a typo must not fall back to the default silently
        e = self.err(tmp_path, "[model]\ndetla = 0.2\n[run]\npaht = 5\n")
        assert e.problems == [
            "[model] detla: unknown key",
            "[run] paht: unknown key",
        ]

    def test_unparsable_number_reports_key(self, tmp_path):
        e = self.err(tmp_path, "[model]\ndelta = often\n")
        assert any("[model] delta" in p for p in e.problems)

    def test_caps_and_n_conflict(self, tmp_path):
        e = self.err(tmp_path, "[initial]\ncaps = 1, 1\nn = 2\n")
        assert any("either caps or n" in p for p in e.problems)

    def test_single_cap_rejected(self, tmp_path):
        e = self.err(tmp_path, "[initial]\ncaps = 5\n")
        assert any("at least 2" in p for p in e.problems)

    def test_nonpositive_caps_rejected(self, tmp_path):
        e = self.err(tmp_path, "[initial]\ncaps = 1, -2, 1\n")
        assert any("positive" in p for p in e.problems)

    def test_too_many_companies_for_cap(self, tmp_path):
        caps = ", ".join(["1"] * 64)
        e = self.err(tmp_path, f"[initial]\ncaps = {caps}\n")
        assert any("n_max" in p for p in e.problems)

    def test_count_below_two(self, tmp_path):
        e = self.err(tmp_path, "[initial]\nn = 1\n")
        assert any("at least 2" in p for p in e.problems)

    def test_negative_count(self, tmp_path):
        e = self.err(tmp_path, "[initial]\nn = -3\n")
        assert any("at least 2" in p for p in e.problems)

    def test_huge_count_is_reported_not_allocated(self, tmp_path):
        # 10**15 unit caps would take 7 PiB; the count alone is compared
        e = self.err(tmp_path, "[initial]\nn = 1000000000000000\n")
        assert e.problems == [
            "initial_caps: 1000000000000000 companies but n_max = 64"
        ]

    def test_portfolio_target_outside_market(self, tmp_path):
        e = self.err(
            tmp_path, "[initial]\nn = 3\n[run]\nportfolio = name:7\n"
        )
        assert any("targets company 7" in p for p in e.problems)

    def test_bad_theta_mode(self, tmp_path):
        e = self.err(tmp_path, "[model]\ntheta_mode = classic\n")
        assert any("theta_mode" in p for p in e.problems)

    def test_bad_split_dist(self, tmp_path):
        e = self.err(tmp_path, "[model]\nsplit_dist = triangular\n")
        assert any("split_dist" in p for p in e.problems)

    def test_negative_run_values(self, tmp_path):
        e = self.err(
            tmp_path, "[run]\nhorizon = -1\nworkers = 0\nstride = -2\nseed = -3\n"
        )
        joined = "\n".join(e.problems)
        assert "horizon" in joined and "workers" in joined
        assert "stride" in joined and "seed" in joined

    @pytest.mark.parametrize(
        "horizon, steps", [("0.0004", 0), ("0.0015", 2), ("0.0025", 2)]
    )
    def test_horizon_must_be_whole_steps(self, tmp_path, horizon, steps):
        # dt is 1e-3 by default
        e = self.err(tmp_path, f"[run]\nhorizon = {horizon}\n")
        assert any(f"would round to {steps} steps" in p for p in e.problems)

    def test_horizon_within_rounding_of_whole_steps_accepted(self, tmp_path):
        # 0.7 / 0.1 is 6.999999999999999 in floating point
        cfg = load_text(tmp_path, "[model]\ndt = 0.1\n[run]\nhorizon = 0.7\n")
        assert cfg.run.horizon == 0.7


SHIPPED = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"


class TestShippedConfig:
    def test_default_cfg_parses_and_validates(self):
        cfg = load_config(str(SHIPPED))
        cfg.params.require_valid()
        assert cfg.run.paths > 0

    def test_default_cfg_is_the_verify_scenario(self):
        # the scenario of the verification checks, and check_workers' run
        cfg = load_config(str(SHIPPED))
        assert cfg.params == active_params()
        assert cfg.initial_caps.tolist() == active_initial().tolist()
        assert cfg.run.horizon == 0.5
        assert cfg.run.stride == 100
        assert cfg.run.portfolio == PortfolioRule("equal")

"""Command line entry points, run in-process through main(argv)."""

import json
import time

import pytest

from splitmerge.cli import main


def write_cfg(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


TINY = """
[model]
clock_c = 2.0
clock_alpha = 1.0
eps0 = 0.4444
[initial]
caps = 14, 0.5, 0.5, 0.5
[run]
horizon = 0.05
paths = 32
seed = 5
stride = 10
portfolio = equal
"""


class TestParser:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["--help"])
        assert ei.value.code == 0
        assert "simulate" in capsys.readouterr().out

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as ei:
            main([])
        assert ei.value.code == 2


class TestSimulate:
    def test_writes_outputs_and_prints_summary(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TINY)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", cfg, "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "paths: 32" in text
        assert "splits:" in text
        for name in ("series.csv", "events.jsonl", "summary.json"):
            assert (out / name).exists()
        assert json.loads((out / "summary.json").read_text())["paths"] == 32

    def test_overrides_apply(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TINY)
        rc = main(["simulate", "--config", cfg, "--paths", "8"])
        assert rc == 0
        assert "paths: 8" in capsys.readouterr().out

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[model]\ndelta = 0.2\n")
        rc = main(["simulate", "--config", cfg])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Assumption 2" in err

    def test_huge_n_max_exits_two_before_building_anything(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[model]\nn_max = 100000000\n")
        t0 = time.perf_counter()
        assert main(["simulate", "--config", cfg]) == 2
        assert time.perf_counter() - t0 < 5.0
        err = capsys.readouterr().err
        assert "n_max must lie in [3, 1024], got 100000000" in err

    @pytest.mark.parametrize("command", ["simulate", "bound-check"])
    def test_clock_rate_overflow_exits_two(self, command, tmp_path, capsys):
        # 64**1000 overflows; validation reports it before any table is built
        cfg = write_cfg(tmp_path, "[model]\nclock_alpha = 1000\n")
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "Assumption 5 violated" in err and "clock_alpha = 1000" in err

    @pytest.mark.parametrize("key", ["clock_c", "clock_alpha"])
    def test_nan_clock_parameter_exits_two(self, key, tmp_path, capsys):
        cfg = write_cfg(tmp_path, f"[model]\n{key} = nan\n")
        assert main(["simulate", "--config", cfg, "--paths", "8"]) == 2
        assert "Assumption 5 violated" in capsys.readouterr().err

    def test_defaults_run_without_config(self, capsys):
        rc = main(["simulate", "--paths", "16", "--horizon", "0.02"])
        assert rc == 0
        assert "ok_paths: 16" in capsys.readouterr().out


class TestVerify:
    def test_unknown_check_rejected(self, capsys):
        rc = main(["verify", "--only", "made-up-check"])
        assert rc == 2
        # on stderr, like every exit-2 problem, so a redirected report
        # cannot hide it
        err = capsys.readouterr().err
        assert "unknown check 'made-up-check'" in err
        assert "choices: diversity, conservation" in err

    def test_shared_checks_smoke(self, tmp_path, capsys):
        report_file = tmp_path / "report.txt"
        rc = main([
            "verify",
            "--only", "diversity,conservation,suppression,market-identity",
            "--scale", "0.05",
            "--out", str(report_file),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS  diversity" in out
        assert "ALL CHECKS PASSED" in out
        assert "seed 11" in out.splitlines()[0]
        assert report_file.read_text().strip().endswith("ALL CHECKS PASSED")


class TestBoundCheck:
    def test_identities_hold(self, capsys):
        rc = main(["bound-check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "identities hold" in out

    def test_fast_clock_bounds_underflow_to_a_valid_zero(self, tmp_path, capsys):
        # every split-race and double-jump bound underflows to 0.0 here
        cfg = write_cfg(tmp_path, "[model]\nclock_alpha = 100\n")
        assert main(["bound-check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "N=3 lam=5.15378e+47: 0.000000\n" in out
        assert out.rstrip().endswith("identities hold")

    def test_rate_that_overflows_at_the_wider_cap_exits_two(self, tmp_path, capsys):
        # 64**170 is finite, so the config is valid; bound-check evaluates
        # the explosion bound at n_max = 80, where 79**170 is not
        cfg = write_cfg(tmp_path, "[model]\nclock_alpha = 170\n")
        assert main(["bound-check", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert (
            "bound-check evaluates at n_max = 80: Assumption 5 violated: "
            "clock rate c * N**alpha overflows at N = n_max = 80" in err
        )


class TestMartingale:
    def test_small_run_passes(self, capsys):
        rc = main(["verify", "--only", "martingale", "--scale", "0.02"])
        out = capsys.readouterr().out
        assert "PASS  martingale" in out
        assert rc == 0, out


class TestTail:
    def test_small_run_passes(self, capsys):
        rc = main(["verify", "--only", "tail-monotone", "--scale", "0.02"])
        out = capsys.readouterr().out
        assert "PASS  tail-monotone" in out
        assert rc == 0, out


# stands for a config file with misspelt keys, written per test
TYPO = "<typo.cfg>"


class TestFlags:
    @pytest.mark.parametrize(
        "argv, problem",
        [
            (["simulate", "--horizon", "-1"], "horizon must be positive"),
            (["simulate", "--paths", "0"], "paths must be positive"),
            (["simulate", "--paths", "many"], "[run] paths = 'many'"),
            (["simulate", "--dt", "-1"], "dt must be > 0"),
            (["simulate", "--seed", "-3"], "seed must be nonnegative"),
            (["simulate", "--workers", "0"], "workers must be at least 1"),
            (["simulate", "--horizon", "0.0004"], "would round to 0 steps"),
            (["simulate", "--config", "nope.cfg"],
             "cannot read config file 'nope.cfg'"),
            (["bound-check", "--config", "nope.cfg"],
             "cannot read config file 'nope.cfg'"),
            (["bound-check", "--config", TYPO], "[model] detla: unknown key"),
            (["simulate", "--config", TYPO], "[run] paht: unknown key"),
            (["verify", "--config", "x"], "unrecognized arguments: --config"),
            (["verify", "--seed", "-3"], "--seed must be nonnegative"),
            (["bound-check", "--paths", "5"], "unrecognized arguments: --paths"),
            (["martingale"], "invalid choice: 'martingale'"),
            (["tail"], "invalid choice: 'tail'"),
            (["verify", "--scale", "nan"], "--scale a positive finite number"),
            (["verify", "--scale", "inf"], "--scale a positive finite number"),
            (["verify", "--scale", "0"], "--scale a positive finite number"),
            (["verify", "--scale", "-1"], "--scale a positive finite number"),
            # split-race draws from the base seed + 2
            (["verify", "--seed", str(2**64 - 1), "--only", "split-race"],
             "--seed must be below 2**64 - 3 for the selected checks"),
        ],
    )
    def test_bad_flag_exits_two_naming_the_problem(
        self, argv, problem, capsys, tmp_path
    ):
        typo = write_cfg(tmp_path, "[model]\ndetla = 0.2\n[run]\npaht = 5\n")
        argv = [typo if arg == TYPO else arg for arg in argv]
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the command line itself
            rc = exc.code
        assert rc == 2
        assert problem in capsys.readouterr().err

    def test_beta_law_the_sampler_cannot_serve_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "[model]\nsplit_dist = beta\nbeta_a = 1000\nbeta_b = 1\neps0 = 0.3\n"
            "[initial]\ncaps = 14, 0.5, 0.5, 0.5\n",
        )
        assert main(["simulate", "--config", cfg, "--paths", "4"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "Assumption 3 violated: Beta(1000, 1) puts mass" in err

    def test_bad_split_dist_shape_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[model]\nsplit_dist = beta\nbeta_a = -1\n")
        assert main(["simulate", "--config", cfg]) == 2
        assert (
            "[model] split_dist: beta split distribution needs positive "
            "shape parameters" in capsys.readouterr().err
        )

    def test_flag_equals_the_same_value_in_the_file(self, tmp_path, capsys):
        flags = write_cfg(tmp_path, TINY)
        assert main(["simulate", "--config", flags, "--seed", "9",
                     "--horizon", "0.03", "--dt", "0.002"]) == 0
        via_flags = capsys.readouterr().out
        text = TINY.replace("seed = 5", "seed = 9").replace(
            "horizon = 0.05", "horizon = 0.03"
        ).replace("[model]", "[model]\ndt = 0.002")
        p = tmp_path / "same.cfg"
        p.write_text(text)
        assert main(["simulate", "--config", str(p)]) == 0
        assert capsys.readouterr().out == via_flags

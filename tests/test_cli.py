"""Command line entry points, run in-process through main(argv)."""

import json
import time

import pytest

from splitmerge import cli, harness
from splitmerge.cli import main
from splitmerge.config import load_config


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

    @pytest.mark.parametrize("under", ["", "x"], ids=["a_file", "under_a_file"])
    def test_out_that_cannot_be_a_directory_exits_two_before_running(
        self, under, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            harness, "run_paths", lambda *a: pytest.fail("the engine ran")
        )
        taken = tmp_path / "taken"
        taken.write_text("")
        out = str(taken / under) if under else str(taken)
        assert main(["simulate", "--paths", "4", "--out", out]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert f"cannot write output {out!r}" in err

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

    def test_report_that_cannot_be_written_exits_two_before_running(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "verify_all", lambda *a: pytest.fail("checks ran"))
        report = str(tmp_path / "missing" / "report.txt")
        assert main(["verify", "--only", "diversity", "--out", report]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert f"cannot write output {report!r}: No such file" in err


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

    def test_silent_clock_prints_every_row_and_skips_the_doubling_check(
        self, tmp_path, capsys
    ):
        # clock_c = 0 is valid; with no clock the explosion bound has no
        # Poisson tail and grows with L, which is no identity of the
        # formulas, so the tightening check does not apply
        cfg = write_cfg(tmp_path, "[model]\nclock_c = 0\n")
        assert main(["bound-check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if line.startswith("  L=")]
        assert len(rows) == 3
        assert all("log sigma2=-inf" in row for row in rows)
        assert out.splitlines()[-2:] == [
            "  silent clock: the check that the bound tightens with L "
            "does not apply",
            "identities hold",
        ]

    def test_running_clock_keeps_the_doubling_check(self, tmp_path, capsys):
        # a slow clock leaves the bound growing with L: the check fails
        cfg = write_cfg(tmp_path, "[model]\nclock_c = 1e-9\n")
        assert main(["bound-check", "--config", cfg]) == 1
        out = capsys.readouterr().out
        assert "silent clock" not in out
        assert out.rstrip().endswith("identity check FAILED")

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

    @pytest.mark.parametrize(
        "text, L, alpha, product",
        [
            # horizon * lambda is not finite: it has no integer ceiling
            ("[model]\nclock_c = 1e300\nclock_alpha = 1\n[run]\nhorizon = 1e10\n",
             10, "1", "1e+10 * 1.9e+301"),
            # a silent clock's alpha is free, and 10**1000 is not finite
            ("[model]\nclock_c = 0\nclock_alpha = 1000\n", 10, "1000", "1 * 0"),
            # horizon * lambda = 1.58e308 has a ceiling, but twice it is inf
            ("[model]\nclock_c = 1e300\nclock_alpha = 1\n[run]\nhorizon = 2e6\n",
             40, "1", "2e+06 * 7.9e+301"),
            # 40**192.3 = 1.2e308 is finite, but 8 times it is inf
            ("[model]\nclock_c = 0\nclock_alpha = 192.3\n", 40, "192.3", "1 * 0"),
        ],
    )
    def test_event_count_that_overflows_exits_two(
        self, text, L, alpha, product, tmp_path, capsys
    ):
        # the config is valid, but the event count u of the explosion
        # bound at L overflows
        cfg = write_cfg(tmp_path, text)
        assert load_config(cfg).params.validate() == []
        assert main(["bound-check", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert (
            f"bound-check at L = {L}: the event count u = max(8 L**alpha, "
            "2 ceil(horizon * lambda)) overflows, with alpha = "
            f"{alpha} and horizon * lambda = {product}" in err
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
            # 1e30 steps would run until killed
            (["simulate", "--dt", "1e-30", "--paths", "2"],
             "horizon = 1.0 is 1e+30 steps of dt = 1e-30"),
            # an empty selection is no selection, not every check
            (["verify", "--only", ""], "no check selected"),
            (["verify", "--only", ","], "no check selected"),
        ],
    )
    def test_bad_flag_exits_two_naming_the_problem(
        self, argv, problem, capsys, tmp_path, monkeypatch
    ):
        def verify_all(*args):  # a bad flag must exit before any check runs
            raise AssertionError("verify_all ran")

        monkeypatch.setattr(cli, "verify_all", verify_all)
        typo = write_cfg(tmp_path, "[model]\ndetla = 0.2\n[run]\npaht = 5\n")
        argv = [typo if arg == TYPO else arg for arg in argv]
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the command line itself
            rc = exc.code
        assert rc == 2
        assert problem in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, flags, problems",
        [
            (b"delta = 0.1\n", [],
             ["cannot parse", "File contains no section headers"]),
            (b"[model]\ndelta = 0.1\ndelta = 0.2\n", [],
             ["cannot parse", "option 'delta' in section 'model' already exists"]),
            (b"[model]\n[run]\n[model]\n", [],
             ["cannot parse", "section 'model' already exists"]),
            (b"[model]\n  stray\n", [],
             ["cannot parse", "Source contains parsing errors"]),
            (b"[model]\ndelta = 0.1\xff\n", [],
             ["cannot parse", "can't decode byte 0xff"]),
            # values are literal: a % fails the key's own check
            (b"[model]\ntheta_mode = growth%\n", [], ["got 'growth%'"]),
            (b"[model]\ntheta_mode = %(nope)s\n", [], ["got '%(nope)s'"]),
            (b"", ["--paths", "a%b"], ["[run] paths = 'a%b'"]),
            # [DEFAULT] is a section like any other: neither ignored nor
            # copied into the others
            (b"[DEFAULT]\ndelta = 0.5\n", [], ["unknown section [DEFAULT]"]),
            (b"[DEFAULT]\ndelta = 0.5\n[run]\npaths = 8\n", [],
             ["unknown section [DEFAULT]"]),
        ],
    )
    def test_malformed_config_exits_two_naming_the_problem(
        self, text, flags, problems, tmp_path, capsys
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(text)
        assert main(["simulate", "--config", str(cfg), *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        for problem in problems:
            assert problem in err
        if problems[0] == "cannot parse":
            assert f"cannot parse config file {str(cfg)!r}" in err

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

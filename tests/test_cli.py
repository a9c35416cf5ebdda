"""Command line entry points, run in-process through main(argv)."""

import json

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

    def test_defaults_run_without_config(self, capsys):
        rc = main(["simulate", "--paths", "16", "--horizon", "0.02"])
        assert rc == 0
        assert "ok_paths: 16" in capsys.readouterr().out


class TestVerify:
    def test_unknown_check_rejected(self, capsys):
        rc = main(["verify", "--only", "made-up-check"])
        assert rc == 2
        assert "unknown check" in capsys.readouterr().out

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
            (["verify", "--config", "x"], "unrecognized arguments: --config"),
            (["verify", "--seed", "-3"], "--seed must be nonnegative"),
            (["bound-check", "--paths", "5"], "unrecognized arguments: --paths"),
            (["martingale"], "invalid choice: 'martingale'"),
            (["tail"], "invalid choice: 'tail'"),
        ],
    )
    def test_bad_flag_exits_two_naming_the_problem(self, argv, problem, capsys):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the command line itself
            rc = exc.code
        assert rc == 2
        assert problem in capsys.readouterr().err

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

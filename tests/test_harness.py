"""Report plumbing, output writers, and the orchestrated run."""

import json
import os

import numpy as np

from splitmerge.config import load_config
from splitmerge.events import EventRecord
from splitmerge.harness import (
    SERIES_HEADER,
    CheckRow,
    RunReport,
    active_initial,
    active_params,
    simulate_run,
    write_events_jsonl,
    write_series_csv,
)
from splitmerge.streams import ALGORITHM_ID


class TestReport:
    def test_row_render(self):
        row = CheckRow("diversity", True, "max weight 0.89 <= 0.9")
        assert row.render() == "PASS  diversity: max weight 0.89 <= 0.9"
        row = CheckRow("tail", False, "slope fell")
        assert row.render() == "FAIL  tail: slope fell"

    def test_report_verdict(self):
        rep = RunReport(rows=[CheckRow("a", True, "x")])
        assert rep.all_passed
        assert rep.render().endswith("ALL CHECKS PASSED")
        rep.rows.append(CheckRow("b", False, "y"))
        assert not rep.all_passed
        assert rep.render().endswith("CHECKS FAILED")

    def test_report_provenance_line(self):
        rep = RunReport(rows=[], seed=11, algorithm=ALGORITHM_ID, elapsed=2.5)
        first = rep.render().splitlines()[0]
        assert "seed 11" in first
        assert ALGORITHM_ID in first
        assert "2.5s" in first

    def test_report_without_seed_has_no_header(self):
        rep = RunReport(rows=[CheckRow("a", True, "x")])
        assert rep.render().splitlines()[0].startswith("PASS")


class TestWriters:
    def test_series_csv(self, tmp_path):
        p = tmp_path / "series.csv"
        write_series_csv(str(p), ["0,0.0,3,0.5,1.0,1.0,1.0"])
        lines = p.read_text().splitlines()
        assert lines[0] == SERIES_HEADER
        assert lines[1].startswith("0,0.0,3,")
        assert len(lines) == 2

    def test_events_jsonl(self, tmp_path):
        p = tmp_path / "events.jsonl"
        rec = EventRecord(
            path=0, t=0.25, kind="split", i=1, j=None, xi=0.6,
            n_before=3, n_after=4,
        )
        write_events_jsonl(str(p), [rec, rec])
        lines = p.read_text().splitlines()
        assert len(lines) == 2
        obj = json.loads(lines[0])
        assert obj["kind"] == "split" and obj["xi"] == 0.6

    def test_header_matches_engine_row_width(self):
        assert len(SERIES_HEADER.split(",")) == 7


class TestActiveConfig:
    def test_entry_state_is_concentrated(self):
        caps = active_initial()
        mu1 = caps.max() / caps.sum()
        params = active_params()
        assert mu1 > 1.0 - params.delta  # forces a split at t = 0

    def test_params_valid(self):
        active_params().require_valid()
        active_params(theta_mode="growth").require_valid()


class TestSimulateRun:
    def cfg(self, tmp_path, extra=""):
        p = tmp_path / "run.cfg"
        p.write_text(
            "[model]\nclock_c = 2.0\nclock_alpha = 1.0\neps0 = 0.4444\n"
            "[initial]\ncaps = 14, 0.5, 0.5, 0.5\n"
            "[run]\nhorizon = 0.05\npaths = 64\nseed = 5\nstride = 10\n"
            + extra
        )
        return load_config(str(p))

    def test_writes_three_files(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        cfg = self.cfg(tmp_path, "portfolio = equal\n")
        res, summary = simulate_run(cfg, str(out))
        for name in ("series.csv", "events.jsonl", "summary.json"):
            assert (out / name).exists(), name
        assert summary["paths"] == 64
        assert summary["splits"] >= 64  # every path splits on entry
        assert summary["ok_paths"] + summary["exploded"] + summary[
            "overflowed"
        ] <= 64
        on_disk = json.loads((out / "summary.json").read_text())
        assert on_disk == summary
        first = (out / "series.csv").read_text().splitlines()[0]
        assert first == SERIES_HEADER
        ev = (out / "events.jsonl").read_text().splitlines()
        assert len(ev) == summary["splits"] + summary["mergers"] + summary[
            "suppressed"
        ]

    def test_market_portfolio_duplicates_column(self, tmp_path):
        cfg = self.cfg(tmp_path)  # portfolio defaults to market
        res, summary = simulate_run(cfg, None)
        assert summary["mean_v_market"] == summary["mean_v_portfolio"]

    def test_no_output_dir_writes_nothing(self, tmp_path):
        cfg = self.cfg(tmp_path)
        before = set(os.listdir(tmp_path))
        simulate_run(cfg, None)
        assert set(os.listdir(tmp_path)) == before

    def test_summary_fields_complete(self, tmp_path):
        cfg = self.cfg(tmp_path)
        _, summary = simulate_run(cfg, None)
        assert set(summary) == {
            "paths", "ok_paths", "exploded", "overflowed", "wealth_zero",
            "splits", "mergers", "suppressed", "mean_final_n",
            "mean_v_market", "mean_v_portfolio",
        }

    def test_status_counts_add_up_with_wealth_at_zero(self, tmp_path):
        # a cap that shrinks by more than 2**-53 in one step has a return
        # of exactly -1.0, so the equal-weight wealth hits 0.0 (status 3)
        p = tmp_path / "broke.cfg"
        p.write_text(
            "[model]\ndrift_a = -40\nvol_a = 1\ndelta = 0.1\neps0 = 0.3\n"
            "clock_c = 0\ndt = 1.0\n[initial]\ncaps = 1, 1, 1\n"
            "[run]\nhorizon = 2\npaths = 6\nseed = 5\nportfolio = equal\n"
        )
        _, summary = simulate_run(load_config(str(p)), None)
        assert summary["wealth_zero"] == 6
        assert summary["ok_paths"] + summary["exploded"] + summary[
            "overflowed"
        ] + summary["wealth_zero"] == summary["paths"]

    def test_wealth_columns_start_at_one(self, tmp_path):
        out = tmp_path / "out2"
        out.mkdir()
        cfg = self.cfg(tmp_path, "portfolio = rank:1\n")
        simulate_run(cfg, str(out))
        rows = (out / "series.csv").read_text().splitlines()[1:]
        t0 = [r for r in rows if r.split(",")[1] == "0.0"]
        assert t0
        for r in t0:
            cells = r.split(",")
            assert float(cells[4]) == 1.0
            assert float(cells[5]) == 1.0
            assert float(cells[6]) == 1.0

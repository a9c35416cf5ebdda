"""Report plumbing, output writers, and the orchestrated run."""

import json
import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from splitmerge import bounds, engine, harness
from splitmerge.bounds import TailEstimate
from splitmerge.config import load_config
from splitmerge.engine import CHUNK
from splitmerge.events import EventRecord
from splitmerge.engine import run_paths
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

    @pytest.mark.parametrize(
        "checks, problem",
        [
            (("bogus",), "unknown check 'bogus'; choices: diversity, "),
            (("workers", "x", "y"), "unknown check 'x'; unknown check 'y'; "),
            ((), "no check selected; choices: diversity, "),
        ],
        ids=["unknown", "two-unknown", "empty"],
    )
    def test_verify_all_rejects_a_bad_selection(self, checks, problem):
        with pytest.raises(ValueError, match=re.escape(problem)):
            harness.verify_all(checks=checks)

    def test_selection_follows_the_plan_order(self):
        picked = harness.select_checks(["workers", "diversity", "workers"])
        assert [c.name for c in picked] == ["diversity", "workers"]


class TestWriters:
    def test_series_csv(self, tmp_path):
        part = tmp_path / "0.csv"
        part.write_text("0,0.0,3,0.5,1.0,1.0,1.0\n")
        p = tmp_path / "series.csv"
        write_series_csv(str(p), [str(part)])
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
        part = tmp_path / "0.jsonl"
        part.write_text(rec.to_json() + "\n")
        write_events_jsonl(str(p), [str(part), str(part)])
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


class TestMartingaleCheck:
    def test_every_run_uses_the_workers_given(self, monkeypatch):
        seen = []
        run_paths = harness.run_paths

        def recording(run):
            seen.append(run.workers)
            return run_paths(run)

        monkeypatch.setattr(harness, "run_paths", recording)
        harness.check_martingale(29, paths=256, workers=2)
        assert seen == [2, 2, 2]


class TestProbeChecks:
    def test_every_estimate_uses_the_workers_given(self, monkeypatch):
        seen = []

        def race(params, caps0, lam, paths, seed, workers=1):
            seen.append(("race", workers))
            return TailEstimate.from_counts(0, paths)

        def rbm(x, y, sig, lam, paths, dt, seed, workers=1):
            seen.append(("rbm", workers))
            return TailEstimate.from_counts(0, paths)

        # the checks look the probes up on the bounds module at call time
        monkeypatch.setattr(bounds, "estimate_split_before_clock", race)
        monkeypatch.setattr(bounds, "simulate_rbm_hit", rbm)
        harness.check_split_race(13, paths=256, workers=2)
        harness.check_rbm_oracle(17, paths=256, workers=2)
        assert seen == [("race", 2)] * 9 + [("rbm", 2)] * 3


class TestWorkerInvariance:
    def test_two_workers_give_every_row_of_one(self):
        # scale 0.042 gives each check 4200 paths, two blocks, so the pool
        # starts (at 0.03 every check fits in one block)
        checks = ("split-race", "rbm-oracle", "tail-monotone")
        assert min(c.paths for c in harness.select_checks(checks)) * 0.042 > CHUNK
        rows = [
            harness.verify_all(seed=11, scale=0.042, workers=w, checks=checks).rows
            for w in (1, 2)
        ]
        assert [r.name for r in rows[0]] == list(checks)
        assert rows[0] == rows[1]


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

    def test_out_holds_exactly_the_three_files(self, tmp_path):
        out = tmp_path / "out"
        cfg = self.cfg(tmp_path, "portfolio = equal\n")
        # a stride-0 run over a run with rows rewrites series.csv as the
        # header alone
        for stride in (100, 0):
            simulate_run(replace(cfg, run=replace(cfg.run, stride=stride)), str(out))
            assert sorted(os.listdir(out)) == [
                "events.jsonl", "series.csv", "summary.json"
            ]
        assert (out / "series.csv").read_text() == SERIES_HEADER + "\n"

    def test_summary_does_not_depend_on_the_output(self, tmp_path):
        cfg = self.cfg(tmp_path, "portfolio = equal\n")
        written, with_out = simulate_run(cfg, str(tmp_path / "out"))
        bare, without = simulate_run(cfg, None)
        assert with_out == without
        assert bare.final_wealth.tobytes() == written.final_wealth.tobytes()
        # nothing is written, so no row is formatted and no record built
        assert bare.series == [] and bare.events == []
        assert written.series == [] and written.events == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_files_join_the_blocks_in_order(self, tmp_path, monkeypatch, workers):
        # 64 paths in blocks of 7: the files equal those written from the
        # joined lists of one in-memory run
        monkeypatch.setattr(engine, "CHUNK", 7)
        cfg = self.cfg(tmp_path, f"portfolio = equal\nworkers = {workers}\n")
        simulate_run(cfg, str(tmp_path / "out"))
        res = run_paths(cfg.engine_run(collect_events=True))
        want = {
            "series.csv": [SERIES_HEADER, *res.series],
            "events.jsonl": [rec.to_json() for rec in res.events],
        }
        for name, lines in want.items():
            got = (tmp_path / "out" / name).read_bytes()
            assert got == "".join(f"{x}\n" for x in lines).encode(), name

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failed_block_leaves_no_files(self, tmp_path, monkeypatch, workers):
        run_chunk = engine._run_chunk

        def second_block_fails(run, tables, start, stop, out):
            if start:
                raise RuntimeError("block failed")
            return run_chunk(run, tables, start, stop, out)

        monkeypatch.setattr(engine, "CHUNK", 32)
        monkeypatch.setattr(engine, "_run_chunk", second_block_fails)
        out = tmp_path / "out"
        cfg = self.cfg(tmp_path, f"workers = {workers}\n")
        with pytest.raises(RuntimeError, match="block failed"):
            simulate_run(cfg, str(out))
        assert os.listdir(out) == []

    def test_memory_does_not_grow_with_the_blocks(self, tmp_path, monkeypatch):
        # a row every step, in blocks of 32 paths: one block against eight,
        # after a run that pays the first run's one-time allocations
        monkeypatch.setattr(engine, "CHUNK", 32)
        cfg = self.cfg(tmp_path)
        peaks = []
        for paths in (32, 32, 256):
            c = replace(cfg, run=replace(cfg.run, paths=paths, stride=1))
            tracemalloc.start()
            try:
                simulate_run(c, str(tmp_path / f"out{paths}"))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] < 1.5 * peaks[1], peaks

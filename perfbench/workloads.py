"""The four benchmark workloads and their correctness gates.

Each workload turns ``--seed`` into its inputs, exposes one timed call
(``call``) that the runner repeats, and checks the output of that call
outside the timed region (``check``).  Every call within one run gets
the same inputs, so every rep does the same work.

``event_heavy``
    ``run_paths`` on the harness's event-active market (checks 1-4 and
    9): about 4.3 event boundaries per path.  Exercises the
    ``events`` and ``portfolio`` layers and the per-path Python that
    resolves them.
``quiet_wide``
    ``run_paths`` on an event-free 16-company market: no event ever
    fires, so the time is the engine's vectorised step at row width 20.
    An event-layer change must leave it flat.
``simulate_cli``
    ``splitmerge simulate`` on the shipped ``configs/default.cfg`` at 2
    workers with an output directory: the process pool, event
    collection, series formatting and file writes.
``probes``
    the split-before-clock estimator on check 5's 3 x 3 (lambda, delta)
    grid and the reflected-BM oracle at check 6's three points: the
    diffusion loop that ``splitmerge.bounds`` keeps for itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil

import numpy as np

from splitmerge import bounds, cli, engine
from splitmerge.config import load_config
from splitmerge.engine import CHUNK, EngineRun, StepTables, reference_path
from splitmerge.harness import (
    SERIES_HEADER,
    SHARED_RULES,
    active_initial,
    active_params,
    check_market_identity,
    check_no_suppressed,
)
from splitmerge.params import ModelParams, RankTable, SplitDist
from splitmerge.portfolio import PortfolioRule

NAMES = ("event_heavy", "quiet_wide", "simulate_cli", "probes")

# paths per timed call: (full size, tiny size for the smoke test)
SIZES = {
    "event_heavy": (1024, 32),
    "quiet_wide": (1024, 32),
    "simulate_cli": (8192, 64),
    "probes": (4096, 256),
}
TINY_HORIZON = 0.05
GATE_PATHS_PER_CHUNK = 2


def _gate_paths(seed: int, n_paths: int) -> list[int]:
    """A few path indices per engine chunk, drawn from the seed."""
    rng = np.random.default_rng(seed)
    picks = []
    for a in range(0, n_paths, CHUNK):
        b = min(a + CHUNK, n_paths)
        k = min(GATE_PATHS_PER_CHUNK, b - a)
        picks += sorted(int(p) for p in rng.choice(np.arange(a, b), k, replace=False))
    return picks


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


class EngineWorkload:
    """One ``run_paths`` call per rep, checked against ``reference_path``."""

    workers = 1

    def __init__(self, params, caps0, rules, horizon, paths, seed, events):
        self.params = params
        self.caps0 = caps0
        self.rules = rules
        self.horizon = horizon
        self.paths = paths
        self.seed = seed
        self.events = events  # whether the market is meant to have events
        self.paths_per_call = paths
        self.path_steps = paths * round(horizon / params.dt)

    def _run(self, n_paths, horizon):
        return engine.run_paths(
            EngineRun(
                params=self.params,
                initial_caps=self.caps0,
                horizon=horizon,
                n_paths=n_paths,
                seed=self.seed,
                rules=self.rules,
            )
        )

    def warmup(self) -> None:
        self._run(8, 20 * self.params.dt)

    def before_call(self) -> None:
        pass

    def call(self, workers: int | None = None):
        return self._run(self.paths, self.horizon)

    def digest(self, res) -> bytes:
        h = hashlib.sha256()
        for a in (res.final_wealth, res.final_log_z, res.final_total,
                  res.final_n, res.status):
            h.update(np.ascontiguousarray(a).tobytes())
        return h.digest()

    def outcome(self, res) -> tuple[int, int]:
        return self.paths, int(np.count_nonzero(res.status))

    def counts(self, res) -> dict:
        return {
            "events.splits": res.instr.splits,
            "events.mergers": res.instr.mergers,
            "events.suppressed": res.instr.suppressed,
        }

    def check(self, res) -> list[str]:
        problems = []
        instr = res.instr
        thr = 1.0 - self.params.delta
        if instr.max_conservation > 4.0:
            problems.append(f"conservation {instr.max_conservation} ulp > 4")
        if instr.max_transfer > 1e-15:
            problems.append(f"weight transfer error {instr.max_transfer} > 1e-15")
        if instr.max_sample_weight > thr:
            problems.append(f"sampled weight {instr.max_sample_weight} > {thr}")
        for row in (check_no_suppressed(self.params, res), check_market_identity(res)):
            if not row.passed:
                problems.append(f"{row.name}: {row.detail}")
        fired = instr.splits > 0 and instr.mergers > 0
        quiet = instr.splits == 0 and instr.mergers == 0
        if (self.events and not fired) or (not self.events and not quiet):
            problems.append(
                f"{instr.splits} splits and {instr.mergers} mergers in a market "
                f"meant to be {'event-active' if self.events else 'event-free'}"
            )
        tables = StepTables.build(self.params)
        for p in _gate_paths(self.seed, self.paths):
            ref = reference_path(
                self.params, self.caps0, self.horizon, self.seed, p,
                rules=self.rules, tables=tables,
            )
            same = (
                ref["status"] == int(res.status[p])
                and ref["n"] == int(res.final_n[p])
                and _bits(ref["total"]) == _bits(res.final_total[p])
                and _bits(ref["v"]) == _bits(res.final_wealth[:, p])
                and _bits(ref["log_z"]) == _bits(res.final_log_z[p])
            )
            if not same:
                problems.append(f"path {p} differs from reference_path")
        return problems


class CliWorkload:
    """``splitmerge simulate`` on the shipped config, files checked."""

    def __init__(self, root, seed, paths, horizon, out_dir):
        self.cfg_path = os.path.join(root, "configs", "default.cfg")
        self.cfg = load_config(self.cfg_path)
        self.seed = seed
        self.paths = paths
        self.horizon = self.cfg.run.horizon if horizon is None else horizon
        self.out = out_dir
        self.workers = 2
        self.paths_per_call = paths
        self.path_steps = paths * round(self.horizon / self.cfg.params.dt)
        self.argv = [
            "simulate", "--config", self.cfg_path, "--seed", str(seed),
            "--horizon", repr(self.horizon), "--out", out_dir,
        ]

    def _run(self, paths: int, workers: int) -> str:
        argv = self.argv + ["--paths", str(paths), "--workers", str(workers)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"splitmerge {' '.join(argv)} exited {rc}")
        return self.out

    def warmup(self) -> None:
        self.before_call()
        self._run(16, 1)

    def before_call(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def call(self, workers: int | None = None) -> str:
        return self._run(self.paths, self.workers if workers is None else workers)

    def _file(self, name: str) -> str:
        return os.path.join(self.out, name)

    def _summary(self) -> dict:
        with open(self._file("summary.json")) as fh:
            return json.load(fh)

    def digest(self, out) -> bytes:
        h = hashlib.sha256()
        for name in ("series.csv", "events.jsonl", "summary.json"):
            with open(self._file(name), "rb") as fh:
                h.update(fh.read())
        return h.digest()

    def outcome(self, out) -> tuple[int, int]:
        s = self._summary()
        return s["paths"], s["paths"] - s["ok_paths"]

    def counts(self, out) -> dict:
        s = self._summary()
        with open(self._file("events.jsonl"), "rb") as fh:
            records = sum(1 for _ in fh)
        return {
            "events.splits": s["splits"],
            "events.mergers": s["mergers"],
            "events.suppressed": s["suppressed"],
            "harness.event_records": records,
            "harness.bytes_written": sum(
                os.path.getsize(self._file(n))
                for n in ("series.csv", "events.jsonl", "summary.json")
            ),
        }

    def check(self, out) -> list[str]:
        problems = []
        s = self._summary()
        params = self.cfg.params
        stride = self.cfg.run.stride
        with open(self._file("series.csv")) as fh:
            series = fh.read().splitlines()
        with open(self._file("events.jsonl")) as fh:
            events = fh.read().splitlines()
        if not series or series[0] != SERIES_HEADER:
            problems.append("series.csv header differs from SERIES_HEADER")
        rows = series[1:]
        last = round(self.horizon / params.dt)
        per_path = len(range(0, last + 1, stride)) + (1 if last % stride else 0)
        if not s["ok_paths"] * per_path <= len(rows) <= s["paths"] * per_path:
            problems.append(
                f"{len(rows)} series rows for {s['ok_paths']} ok paths "
                f"of {s['paths']} at {per_path} rows each"
            )
        n_events = s["splits"] + s["mergers"] + s["suppressed"]
        if len(events) != n_events:
            problems.append(f"{len(events)} event records, summary reports {n_events}")
        if s["suppressed"]:
            problems.append(f"{s['suppressed']} suppressed mergers")
        top = max((float(r.split(",")[3]) for r in rows), default=0.0)
        if top > 1.0 - params.delta:
            problems.append(f"sampled weight {top} > {1.0 - params.delta}")

        # the same rules and columns simulate_run derives from the config
        rules = (PortfolioRule("market"),)
        cols = (0, 0)
        if self.cfg.run.portfolio != rules[0]:
            rules += (self.cfg.run.portfolio,)
            cols = (0, 1)
        tables = StepTables.build(params)
        for p in _gate_paths(self.seed, self.paths):
            ref = reference_path(
                params, self.cfg.initial_caps, self.horizon, self.seed, p,
                rules=rules, tables=tables, stride=stride, series_cols=cols,
            )
            mine = [r for r in rows if r.startswith(f"{p},")]
            head = f'{{"path": {p}, '
            recs = [e for e in events if e.startswith(head)]
            if mine != ref["series"] or recs != [r.to_json() for r in ref["events"]]:
                problems.append(f"path {p} files differ from reference_path")
        return problems


# check 5's grid and check 6's points, as the harness defines them
RACE_CAPS = np.array([4.0, 1.0, 1.0, 1.0, 1.0])
RACE_DELTAS = (0.10, 0.13, 0.16)
RACE_LAMBDAS = (4.0, 9.0, 16.0)
RBM_POINTS = (
    (0.2, math.log(1.8), 1.0, 4.0),
    (0.0, math.log(2.0), 1.0, 9.0),
    (0.3, 0.9, 0.5, 2.0),
)
RBM_DT = 5e-4


class ProbesWorkload:
    """The closed-form bounds' Monte Carlo estimators, one process."""

    workers = 1
    path_steps = None

    def __init__(self, seed, paths):
        self.seed = seed
        self.paths = paths
        self.race = [
            (
                ModelParams(
                    drift=RankTable(0.0, 0.0),
                    vol=RankTable(1.0, 0.0),
                    delta=delta,
                    eps0=4.0 / 9.0,
                    split_dist=SplitDist("uniform"),
                    clock_c=2.0,
                    clock_alpha=1.0,
                    dt=1e-3,
                ),
                lam,
            )
            for delta in RACE_DELTAS
            for lam in RACE_LAMBDAS
        ]
        self.points = len(self.race) + len(RBM_POINTS)
        self.paths_per_call = paths * self.points

    def warmup(self) -> None:
        params, lam = self.race[0]
        bounds.estimate_split_before_clock(params, RACE_CAPS, lam, 16, self.seed)
        x, y, sig, lam = RBM_POINTS[0]
        bounds.simulate_rbm_hit(x, y, sig, lam, 16, RBM_DT, self.seed)

    def before_call(self) -> None:
        pass

    def call(self, workers: int | None = None) -> list:
        out = []
        for params, lam in self.race:
            out.append(bounds.estimate_split_before_clock(
                params, RACE_CAPS, lam, self.paths, self.seed
            ))
        for x, y, sig, lam in RBM_POINTS:
            out.append(bounds.simulate_rbm_hit(
                x, y, sig, lam, self.paths, RBM_DT, self.seed
            ))
        return out

    def digest(self, ests) -> bytes:
        return repr([e.hits for e in ests]).encode()

    def outcome(self, ests) -> tuple[int, int]:
        """Grid points attempted and points failing their 3-se verdict."""
        failed = 0
        for (params, lam), est in zip(self.race, ests):
            bound = bounds.split_before_clock_bound(0.5, params.delta, 1.0, lam)
            failed += not est.phat <= bound + 3.0 * est.se
        for (x, y, sig, lam), est in zip(RBM_POINTS, ests[len(self.race):]):
            formula = bounds.rbm_hit_before_exp(x, y, sig, lam)
            failed += not abs(formula - est.phat) <= 3.0 * est.se
        return self.points, failed

    def counts(self, ests) -> dict:
        return {}

    def check(self, ests) -> list[str]:
        problems = []
        if len(ests) != self.points:
            problems.append(f"{len(ests)} estimates for {self.points} points")
        for i, e in enumerate(ests):
            if e.paths != self.paths or not 0 <= e.hits <= e.paths:
                problems.append(f"point {i}: {e.hits} hits of {e.paths} paths")
            elif not 0.0 <= e.phat <= 1.0 or not math.isfinite(e.se):
                problems.append(f"point {i}: phat {e.phat}, se {e.se}")
        return problems


def quiet_params() -> ModelParams:
    """Event-free market: delta = 0.02 is out of diffusive reach of 16
    equal companies within horizon 1, and clock_c = 0 stops the clock."""
    return ModelParams(
        drift=RankTable(0.0, 0.0),
        vol=RankTable(1.0, -0.5),
        delta=0.02,
        eps0=4.0 / 9.0,
        split_dist=SplitDist("uniform"),
        clock_c=0.0,
        clock_alpha=1.0,
        dt=1e-3,
    )


def build(name: str, root: str, seed: int, tiny: bool, out_dir: str):
    paths = SIZES[name][1 if tiny else 0]
    horizon = TINY_HORIZON if tiny else None
    if name == "event_heavy":
        return EngineWorkload(
            active_params(), active_initial(), SHARED_RULES,
            horizon or 1.0, paths, seed, events=True,
        )
    if name == "quiet_wide":
        return EngineWorkload(
            quiet_params(), np.ones(16),
            (PortfolioRule("market"), PortfolioRule("rank", 0)),
            horizon or 1.0, paths, seed, events=False,
        )
    if name == "simulate_cli":
        return CliWorkload(root, seed, paths, horizon, out_dir)
    if name == "probes":
        return ProbesWorkload(seed, paths)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")

"""Verification harness: the checks that gate the simulator.

The paper claims a non-explosive, diverse market without arbitrage; the
ten checks test those claims.  :data:`PLAN` is the one verification
plan: for each check, in report order, its name, what it tests, whether
it reads the shared event-active run, its seed offset and its base path
count.  Each ``check_*`` function takes its seed and path count from the
caller, builds its own configuration, runs the engine or a probe, and
returns one :class:`CheckRow` with a pass/fail verdict and the measured
numbers.  ``verify_all`` is the only reader of the plan: ``splitmerge
verify`` and the acceptance tests (``verify_all(seed=11)`` at scale 1)
both run it, so the command line and the test suite can never drift
apart.

:func:`simulate_run` runs ``splitmerge simulate``.  When it writes its
files, each block streams its series rows and event records to part
files as it makes them (:class:`BlockFiles`), and the parts are joined
in block order, so the result it returns carries no rows or records.
"""

from __future__ import annotations

import filecmp
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterable

import numpy as np

from .config import RunConfig, RunSettings
from .engine import CHUNK, SERIES_HEADER, EngineResult, EngineRun, run_paths
from .events import EventRecord, clock_rate
from .params import ModelParams, RankTable, SplitDist
from .portfolio import PortfolioRule
from .streams import ALGORITHM_ID


# ---------------------------------------------------------------------------
# report plumbing


@dataclass(frozen=True)
class CheckRow:
    name: str
    passed: bool
    detail: str

    def render(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


@dataclass
class RunReport:
    rows: list[CheckRow] = field(default_factory=list)
    seed: int | None = None
    algorithm: str = ""
    elapsed: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def render(self) -> str:
        lines = []
        if self.seed is not None:
            lines.append(
                f"seed {self.seed}  rng {self.algorithm}  "
                f"elapsed {self.elapsed:.1f}s"
            )
        lines += [r.render() for r in self.rows]
        verdict = "ALL CHECKS PASSED" if self.all_passed else "CHECKS FAILED"
        return "\n".join(lines + [verdict])


# ---------------------------------------------------------------------------
# output writers


def write_series_csv(path: str, parts: Iterable[str]) -> None:
    """The header, then each part file's bytes in the order given."""
    _join(path, SERIES_HEADER + "\n", parts)


def write_events_jsonl(path: str, parts: Iterable[str]) -> None:
    """Each part file's bytes in the order given."""
    _join(path, "", parts)


def _join(path: str, head: str, parts: Iterable[str]) -> None:
    with open(path, "wb") as fh:
        fh.write(head.encode())
        for name in parts:
            with open(name, "rb") as part:
                shutil.copyfileobj(part, fh)


class BlockFiles:
    """The consumer of one block of :func:`run_paths` for ``simulate``:
    the block's series rows and event records go to the part files
    ``<start>.csv`` and ``<start>.jsonl`` in ``folder`` as the block makes
    them, and :meth:`close` returns the two names."""

    def __init__(self, folder: str, start: int, stop: int) -> None:
        name = os.path.join(folder, str(start))
        self._series = open(name + ".csv", "w", newline="")
        self._events = open(name + ".jsonl", "w", newline="")

    def rows(self, rows: list[str]) -> None:
        self._series.writelines(row + "\n" for row in rows)

    def event(self, rec: EventRecord) -> None:
        self._events.write(rec.to_json() + "\n")

    def close(self) -> tuple[str, str]:
        self._series.close()
        self._events.close()
        return self._series.name, self._events.name


# ---------------------------------------------------------------------------
# the shared event-active configuration (checks 1-4, 9, 10)


def active_params(theta_mode: str = "martingale") -> ModelParams:
    """Unit volatility, zero growth, busy event regime.

    eps0 = 4/9 puts the post-split top weight at exactly one half
    (delta0 = 1/2), which keeps split races short enough to observe,
    and clock rates 2N resolve them quickly.
    """
    return ModelParams(
        drift=RankTable(0.0, 0.0),
        vol=RankTable(1.0, 0.0),
        delta=0.1,
        eps0=4.0 / 9.0,
        split_dist=SplitDist("uniform"),
        clock_c=2.0,
        clock_alpha=1.0,
        n_max=64,
        dt=1e-3,
        theta_mode=theta_mode,
    )


def active_initial() -> np.ndarray:
    """Concentrated start: top weight 14/15.5 > 0.9 forces an entry split."""
    return np.array([14.0, 0.5, 0.5, 0.5])


SHARED_RULES = (
    PortfolioRule("market"),
    PortfolioRule("equal"),
    PortfolioRule("rank", 0),
    PortfolioRule("cash"),
)


def run_shared(
    seed: int, paths: int, workers: int = 1
) -> tuple[ModelParams, EngineResult]:
    params = active_params()
    res = run_paths(
        EngineRun(
            params=params,
            initial_caps=active_initial(),
            horizon=1.0,
            n_paths=paths,
            seed=seed,
            rules=SHARED_RULES,
            workers=workers,
        )
    )
    return params, res


# ---------------------------------------------------------------------------
# checks 1-4 (evaluated on the shared run)


def check_diversity(params: ModelParams, res: EngineResult) -> CheckRow:
    thr = 1.0 - params.delta
    over_cap = 5.0 * params.sigma_range()[1] * math.sqrt(params.dt)
    w = res.instr.max_sample_weight
    o = res.instr.max_overshoot
    passed = (w <= thr) and (o <= over_cap) and res.instr.splits > 0
    return CheckRow(
        "diversity",
        passed,
        f"max sampled weight {w:.6f} <= {thr}; "
        f"max log overshoot {o:.4f} <= {over_cap:.4f} "
        f"({res.instr.splits} splits, {res.instr.mergers} mergers)",
    )


def check_conservation(res: EngineResult) -> CheckRow:
    cons = res.instr.max_conservation  # units of ulp(total)
    trans = res.instr.max_transfer
    n_events = res.instr.splits + res.instr.mergers
    passed = (cons <= 4.0) and (trans <= 1e-15) and n_events > 0
    return CheckRow(
        "conservation",
        passed,
        f"max |dC| {cons:.3f} ulp <= 4; max |d sum(pi)| {trans:.2e} <= 1e-15; "
        f"wealth only moves at diffusion steps by construction "
        f"({n_events} events)",
    )


def check_no_suppressed(params: ModelParams, res: EngineResult) -> CheckRow:
    passed = res.instr.suppressed == 0 and params.delta < 1.0 / 6.0
    return CheckRow(
        "suppression",
        passed,
        f"{res.instr.suppressed} suppressed mergers out of "
        f"{res.instr.mergers} (delta = {params.delta} < 1/6)",
    )


def check_market_identity(res: EngineResult) -> CheckRow:
    ok = res.ok
    v_m = res.final_wealth[0, ok]
    ratio = res.final_total[ok] / res.initial_total
    err = np.abs(v_m / ratio - 1.0)
    worst = float(err.max()) if err.size else float("nan")
    passed = err.size > 0 and worst <= 1e-9
    return CheckRow(
        "market-identity",
        passed,
        f"max |V_market * C(0)/C(T) - 1| = {worst:.2e} <= 1e-9 "
        f"over {int(ok.sum())} paths",
    )


# ---------------------------------------------------------------------------
# check 5: split-before-clock race on a (lambda, delta) grid


def check_split_race(seed: int, paths: int, workers: int = 1) -> CheckRow:
    from . import bounds  # checks 5-8 load the probes; simulate never does

    caps0 = np.array([4.0, 1.0, 1.0, 1.0, 1.0])  # top weight exactly 1/2
    rows = []
    passed = True
    for delta in (0.10, 0.13, 0.16):
        params = replace(active_params(), delta=delta)
        for lam in (4.0, 9.0, 16.0):
            est = bounds.estimate_split_before_clock(
                params, caps0, lam, paths, seed, workers=workers
            )
            bound = bounds.split_before_clock_bound(0.5, delta, 1.0, lam)
            ok = est.phat <= bound + 3.0 * est.se
            passed = passed and ok
            rows.append(
                f"lam={lam:g} delta={delta:g}: "
                f"{est.phat:.4f} <= {bound:.4f}+3se({3 * est.se:.4f})"
            )
    return CheckRow("split-race", passed, "; ".join(rows))


# ---------------------------------------------------------------------------
# check 6: hitting formula against the walk oracle


def check_rbm_oracle(seed: int, paths: int, workers: int = 1) -> CheckRow:
    from . import bounds

    points = (
        (0.2, math.log(1.8), 1.0, 4.0),
        (0.0, math.log(2.0), 1.0, 9.0),
        (0.3, 0.9, 0.5, 2.0),
    )
    rows = []
    passed = True
    for x, y, sig, lam in points:
        formula = bounds.rbm_hit_before_exp(x, y, sig, lam)
        est = bounds.simulate_rbm_hit(x, y, sig, lam, paths, 5e-4, seed, workers)
        ok = abs(formula - est.phat) <= 3.0 * est.se
        passed = passed and ok
        rows.append(
            f"(x={x:g},y={y:.3f},sig={sig:g},lam={lam:g}): "
            f"|{formula:.4f}-{est.phat:.4f}| <= {3 * est.se:.4f}"
        )
    return CheckRow("rbm-oracle", passed, "; ".join(rows))


# ---------------------------------------------------------------------------
# check 7: consecutive splits


def check_double_jump(seed: int, paths: int, workers: int = 1) -> CheckRow:
    from . import bounds

    params = active_params()
    horizon = 6.0
    # two complementary fluxes: a near-threshold 3-company start feeds the
    # low levels over a long window, and a concentrated 4-company start
    # ping-pongs across levels 4 and 5, feeding the high ones.  Pooling is
    # sound because the bound is uniform over the state at level entry.
    runs = (
        (np.array([8.0, 1.0, 1.0]), horizon, seed),
        (np.array([9.0, 1.0, 1.0, 1.0]), horizon / 4.0, seed + 1),
    )
    stats: dict[int, bounds.DoubleJumpStat] = {}
    for caps0, h, s in runs:
        part = bounds.estimate_double_jump(params, caps0, h, paths, s, workers)
        for n, st in part.items():
            stats.setdefault(n, bounds.DoubleJumpStat(level=n)).merge(st)
    sigma_bar = params.sigma_range()[1]
    rows = []
    passed = True
    total_segments = sum(s.segments for s in stats.values())
    total_censored = sum(s.censored for s in stats.values())
    for n, st in sorted(stats.items()):
        lam = clock_rate(n, params)
        p_n = bounds.double_jump_bound(params.delta, params.delta0, sigma_bar, lam)
        if not p_n < 0.5:
            passed = False
            rows.append(f"N={n}: bound {p_n:.3f} not < 0.5")
            continue
        if st.segments == 0:
            passed = False
            rows.append(f"N={n}: no segments observed")
            continue
        ok = st.phat <= p_n + 3.0 * st.se
        passed = passed and ok
        rows.append(
            f"N={n}: {st.doubles}/{st.segments} = {st.phat:.4f} "
            f"<= {p_n:.4f}+3se({3 * st.se:.4f})"
        )
    if total_segments and total_censored / total_segments >= 1e-3:
        passed = False
        rows.append(f"censored fraction {total_censored}/{total_segments}")
    else:
        rows.append(f"censored {total_censored}/{total_segments}")
    return CheckRow("double-jump", passed, "; ".join(rows))


# ---------------------------------------------------------------------------
# check 8: tail of the running company count


def check_tail_monotone(seed: int, paths: int, workers: int = 1) -> CheckRow:
    from . import bounds

    params = replace(active_params(), clock_c=1.0, clock_alpha=2.0)
    # concentrated start: the top weight reaches the threshold quickly, so
    # the upper levels get enough traffic for the confidence intervals on
    # adjacent grid points to separate
    caps0 = np.array([8.0, 1.0, 1.0])
    curve = bounds.tail_of_max_count(
        params, caps0, 1.0, paths, seed, (3, 4, 5, 6), workers=workers
    )
    ok, pairs = curve.monotone_on_disjoint_pairs()
    slopes = []
    for u in curve.u_grid:
        est = curve.estimates[u]
        s = curve.log_slope(u)
        slopes.append(
            f"u={u}: {est.hits} hits, -log(phat)/u = "
            + (f"{s:.3f}" if math.isfinite(s) else "inf")
        )
    passed = ok and len(pairs) >= 1 and curve.exploded == 0
    return CheckRow(
        "tail-monotone",
        passed,
        f"{'; '.join(slopes)}; compared pairs {pairs}; "
        f"peak count {curve.peak} < cap {params.n_max} "
        f"({curve.exploded} capped paths)",
    )


# ---------------------------------------------------------------------------
# check 9: change of measure


def _zv_stats(res: EngineResult) -> list[tuple[str, float, float]]:
    """(name, estimate, se) for E[Z] and E[Z V] per rule, ok paths only."""
    ok = res.ok
    z = np.exp(res.final_log_z[ok])
    n = int(ok.sum())
    out = [("E[Z]", float(z.mean()), float(z.std(ddof=1) / math.sqrt(n)))]
    for i in range(res.final_wealth.shape[0]):
        zv = z * res.final_wealth[i, ok]
        out.append(
            (f"E[Z V]#{i}", float(zv.mean()), float(zv.std(ddof=1) / math.sqrt(n)))
        )
    return out


def check_martingale(seed: int, paths: int, workers: int = 1) -> CheckRow:
    rows = []
    passed = True

    # the shared event-active market, martingale convention: everything is
    # a martingale, so all five statistics sit on 1 up to Monte Carlo noise
    _, res = run_shared(seed, paths, workers)
    for name, est, se in _zv_stats(res):
        ok = abs(est - 1.0) <= 3.0 * se
        passed = passed and ok
        rows.append(f"{name} = {est:.4f} (3se {3 * se:.4f})")

    # deciding oracle: fixed company count, g = 0, sigma = 1, single name.
    # V = X(T)/X(0) is exactly lognormal, so E[Z V] is exactly 1 under the
    # martingale convention and exactly exp(sigma^2 T / 2) under the
    # growth convention (whose theta = g/sigma vanishes, making Z = 1).
    horizon = 0.25
    target = math.exp(0.5 * horizon)
    name_rule = (PortfolioRule("name", 0),)
    for mode, want in (("martingale", 1.0), ("growth", target)):
        # delta 0.02 puts the split boundary out of diffusive reach at this T
        p = replace(active_params(mode), delta=0.02, clock_c=0.0)
        r = run_paths(
            EngineRun(
                params=p,
                initial_caps=np.ones(5),
                horizon=horizon,
                n_paths=paths,
                seed=seed + 1,
                rules=name_rule,
                workers=workers,
            )
        )
        if r.instr.splits or r.instr.mergers:
            passed = False
            rows.append(f"{mode}: events fired in the fixed-count market")
            continue
        stats = _zv_stats(r)
        _, est, se = stats[1]
        on_target = abs(est - want) <= 3.0 * se
        away_from_one = abs(est - 1.0) > 3.0 * se
        if mode == "martingale":
            ok = on_target
            rows.append(f"single-name martingale E[Z V] = {est:.4f} ~ 1")
        else:
            ok = on_target and away_from_one
            rows.append(
                f"single-name growth E[Z V] = {est:.4f} ~ exp(T/2) = "
                f"{target:.4f}, not 1"
            )
        passed = passed and ok
    return CheckRow("martingale", passed, "; ".join(rows))


# ---------------------------------------------------------------------------
# check 10: worker invariance


def check_workers(seed: int, paths: int) -> CheckRow:
    """Run the shipped scenario with 1 and 8 workers and compare the
    output files byte for byte, unsorted, as they were written.  ``paths``
    is raised to more than two blocks, so 8 workers have blocks to take."""
    cfg = RunConfig(active_params(), active_initial(), RunSettings(
        horizon=0.5, paths=max(paths, 2 * CHUNK + 512), seed=seed, stride=100,
        portfolio=PortfolioRule("equal"),
    ))

    with tempfile.TemporaryDirectory() as tmp:
        dirs = []
        results = []
        for workers in (1, 8):
            out = os.path.join(tmp, f"w{workers}")
            c = replace(cfg, run=replace(cfg.run, workers=workers))
            res, _ = simulate_run(c, out_dir=out)
            dirs.append(out)
            results.append(res)
        same = {
            name: filecmp.cmp(
                os.path.join(dirs[0], name),
                os.path.join(dirs[1], name),
                shallow=False,
            )
            for name in ("series.csv", "events.jsonl", "summary.json")
        }
    a, b = results
    same_arrays = (
        a.final_wealth.tobytes() == b.final_wealth.tobytes()
        and a.final_log_z.tobytes() == b.final_log_z.tobytes()
        and a.final_total.tobytes() == b.final_total.tobytes()
        and a.status.tobytes() == b.status.tobytes()
    )
    n_events = a.instr.splits + a.instr.mergers + a.instr.suppressed
    passed = all(same.values()) and same_arrays and n_events > 0
    return CheckRow(
        "workers",
        passed,
        f"files byte-identical across 1 vs 8 workers: {same}; "
        f"result arrays identical: {same_arrays} ({n_events} events)",
    )


# ---------------------------------------------------------------------------
# the verification plan


@dataclass(frozen=True)
class PlannedCheck:
    """One row of the plan.  The ``check`` of a ``shared`` row takes the
    (params, result) of the one run :func:`run_shared` makes for all of
    them, at the base seed plus the default ``seed_offset`` from the
    default ``paths``; any other row's ``check`` takes (seed, paths,
    workers) and makes its own runs.  Verify's scale multiplies ``paths``."""

    name: str
    check: Callable[..., CheckRow]
    shared: bool = False
    seed_offset: int = 0
    paths: int = 10_000


PLAN = (
    # 1. no post-event sample breaches the split threshold, and detection
    #    overshoot stays within 5 sigma sqrt(dt) of it in log scale
    PlannedCheck("diversity", check_diversity, shared=True),
    # 2. total capitalization moves by at most 4 ulp across any event,
    #    transfers keep weight sums, and wealth never jumps at events
    PlannedCheck("conservation", lambda p, r: check_conservation(r), shared=True),
    # 3. with delta < 1/6 and non-top merger pairs, no merger is suppressed
    PlannedCheck("suppression", check_no_suppressed, shared=True),
    # 4. the market portfolio's wealth equals C(T)/C(0) to 1e-9 on every path
    PlannedCheck("market-identity", lambda p, r: check_market_identity(r), shared=True),
    # 5. P(split before clock) is below its closed-form bound on a 3x3
    #    (lambda, delta) grid
    PlannedCheck("split-race", check_split_race, seed_offset=2, paths=100_000),
    # 6. the cosh hitting formula matches a random walk oracle, corrected
    #    for crossings within a step, at three points
    PlannedCheck("rbm-oracle", check_rbm_oracle, seed_offset=6, paths=100_000),
    # 7. the consecutive-split frequency is below
    #    p_N = 2 exp(-alpha_1 sqrt(lambda_N)) for N in {3, 4, 5}
    PlannedCheck("double-jump", check_double_jump, seed_offset=8, paths=30_000),
    # 8. -log phat(u)/u is nondecreasing across levels with disjoint
    #    confidence intervals; the hard cap never fires
    PlannedCheck("tail-monotone", check_tail_monotone, seed_offset=12, paths=100_000),
    # 9. under the martingale theta, E[Z] = 1 and E[Z V] = 1 for four rules
    #    with events active; a fixed-count single-name market separates the
    #    two theta conventions
    PlannedCheck("martingale", check_martingale, seed_offset=18, paths=100_000),
    # 10. byte-identical output for 1 and 8 workers
    PlannedCheck(
        "workers", lambda seed, paths, _: check_workers(seed, paths),
        seed_offset=20, paths=10_240,
    ),
)
ALL_CHECKS = tuple(c.name for c in PLAN)
SHARED_CHECKS = tuple(c.name for c in PLAN if c.shared)


def select_checks(names: tuple[str, ...] | list[str]) -> tuple[PlannedCheck, ...]:
    """The named checks, in plan order.  Raises ``ValueError`` naming
    every unknown name, or when no name is given."""
    unknown = [f"unknown check {n!r}" for n in names if n not in ALL_CHECKS]
    if unknown or not names:
        raise ValueError(
            f"{'; '.join(unknown) or 'no check selected'}; "
            f"choices: {', '.join(ALL_CHECKS)}"
        )
    return tuple(c for c in PLAN if c.name in names)


def verify_all(
    seed: int = 11,
    scale: float = 1.0,
    workers: int = 1,
    checks: tuple[str, ...] | list[str] = ALL_CHECKS,
) -> RunReport:
    """Run the named ``checks`` (default: all) in plan order.  ``scale``
    multiplies path counts (use < 1 for a quick smoke run; acceptance
    uses 1.0).  The shared run is made only when a check that reads it
    is selected."""
    plan = select_checks(checks)

    def n(base: int) -> int:
        return max(256, int(base * scale))

    t0 = time.perf_counter()
    report = RunReport(seed=seed, algorithm=ALGORITHM_ID)
    shared = [c for c in plan if c.shared]
    if shared:
        c = shared[0]
        params, res = run_shared(seed + c.seed_offset, n(c.paths), workers)
    for c in plan:
        report.rows.append(
            c.check(params, res) if c.shared
            else c.check(seed + c.seed_offset, n(c.paths), workers)
        )
    report.elapsed = time.perf_counter() - t0
    return report


def simulate_run(cfg, out_dir: str | None = None) -> tuple[EngineResult, dict]:
    """Run the configured simulation, optionally writing output files.

    Returns the engine result and a summary dict.  The CSV series
    columns are (market portfolio, configured portfolio), and at stride 0
    it holds only its header; the events file holds one JSON object per
    line.  The output directory is made before the run, so a path that
    cannot be one fails before any work.
    Each block streams its rows and records to part files in a folder
    under ``out_dir`` (see :class:`BlockFiles`), whose names come back in
    ``res.parts`` in block order; they are joined in that order and
    removed, also when the run fails, so memory stays at one block's
    whatever the path count; the result then holds no rows or records.
    Without ``out_dir`` the run formats no rows (stride 0).
    """
    if out_dir is None:
        # nothing is written, so no series row is formatted
        res = run_paths(replace(cfg, run=replace(cfg.run, stride=0)).engine_run())
    else:
        os.makedirs(out_dir, exist_ok=True)
        folder = tempfile.mkdtemp(prefix=".parts-", dir=out_dir)
        try:
            res = run_paths(
                cfg.engine_run(collect_events=True), partial(BlockFiles, folder)
            )
            series, events = zip(*res.parts)
            write_series_csv(os.path.join(out_dir, "series.csv"), series)
            write_events_jsonl(os.path.join(out_dir, "events.jsonl"), events)
        finally:
            shutil.rmtree(folder)
    summary = {
        "paths": cfg.run.paths,
        "ok_paths": int(res.ok.sum()),
        "exploded": int(np.count_nonzero(res.status == 1)),
        # status 2: a cap or the total overflowed, or a cap underflowed to 0.0
        "overflowed": int(np.count_nonzero(res.status == 2)),
        "wealth_zero": int(np.count_nonzero(res.status == 3)),
        "splits": res.instr.splits,
        "mergers": res.instr.mergers,
        "suppressed": res.instr.suppressed,
        "mean_final_n": float(res.final_n[res.ok].mean()) if res.ok.any() else None,
        "mean_v_market": float(res.final_wealth[0, res.ok].mean())
        if res.ok.any()
        else None,
        "mean_v_portfolio": float(res.final_wealth[-1, res.ok].mean())
        if res.ok.any()
        else None,
    }
    if out_dir is not None:
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return res, summary

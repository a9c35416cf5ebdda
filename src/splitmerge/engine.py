"""Path simulation engines.

Two engines produce the paths:

``reference_path``
    A per-path scalar loop composed out of the public building blocks
    (:func:`~splitmerge.dynamics.euler_step`, the event operations in
    :mod:`splitmerge.events`, :func:`~splitmerge.portfolio.wealth_step`,
    :func:`~splitmerge.girsanov.accumulate`).  Slow, obvious, and the
    ground truth for what a path *is*.

``run_paths``
    A vectorized engine that advances a block of paths per numpy call.
    It is required to reproduce the reference engine bit for bit, path
    by path, for any seed: both engines draw from the same per-path
    counter-based streams and perform floating-point reductions in the
    same order.  The test suite enforces the equality.

:func:`rank_step` is the one vectorized frozen-rank step: the batch
engine and the split-race probe of :mod:`splitmerge.bounds` both call
it.  ``euler_step`` stays a separate scalar step on purpose: it is the
oracle the twin tests hold ``rank_step`` against, and routing it
through ``rank_step`` would make those tests compare the kernel with
itself.

Determinism contract
--------------------
Results depend only on ``(seed, path index)`` and the run parameters.
Paths are partitioned into fixed-size blocks of :data:`CHUNK` paths
regardless of ``workers``, so the worker count can never change a
single output byte; it only changes which process touches which block.

Every sum over companies is the left-to-right accumulation
``((0 + x_1) + x_2) + ...`` in company order, in both engines.  The
batch engine keeps a block's caps *company-major*: one C-contiguous
``(slots, paths)`` array, with company ``k`` of path ``p`` at ``[k, p]``
and the slots past a path's company count held at exactly 0.0.  A sum
over companies is then a reduction over axis 0 (:func:`_col_sum`),
which numpy performs row by row into the output vector, i.e. in
exactly the loop's order.  The one exception is a block of a single
path: numpy collapses the ``(slots, 1)`` array to a 1-d reduction and
sums that pairwise, which differs from the loop from about 9 slots up,
so that case runs the loop explicitly.  A test pins the reduction
against the loop byte for byte, nan and signed zeros included.

Per step, an alive path with ``n`` companies consumes exactly ``n``
standard normals from its noise stream and exactly one uniform from
its clock stream (the uniform is consumed even on steps where a split
preempts the merger clock).  Event draws (split fractions, merger
pairs) come from a third per-path stream, consumed only when an event
actually needs them.  Finished paths consume nothing.

Boundary semantics at each step boundary, in order:

1. diffusion update with ranks frozen over the step;
2. portfolio wealth and measure-change accumulators update off the
   diffusion returns;
3. split resolution: while the top weight is >= 1 - delta, the top
   company splits (a cascade may fire several splits at one boundary);
4. merger resolution: if the clock rang this step *and* no split fired
   at this boundary, a uniformly drawn non-top pair merges (splits
   take precedence on ties); a merger whose combined weight would
   immediately re-trigger a split is suppressed and logged;
5. a path whose company count reaches ``n_max`` is stopped and flagged
   (status 1), mirroring the theoretical possibility of explosion in
   the number of companies.

Status codes: 0 ok, 1 company-count explosion, 2 a cap or the total
capitalization left ``(0, inf)`` (overflow or underflow), 3 portfolio
wealth hit zero or below.  Within a step a cap out of range is checked
first, then wealth, then the total.  Long-only rules can reach status
3: a cap that shrinks by more than a factor 2**-53 in one step has a
return of exactly -1.0.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dynamics import MarketState, euler_step, market_weights, total_cap
from .events import (
    EventRecord,
    apply_merger,
    apply_split,
    clock_rate_row,
    detect_split,
    draw_split_fraction,
    merger_suppressed,
    sample_merger_pair,
)
from .girsanov import GirsanovState, accumulate, theta_row
from .params import ModelParams
from .portfolio import (
    PortfolioRule,
    WealthError,
    transfer_on_merger,
    transfer_on_split,
    wealth_step,
)
from .streams import CLOCK, EVENTS, NOISE, PathStreams, path_generator

CHUNK = 4096        # paths per block; part of the determinism contract
NOISE_BUF = 768     # buffered normals per path in the batch engine
CLOCK_BUF = 1024    # buffered clock uniforms per path

# conservative split filter: the batch engine flags a path for the exact
# per-path split check whenever max cap >= (1-delta)*(1-FILTER_SLACK)*total,
# so a 1-ulp difference between max(x)/C and max(x/C) can never miss a split
FILTER_SLACK = 1e-12


# ---------------------------------------------------------------------------
# precomputed per-step coefficient tables


@dataclass(frozen=True)
class StepTables:
    """Rank-indexed per-step coefficients shared by both engines.

    Row ``n`` holds values for an ``n``-company market at column
    ``rank + 1`` (column 0 and columns > n are zero padding).  Using one
    shared precomputation guarantees the two engines multiply the same
    floats.
    """

    gdt: np.ndarray    # g(n, k) * dt
    ssq: np.ndarray    # sigma(n, k) * sqrt(dt)
    ths: np.ndarray    # theta(n, k) * sqrt(dt)
    qrow: np.ndarray   # sum_k theta(n, k)^2 * dt, left-to-right over ranks
    pstep: np.ndarray  # P(clock rings in one step) = -expm1(-lambda_n * dt)

    @classmethod
    def build(cls, params: ModelParams) -> "StepTables":
        n_max = params.n_max
        dt = params.dt
        sqdt = np.sqrt(np.float64(dt))
        gdt = params.drift.padded(n_max) * dt
        ssq = params.vol.padded(n_max) * sqdt
        th = np.zeros((n_max + 1, n_max + 2))
        for n in range(2, n_max + 1):
            th[n, 1 : n + 1] = theta_row(params, n)
        ths = th * sqdt
        th2 = (th * th) * dt
        qrow = np.zeros(n_max + 1)
        for n in range(2, n_max + 1):
            acc = np.float64(0.0)
            for k in range(1, n + 1):
                acc = acc + th2[n, k]
            qrow[n] = acc
        lam = clock_rate_row(params)
        pstep = -np.expm1(-lam * dt)
        return cls(gdt=gdt, ssq=ssq, ths=ths, qrow=qrow, pstep=pstep)


def rank_step(
    caps: np.ndarray, n, tables: StepTables, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One frozen-rank diffusion step of a company-major block of paths.

    ``caps`` and ``z`` are ``(slots, paths)``; ``n`` is the company count
    of each path (an array, or one int for all).  Slots past a path's
    count must hold 0.0: they rank last and gather the zero padding of
    ``tables``.  Returns ``(new_caps, order, cell)``: ``order[j, p]`` is
    the slot holding 0-based rank ``j`` of path ``p`` (stable sort, so
    ties rank the lower slot better), and ``cell`` is each slot's flat
    index ``n * width + 1 + rank`` into the raveled ``tables`` arrays.
    Caps that overflow come back as inf; callers check the range.
    """
    order = np.argsort(-caps, axis=0, kind="stable")
    ranks = np.empty_like(order)
    ranks[order, np.arange(caps.shape[1])] = np.arange(
        caps.shape[0], dtype=np.int64
    )[:, None]
    cell = (n * tables.gdt.shape[1] + 1) + ranks
    with np.errstate(over="ignore", invalid="ignore"):
        new_caps = caps * np.exp(tables.gdt.take(cell) + tables.ssq.take(cell) * z)
    return new_caps, order, cell


# ---------------------------------------------------------------------------
# instrumentation


class Instrumentation:
    """Running extremes and counts accumulated over a set of paths."""

    __slots__ = (
        "splits",
        "mergers",
        "suppressed",
        "max_overshoot",
        "max_sample_weight",
        "max_conservation",
        "max_transfer",
    )

    def __init__(self) -> None:
        self.splits = 0
        self.mergers = 0
        self.suppressed = 0
        # max over splits of log(w_top) - log(1 - delta) at detection
        self.max_overshoot = 0.0
        # max over all sampled boundaries (post-event) of the top weight
        self.max_sample_weight = 0.0
        # max over events of |sum_after - sum_before| / ulp(sum_before)
        self.max_conservation = 0.0
        # max over events and rules of |sum pi' - sum pi|
        self.max_transfer = 0.0

    def merge(self, other: "Instrumentation") -> None:
        self.splits += other.splits
        self.mergers += other.mergers
        self.suppressed += other.suppressed
        self.max_overshoot = max(self.max_overshoot, other.max_overshoot)
        self.max_sample_weight = max(self.max_sample_weight, other.max_sample_weight)
        self.max_conservation = max(self.max_conservation, other.max_conservation)
        self.max_transfer = max(self.max_transfer, other.max_transfer)


def _conservation_err(before: np.ndarray, after: np.ndarray) -> float:
    """Total-cap change across an event, in units of ulp(total before)."""
    sb = math.fsum(before.tolist())
    sa = math.fsum(after.tolist())
    return abs(sa - sb) / np.spacing(sb)


def _transfer_err(pi_before: np.ndarray, pi_after: np.ndarray) -> float:
    return abs(math.fsum(pi_after.tolist()) - math.fsum(pi_before.tolist()))


# ---------------------------------------------------------------------------
# shared per-path event resolution (used verbatim by both engines)


def _apply_one_split(
    caps: np.ndarray,
    i: int,
    w_i: float,
    t: float,
    path: int,
    params: ModelParams,
    ev_gen: np.random.Generator,
    rules: Sequence[PortfolioRule],
    pis: list[np.ndarray],
    instr: Instrumentation,
    emit: Callable[[EventRecord], None] | None,
) -> np.ndarray:
    instr.max_overshoot = max(
        instr.max_overshoot, float(np.log(w_i) - np.log1p(-params.delta))
    )
    xi = draw_split_fraction(params, ev_gen)
    new_caps = apply_split(caps, i, xi)
    instr.splits += 1
    instr.max_conservation = max(
        instr.max_conservation, _conservation_err(caps, new_caps)
    )
    for r in range(len(rules)):
        pi_after = transfer_on_split(pis[r], i, caps, new_caps)
        instr.max_transfer = max(instr.max_transfer, _transfer_err(pis[r], pi_after))
        pis[r] = pi_after
    if emit is not None:
        emit(
            EventRecord(
                path=path,
                t=t,
                kind="split",
                i=i + 1,
                j=None,
                xi=xi,
                n_before=len(caps),
                n_after=len(new_caps),
            )
        )
    return new_caps


def _resolve_boundary(
    caps: np.ndarray,
    t: float,
    path: int,
    params: ModelParams,
    ev_gen: np.random.Generator,
    rang: bool,
    rules: Sequence[PortfolioRule],
    pis: list[np.ndarray],
    instr: Instrumentation,
    emit: Callable[[EventRecord], None] | None,
) -> tuple[np.ndarray, bool, bool]:
    """Resolve all events at one step boundary.

    Returns ``(caps, exploded, had_event)``.  ``pis`` (per-rule portfolio
    weight vectors in company order) is mutated in place alongside the
    renaming.  Splits cascade until the top weight is below the
    threshold; a merger fires only if the clock rang and no split fired
    at this boundary.
    """
    split_fired = False
    merge_pending = rang
    while True:
        w = market_weights(caps)
        i = detect_split(w, params.delta)
        if i is not None:
            caps = _apply_one_split(
                caps, i, float(w[i]), t, path, params, ev_gen, rules, pis, instr, emit
            )
            split_fired = True
            if len(caps) >= params.n_max:
                return caps, True, True
            continue
        if not merge_pending or split_fired:
            break
        merge_pending = False
        i, j = sample_merger_pair(caps, ev_gen)
        if merger_suppressed(w, i, j, params.delta):
            instr.suppressed += 1
            kind, new_caps = "suppressed_merger", caps
        else:
            kind, new_caps = "merger", apply_merger(caps, i, j)
            instr.mergers += 1
            instr.max_conservation = max(
                instr.max_conservation, _conservation_err(caps, new_caps)
            )
            for r in range(len(rules)):
                pi_after = transfer_on_merger(pis[r], i, j)
                instr.max_transfer = max(
                    instr.max_transfer, _transfer_err(pis[r], pi_after)
                )
                pis[r] = pi_after
        if emit is not None:
            emit(
                EventRecord(
                    path=path,
                    t=t,
                    kind=kind,
                    i=i + 1,
                    j=j + 1,
                    xi=None,
                    n_before=len(caps),
                    n_after=len(new_caps),
                )
            )
        if kind == "suppressed_merger":
            break
        # defensively loop once more to re-check the split threshold after
        # the merger; under delta < 1/6 a merged non-top pair never reaches it
        caps = new_caps
    had_event = split_fired or rang
    if had_event:
        instr.max_sample_weight = max(
            instr.max_sample_weight, float(np.max(market_weights(caps)))
        )
    return caps, False, had_event


def _mu_top(caps: np.ndarray) -> float:
    """Top market weight as max(caps)/total, both via explicit loops.

    This is the exact expression the batch engine evaluates per step, so
    the scalar engine uses it too wherever the value is recorded.
    """
    c = np.float64(0.0)
    m = np.float64(-np.inf)
    for k in range(len(caps)):
        c = c + caps[k]
        if caps[k] > m:
            m = caps[k]
    return float(m / c)


# ---------------------------------------------------------------------------
# scalar reference engine


def reference_path(
    params: ModelParams,
    initial_caps: np.ndarray,
    horizon: float,
    seed: int,
    path: int,
    rules: Sequence[PortfolioRule] = (),
    tables: StepTables | None = None,
    stride: int = 0,
    series_cols: tuple[int, int] | None = None,
) -> dict:
    """Simulate one full path with the scalar loop.

    Composes the public operations step by step; the batch engine must
    reproduce this output exactly.  Returns a dict with final caps,
    per-rule wealth, the log change-of-measure density, status, event
    records and optional CSV series rows.
    """
    params.require_valid()
    if tables is None:
        tables = StepTables.build(params)
    streams = PathStreams.for_path(seed, path)
    instr = Instrumentation()
    events: list[EventRecord] = []
    caps = np.array(initial_caps, dtype=np.float64)
    rules = tuple(rules)
    v = np.ones(len(rules))
    gs = GirsanovState()
    status = 0
    dt = params.dt
    last = int(round(horizon / dt))
    max_n = len(caps)
    series: list[str] = []

    # entry resolution: a concentrated initial market splits at t = 0+
    pis = [rl.weights(MarketState(t=0.0, caps=caps)) for rl in rules]
    caps, exploded, _ = _resolve_boundary(
        caps, 0.0, path, params, streams.events, False, rules, pis, instr,
        events.append,
    )
    max_n = max(max_n, len(caps))
    if exploded:
        status = 1

    def _row(step: int) -> str:
        mu1 = _mu_top(caps)
        if series_cols is None:
            vm, vp = 1.0, 1.0
        else:
            vm, vp = v[series_cols[0]], v[series_cols[1]]
        z = np.exp(np.float64(gs.log_z))
        return (
            f"{path},{float(step * dt)!r},{len(caps)},{float(mu1)!r},"
            f"{float(vm)!r},{float(vp)!r},{float(z)!r}"
        )

    if stride > 0 and status == 0:
        series.append(_row(0))

    step = 0
    while step < last and status == 0:
        n = len(caps)
        state_before = MarketState(t=step * dt, caps=caps)
        # the rules are functions of the current state; rebalance happens
        # every step, so weights are recomputed rather than carried
        pis = [rl.weights(state_before) for rl in rules]
        z = streams.noise.standard_normal(n)
        try:
            new_caps = euler_step(state_before, params, z).caps
        except OverflowError:
            status = 2
            break
        step += 1
        t = step * dt
        u = float(streams.clock.random())
        ring = u < tables.pstep[n]

        r = new_caps / caps - 1.0
        try:
            for idx in range(len(rules)):
                v[idx] = wealth_step(v[idx], pis[idx], r)
        except WealthError:
            status = 3
            break
        gs = accumulate(gs, state_before, params, z)
        caps = new_caps
        c_now = total_cap(caps)
        if not np.isfinite(c_now) or not c_now > 0.0:
            status = 2
            break

        pis = [rl.weights(MarketState(t=t, caps=caps)) for rl in rules]
        caps, exploded, had = _resolve_boundary(
            caps, t, path, params, streams.events, ring, rules, pis, instr,
            events.append,
        )
        max_n = max(max_n, len(caps))
        if exploded:
            status = 1
            break
        if not had:
            instr.max_sample_weight = max(instr.max_sample_weight, _mu_top(caps))
        if stride > 0 and (step % stride == 0 or step == last):
            series.append(_row(step))

    return {
        "caps": caps,
        "n": len(caps),
        "max_n": max_n,
        "v": v,
        "log_z": float(gs.log_z),
        "qv": gs.qv,
        "status": status,
        "events": events,
        "series": series,
        "instr": instr,
        "total": float(total_cap(caps)),
    }


# ---------------------------------------------------------------------------
# batch engine


@dataclass(frozen=True)
class EngineRun:
    """Specification of a simulation run.

    ``rules`` are evaluated on every path in one pass.  ``stride > 0``
    collects CSV series rows every ``stride`` steps; ``series_cols``
    picks which two rules fill the market / portfolio value columns.
    ``collect_events`` gathers every EventRecord into the result: block
    by block, and within a block step by step in path order, so each
    path's records are in time order and the list is the same at any
    worker count.  Without it no record is built.
    """

    params: ModelParams
    initial_caps: np.ndarray
    horizon: float
    n_paths: int
    seed: int
    rules: tuple[PortfolioRule, ...] = ()
    workers: int = 1
    stride: int = 0
    series_cols: tuple[int, int] | None = None
    collect_events: bool = False
    collect_final_caps: bool = False


@dataclass
class EngineResult:
    final_wealth: np.ndarray      # (n_rules, n_paths)
    final_log_z: np.ndarray       # (n_paths,)
    final_qv: np.ndarray          # (n_paths,)
    final_n: np.ndarray           # (n_paths,) int64
    max_n: np.ndarray             # (n_paths,) int64
    final_total: np.ndarray       # (n_paths,)
    initial_total: float
    status: np.ndarray            # (n_paths,) int8
    instr: Instrumentation
    series: list[str] = field(default_factory=list)
    events: list[EventRecord] = field(default_factory=list)
    final_caps: list | None = None

    @property
    def ok(self) -> np.ndarray:
        return self.status == 0


def _col_sum(a: np.ndarray) -> np.ndarray:
    """Left-to-right sum over the company axis of a company-major array.

    ``a`` has shape ``(k, p)``; the result is ``((0 + a[0]) + a[1]) + ...``
    for every column.  With ``p > 1`` numpy reduces the outer axis one
    row at a time into the output, which is that order.  A single column
    collapses to a 1-d reduction that numpy sums pairwise, so that case
    runs the loop explicitly.
    """
    if a.shape[1] == 1:
        acc = np.zeros(1)
        for row in a:
            acc = acc + row
        return acc
    return np.add.reduce(a, axis=0, initial=0.0)


def _run_chunk(run: EngineRun, start: int, stop: int, tables: StepTables) -> dict:
    params = run.params
    rules = run.rules
    n_rules = len(rules)
    dt = params.dt
    last = int(round(run.horizon / dt))
    p_cnt = stop - start
    n0 = len(run.initial_caps)
    n_max = params.n_max
    thr_eff = (1.0 - params.delta) * (1.0 - FILTER_SLACK)

    # company-major: caps[k, p] is slot k of path p; the slots from
    # n_arr[p] up are padding and hold exactly 0.0
    cap_k = min(n_max, n0 + 4)
    caps = np.zeros((cap_k, p_cnt))
    caps[:n0] = np.asarray(run.initial_caps, dtype=np.float64)[:, None]
    n_arr = np.full(p_cnt, n0, dtype=np.int64)
    max_n = np.full(p_cnt, n0, dtype=np.int64)
    status = np.zeros(p_cnt, dtype=np.int8)
    act = np.ones(p_cnt, dtype=bool)
    v = np.ones((n_rules, p_cnt))
    m_acc = np.zeros(p_cnt)
    qv_acc = np.zeros(p_cnt)

    ngens = [path_generator(run.seed, p, NOISE) for p in range(start, stop)]
    cgens = [path_generator(run.seed, p, CLOCK) for p in range(start, stop)]
    egens: list[np.random.Generator | None] = [None] * p_cnt
    # the RNG buffers stay path-major because they are refilled per path
    nbuf = np.zeros((p_cnt, NOISE_BUF))
    npos = np.full(p_cnt, NOISE_BUF, dtype=np.int64)
    ubuf = np.ones((p_cnt, CLOCK_BUF))
    upos = np.full(p_cnt, CLOCK_BUF, dtype=np.int64)

    instr = Instrumentation()
    events_list: list[EventRecord] = []
    emit = events_list.append if run.collect_events else None
    series: list[str] = []

    def _ev_gen(p: int) -> np.random.Generator:
        g = egens[p]
        if g is None:
            g = path_generator(run.seed, start + p, EVENTS)
            egens[p] = g
        return g

    def _fail(p: int, code: int) -> None:
        status[p] = code
        act[p] = False
        npos[p] = 0
        upos[p] = 0

    def _resolve_paths(paths: np.ndarray, ring: np.ndarray, t: float) -> None:
        nonlocal caps, cap_k
        for p in paths:
            n_p = int(n_arr[p])
            caps_p = caps[:n_p, p].copy()
            pis_p = [rl.weights(MarketState(t=t, caps=caps_p)) for rl in rules]
            caps_p, exploded, had = _resolve_boundary(
                caps_p, t, start + p, params, _ev_gen(p), bool(ring[p]),
                rules, pis_p, instr, emit,
            )
            n_new = len(caps_p)
            if n_new > cap_k:
                grow = min(n_max, max(n_new, cap_k + 4))
                caps = np.vstack([caps, np.zeros((grow - cap_k, p_cnt))])
                cap_k = grow
            caps[:, p] = 0.0
            caps[:n_new, p] = caps_p
            n_arr[p] = n_new
            if n_new > max_n[p]:
                max_n[p] = n_new
            if exploded:
                _fail(p, 1)

    # entry resolution at t = 0 (same initial caps on every path, so the
    # check is done once; the per-path resolution still draws its own xi)
    w0 = market_weights(np.asarray(run.initial_caps, dtype=np.float64))
    if detect_split(w0, params.delta) is not None:
        _resolve_paths(
            np.arange(p_cnt), np.zeros(p_cnt, dtype=bool), 0.0
        )

    ar_rows = np.arange(p_cnt)
    mu1 = np.zeros(p_cnt)

    # flat views: buffer cell (p, i) is element p * BUF + i
    ths_flat = tables.ths.reshape(-1)
    nflat = nbuf.reshape(-1)
    uflat = ubuf.reshape(-1)
    noise_row = ar_rows * NOISE_BUF
    clock_row = ar_rows * CLOCK_BUF

    def _series_rows(step: int) -> None:
        t = float(step * dt)
        logz = -m_acc - 0.5 * qv_acc
        zz = np.exp(logz)
        for p in range(p_cnt):
            if status[p] != 0:
                continue
            if series_vm is None:
                vm, vp = 1.0, 1.0
            else:
                vm, vp = v[series_vm, p], v[series_vp, p]
            series.append(
                f"{start + p},{t!r},{int(n_arr[p])},{float(mu1[p])!r},"
                f"{float(vm)!r},{float(vp)!r},{float(zz[p])!r}"
            )

    if run.series_cols is None:
        series_vm = series_vp = None
    else:
        series_vm, series_vp = run.series_cols

    if run.stride > 0:
        mu1 = caps.max(axis=0) / _col_sum(caps)
        _series_rows(0)

    step = 0
    while step < last:
        if not act.any():
            break
        k_n = cap_k
        ar_k = np.arange(k_n, dtype=np.int64)[:, None]

        # refill per-path buffers, preserving unconsumed values
        need = np.nonzero(act & (npos + k_n > NOISE_BUF))[0]
        for p in need:
            left = NOISE_BUF - npos[p]
            if left > 0:
                nbuf[p, :left] = nbuf[p, npos[p] :]
            nbuf[p, left:] = ngens[p].standard_normal(NOISE_BUF - left)
            npos[p] = 0
        need = np.nonzero(act & (upos >= CLOCK_BUF))[0]
        for p in need:
            ubuf[p] = cgens[p].random(CLOCK_BUF)
            upos[p] = 0

        z = nflat.take((noise_row + npos) + ar_k)
        npos = npos + np.where(act, n_arr, 0)
        new_caps, order, cell = rank_step(caps, n_arr, tables, z)
        ths = ths_flat.take(cell)
        new_caps = np.where(act, new_caps, caps)

        pos = caps > 0.0
        r = np.ones((k_n, p_cnt))
        np.divide(new_caps, caps, out=r, where=pos)
        r -= 1.0
        # as in euler_step, a company whose cap falls to 0.0 fails the path
        # (an infinite cap shows in x_max below)
        underflow = (pos & ~(new_caps > 0.0)).any(axis=0)

        step += 1
        t = float(step * dt)

        # wealth updates off the diffusion returns (pre-event weights)
        if n_rules:
            c_pre = _col_sum(caps)
        for idx, rl in enumerate(rules):
            if rl.kind == "cash":
                continue
            if rl.kind == "market":
                acc = _col_sum((caps / c_pre) * r)
            elif rl.kind == "equal":
                # padded slots have r exactly 0.0, so no masking is needed
                acc = _col_sum((1.0 / n_arr) * r)
            elif rl.kind == "rank":
                acc = r[order[rl.k], ar_rows]
            else:  # name
                acc = r[rl.k]
            v[idx] = v[idx] * np.where(act, 1.0 + acc, 1.0)

        # measure-change accumulators
        dm = _col_sum(ths * z)
        m_acc = m_acc + np.where(act, dm, 0.0)
        qv_acc = qv_acc + np.where(act, tables.qrow[n_arr], 0.0)

        caps = new_caps
        c_tot = _col_sum(caps)
        x_max = caps.max(axis=0)

        # the reference's order within a step: a cap out of range gives
        # status 2, else a rule's wealth that is not > 0 gives status 3,
        # else a total out of range gives status 2
        cap_out = underflow | (x_max == np.inf)
        broke = act & ~cap_out & ~(v > 0.0).all(axis=0)
        bad = act & ~broke & (cap_out | ~(np.isfinite(c_tot) & (c_tot > 0.0)))
        for p in np.nonzero(broke)[0]:
            _fail(p, 3)
        for p in np.nonzero(bad)[0]:
            _fail(p, 2)

        split_flag = act & (x_max >= thr_eff * c_tot)

        u = uflat.take(clock_row + upos)
        upos = upos + np.where(act, 1, 0)
        ring = act & ~split_flag & (u < tables.pstep[n_arr])

        todo = np.nonzero(split_flag | ring)[0]
        if todo.size:
            _resolve_paths(todo, ring, t)
            # ranks/caps changed for those paths; recompute their mu1 below

        with np.errstate(invalid="ignore"):
            mu1 = x_max / c_tot    # nan on failed paths; masked by `quiet`
        for p in todo:
            if act[p]:
                mu1[p] = _mu_top(caps[: n_arr[p], p])
        quiet = act & ~split_flag & ~ring
        qmax = float(np.where(quiet, mu1, 0.0).max()) if quiet.any() else 0.0
        instr.max_sample_weight = max(instr.max_sample_weight, qmax)

        if run.stride > 0 and (step % run.stride == 0 or step == last):
            _series_rows(step)

    # finalize
    log_z = -m_acc - 0.5 * qv_acc
    out = {
        "v": v,
        "log_z": log_z,
        "qv": qv_acc,
        "n": n_arr,
        "max_n": max_n,
        "total": _col_sum(caps),
        "status": status,
        "instr": instr,
        "series": series,
        "events": events_list,
    }
    if run.collect_final_caps:
        out["caps"] = [caps[: n_arr[p], p].copy() for p in range(p_cnt)]
    return out


def _chunk_args(run: EngineRun) -> list[tuple[int, int]]:
    return [(s, min(s + CHUNK, run.n_paths)) for s in range(0, run.n_paths, CHUNK)]


def _run_chunk_star(args) -> dict:
    run, start, stop, tables = args
    return _run_chunk(run, start, stop, tables)


def run_paths(run: EngineRun) -> EngineResult:
    """Simulate ``run.n_paths`` paths and aggregate the results.

    Output is byte-identical for any ``workers`` value: the path block
    layout is fixed by :data:`CHUNK` and blocks are reassembled in
    order.
    """
    run.params.require_valid()
    if run.n_paths <= 0:
        raise ValueError("n_paths must be positive")
    caps0 = np.asarray(run.initial_caps, dtype=np.float64)
    MarketState(t=0.0, caps=caps0).check()
    if len(caps0) >= run.params.n_max:
        raise ValueError("initial company count must be below n_max")
    for rl in run.rules:
        if rl.kind in ("rank", "name") and rl.k >= len(caps0):
            raise ValueError(f"rule {rl.name} targets a missing company")
    if run.series_cols is not None:
        for idx in run.series_cols:
            if not 0 <= idx < len(run.rules):
                raise ValueError("series_cols indexes outside rules")

    tables = StepTables.build(run.params)
    parts = _chunk_args(run)
    if run.workers > 1 and len(parts) > 1:
        with ProcessPoolExecutor(max_workers=run.workers) as ex:
            chunks = list(
                ex.map(_run_chunk_star, [(run, a, b, tables) for a, b in parts])
            )
    else:
        chunks = [_run_chunk(run, a, b, tables) for a, b in parts]

    n_rules = len(run.rules)
    p_tot = run.n_paths
    res = EngineResult(
        final_wealth=np.empty((n_rules, p_tot)),
        final_log_z=np.empty(p_tot),
        final_qv=np.empty(p_tot),
        final_n=np.empty(p_tot, dtype=np.int64),
        max_n=np.empty(p_tot, dtype=np.int64),
        final_total=np.empty(p_tot),
        initial_total=float(total_cap(caps0)),
        status=np.empty(p_tot, dtype=np.int8),
        instr=Instrumentation(),
        final_caps=[] if run.collect_final_caps else None,
    )
    for (a, b), ch in zip(parts, chunks):
        res.final_wealth[:, a:b] = ch["v"]
        res.final_log_z[a:b] = ch["log_z"]
        res.final_qv[a:b] = ch["qv"]
        res.final_n[a:b] = ch["n"]
        res.max_n[a:b] = ch["max_n"]
        res.final_total[a:b] = ch["total"]
        res.status[a:b] = ch["status"]
        res.instr.merge(ch["instr"])
        res.series.extend(ch["series"])
        res.events.extend(ch["events"])
        if run.collect_final_caps:
            res.final_caps.extend(ch["caps"])
    return res

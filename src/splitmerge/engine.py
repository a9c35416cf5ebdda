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
    same order.

:func:`twin_mismatches` is the one comparison of the two engines.  It
runs :func:`reference_path` on each path of an :class:`EngineRun` and
lists every field in which the batch result differs, by path and field;
the tests and their fuzzer require the list to be empty.

:func:`rank_step` is the one vectorized frozen-rank step, of the batch
engine and the split-race probe (``euler_step`` is its scalar oracle,
see :mod:`splitmerge.dynamics`).  It ranks only where the tables need
it.  With rank-flat tables (:attr:`StepTables.flat`, as for
``RankTable(a, 0)``) it gathers by slot, which reads the same floats,
and returns ``order = None``; a ``rank k`` portfolio rule then finds its
slot by ``k + 1`` first-maximum passes over the caps, which break ties
as the stable sort does.  Otherwise a block of :data:`PACKED_SORT_ROWS`
rows or more is ranked by one packed integer sort per path, exact for
caps in [+0.0, +inf] except on ties and near-ties, where it falls back
to the stable argsort that also ranks narrower blocks
(:func:`_rank_order`).

Determinism contract
--------------------
Results depend only on ``(seed, path index)`` and the run parameters.
:func:`map_blocks` cuts the paths into blocks of :data:`CHUNK` paths
whatever ``workers`` is and returns the blocks' results in order, so
the worker count can never change a single output byte; it only
changes which process touches which block.  The split-race and walk
probes of :mod:`splitmerge.bounds` count their hits on the same blocks.

Every sum over companies is the left-to-right accumulation
``((0 + x_1) + x_2) + ...`` in company order, in both engines.  The
batch engine keeps a block's caps *company-major*: one C-contiguous
``(slots, paths)`` array, with company ``k`` of path ``p`` at ``[k, p]``
and the slots past a path's company count held at exactly 0.0.  A sum
over companies is then a reduction over axis 0, which numpy performs
row by row, in the loop's order; :func:`_col_sum` runs the loop itself
for a single path, which numpy would sum pairwise, and a test pins it
byte for byte.  Each step drops the rows past the widest path's count,
but not rows ``0..k`` that a ``rank k`` or ``name k`` rule reads; no
value moves, as a dropped row holds 0.0, noise is consumed by count
rather than by row, and a failed path keeps its count.  The array a
block ends with is its result's ``final_caps``; :func:`run_paths` joins
the blocks' arrays into one ``(rows, n_paths)`` array, padding the
shorter ones with 0.0 rows, so ``final_caps[:final_n[p], p]`` are the
caps of path ``p`` in order and the rest of its column is 0.0.

Events are resolved on lists of Python floats in both engines (see
:mod:`splitmerge.events`), by the one resolver :func:`_resolve_boundary`, which
runs every split and merger through one sequence of apply, audit,
transfer and log.  The batch engine reads the columns it resolves into
lists and writes them back in one block per step.  The results stay
bit-identical to array arithmetic because the same IEEE operations run
in the same order:

* totals are explicit left-to-right loops from ``0.0``, never the
  built-in ``sum()``, which from Python 3.12 compensates rounding;
* the top company is the first maximum, ``xs.index(max(xs))``, as
  ``argmax`` picks it;
* the ``rank`` rule orders companies by
  ``sorted(range(n), key=caps.__getitem__, reverse=True)``; a reverse
  sort keeps ties in index order, as a stable argsort of ``-caps`` does;
* the overshoot keeps ``np.log``/``np.log1p`` and the conservation
  audit ``np.spacing``.

Each pass of the resolver takes one left-to-right total ``C`` and one
``max(x)``, and a split fires when ``max(x)/C >= 1 - delta``, the batch
engine's flag test below.  Its company is ``caps.index(max(x))``: a
weight at or above ``1 - delta > 1/2`` is unique, so this is the company
:func:`~splitmerge.events.detect_split` picks.  Every split and real
merger is audited with ``math.fsum`` on the lists the event functions
returned, the total cap and each rule's weights.

Per step, an alive path draws from its streams as
:mod:`splitmerge.streams` lists them, its clock uniform even on steps
where a split preempts the merger clock; finished paths draw nothing.
The batch engine buffers the noise and clock streams, and a block holds
only what it reads.  Every path starts with an empty clock buffer and
every alive path reads one uniform per step, so all alive paths sit at
one shared position of a step-major ``(rows, paths)`` buffer.  When it
runs out, each alive path draws ``min(CLOCK_BUF, steps left)``
uniforms, a prefix of its stream, so nothing past the horizon is drawn.
Noise rows are path-major, ``max(min(NOISE_STEPS * n0, N_MAX_LIMIT),
n_max)`` cells for ``n0`` starting companies; a path's row is refilled,
its unread values kept, when it holds fewer than the step reads.  A
step reads at most ``n_max`` cells of a row, so a row always fits it.
The gather reads cells past a path's count, which zero coefficients
cancel, so every cell is finite: rows start at 0.0, and a failed path's
stale cells are never refilled.

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

Each of these decisions has one definition.  The batch engine flags a
path for resolution, at entry and after every step, with the resolver's
own split test, ``max(x)/C >= 1 - delta``, which is exact rather than a
filter: ``C`` is the resolver's left-to-right total (the padded +0.0
slots leave a positive total unchanged), and a correctly rounded
division by one positive ``C`` is monotone, so ``max(x)/C`` is bit for
bit the ``max(x_i/C)`` that :func:`~splitmerge.events.detect_split`
compares.  A flagged path therefore always splits, and a path that does
not split keeps its clock.  :func:`_resolve_boundary` builds the rule
weights it transfers from the caps it is given.  The top weight after a
boundary, ``max(x)/C``, is measured once: by the batch step, or else by
the resolver's last pass, which returns it.  One :func:`_series_row`
formats the series rows of both engines.

A valid run has one definition as well, :meth:`EngineRun.validate`:
``run_paths`` calls it, ``reference_path`` calls it on the run of its
one path (``n_paths = path + 1``), and :mod:`splitmerge.config` reports
its problems with the file's own, so the two engines and a config file
reject exactly the same inputs.  Validation makes the horizon a whole
number of steps, at least one, so both engines take
``int(round(horizon / dt))`` steps and rounding changes nothing.

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
from typing import Callable, Iterable, Sequence

import numpy as np

from .dynamics import euler_step, market_weights, total_cap
from .events import (
    EventRecord,
    apply_merger,
    apply_split,
    clock_rate_row,
    draw_split_fraction,
    merger_suppressed,
    sample_merger_pair,
)
from .girsanov import GirsanovState, accumulate, theta_row
from .params import N_MAX_LIMIT, ModelParams
from .portfolio import (
    PortfolioRule,
    WealthError,
    transfer_on_merger,
    transfer_on_split,
    wealth_step,
)
from .streams import CLOCK, EVENTS, NOISE, SEED_LIMIT, path_generator

CHUNK = 4096        # paths per block; part of the determinism contract

# Buffered normals per path, in steps of the starting market: a row holds
# NOISE_STEPS * n0 cells, at most N_MAX_LIMIT and at least n_max.  A refill
# costs about 2 us per path besides its draws (19 ns a normal).  Median time
# of one 1024-path event_heavy block (n0 = 4), 15 alternating rounds: 0.567 s
# at 64 steps, 0.568 s at 96, 0.564 s at 128, 0.570 s at 192 (768 cells).
# Capping rows at 1024 cells cost nothing at n0 = 64 (5.14 s against 5.58 s
# uncapped, 4096 paths) or at n0 = 200, where an uncapped 4096-path block
# would hold 420 MB of noise.  (numpy 2.4, Python 3.11, shared 2-core VM.)
NOISE_STEPS = 64
# Buffered clock uniforms per path, at most the steps left to the horizon.
# One 4096-path default.cfg block (500 steps, two refills) took a median
# 1.48 s at 256 against 1.47 s at 64 and 1.34 s at 1024 over 7 rounds, inside
# the spread; 256 rows hold 8.4 MB where 500 would hold 16.4 MB.
CLOCK_BUF = 256

# Rows from which _rank_order packs its sort.  Packed time over argsort
# time for 1024 paths (numpy 2.4, Python 3.11, shared 2-core VM): 2.3x at
# 3 rows, 1.2-1.3x at 6, 0.98-1.10x at 7, 0.85-0.94x at 8, 0.73-0.75x at
# 10, 0.42-0.44x at 16, 0.44-0.45x at 32; about 120 us of it is fixed.
PACKED_SORT_ROWS = 8

SERIES_HEADER = "path,t,n,mu_1,v_market,v_pi,z"


# ---------------------------------------------------------------------------
# precomputed per-step coefficient tables


@dataclass(frozen=True)
class StepTables:
    """Rank-indexed per-step coefficients shared by both engines.

    Row ``n`` holds values for an ``n``-company market at column
    ``rank + 1`` (column 0 and columns > n are zero padding).  Using one
    shared precomputation guarantees the two engines multiply the same
    floats.

    ``flat`` is derived from the tables, never passed in: it is true when
    ``gdt``, ``ssq`` and ``ths`` each hold one float across ranks 1..n of
    every row n = 2..n_max (exact float equality), and then
    :func:`rank_step` skips ranking.
    """

    gdt: np.ndarray    # g(n, k) * dt
    ssq: np.ndarray    # sigma(n, k) * sqrt(dt)
    ths: np.ndarray    # theta(n, k) * sqrt(dt)
    qrow: np.ndarray   # sum_k theta(n, k)^2 * dt, left-to-right over ranks
    pstep: np.ndarray  # P(clock rings in one step) = -expm1(-lambda_n * dt)
    flat: bool = field(init=False)

    def __post_init__(self) -> None:
        rows, width = self.gdt.shape
        n = np.arange(rows)[:, None]
        col = np.arange(width)
        live = (n >= 2) & (col >= 1) & (col <= n)
        tabs = np.stack([self.gdt, self.ssq, self.ths])
        same = tabs == tabs[:, :, 1:2]
        object.__setattr__(self, "flat", bool((same | ~live).all()))

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
        # the padding adds +0.0 to sums of squares, which changes no sum
        qrow = _col_sum(np.ascontiguousarray(((th * th) * dt).T))
        lam = clock_rate_row(params)
        pstep = -np.expm1(-lam * dt)
        return cls(gdt=gdt, ssq=ssq, ths=ths, qrow=qrow, pstep=pstep)


def rank_step(
    caps: np.ndarray, n, tables: StepTables, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """One frozen-rank diffusion step of a company-major block of paths.

    ``caps`` and ``z`` are ``(slots, paths)``; ``n`` is the company count
    of each path (an array, or one int for all).  Slots past a path's
    count must hold 0.0: they rank last and gather the zero padding of
    ``tables``.  Returns ``(new_caps, order, cell)``: ``order[j, p]`` is
    the slot holding 0-based rank ``j`` of path ``p`` (stable sort, so
    ties rank the lower slot better), and ``cell`` is each slot's flat
    index ``n * width + 1 + rank`` into the raveled ``tables`` arrays.
    Caps that overflow come back as inf; callers check the range.

    When ``tables.flat``, the sort is skipped, ``order`` is None and the
    slot stands in for the rank: ``cell = n * width + 1 + slot``.  A live
    slot then gathers the float its rank would (the row holds one value
    across ranks 1..n), and a padded slot, whose rank is also >= n,
    gathers zero padding either way, so the result is bit-identical.
    Otherwise :func:`_rank_order` ranks, for caps in [+0.0, +inf].
    ``new_caps`` is C-contiguous on both paths, whatever the layout of
    ``z``: :func:`_col_sum` reduces it in the loop's order only then.
    """
    width = tables.gdt.shape[1]
    if tables.flat:
        order = None
        cell = (n * width + 1) + np.arange(caps.shape[0], dtype=np.int64)[:, None]
    else:
        order, ranks = _rank_order(caps, n)
        # C order: a gather through a transposed index runs at half speed
        cell = np.add(n * width + 1, ranks, order="C")
    with np.errstate(over="ignore", invalid="ignore"):
        growth = np.exp(tables.gdt.take(cell) + tables.ssq.take(cell) * z)
        new_caps = np.multiply(caps, growth, order="C")
    return new_caps, order, cell


def _rank_order(caps: np.ndarray, n) -> tuple[np.ndarray, np.ndarray]:
    """``order[j, p]``, the slot of rank ``j``, and ``ranks[s, p]``, the
    rank of slot ``s``, as the stable argsort of ``-caps`` gives them.

    From :data:`PACKED_SORT_ROWS` rows up, one integer sort per path of
    the keys ``~bits(cap)`` with the slot in their low ``sb`` bits
    (``2**sb >= rows``): the stable order, unless two of a path's first
    ``n`` sorted keys share their high bits (caps tied, or within
    ``2**sb`` ulp) and the block falls back to the argsort.  Padded zeros
    tie only with each other, in slot order, as the stable sort has them.
    Domain, not checked: caps in [+0.0, +inf], no nan, no -0.0; the
    padding and an underflowed cap (its path fails) are +0.0.
    """
    rows, paths = caps.shape
    if rows >= PACKED_SORT_ROWS:
        sb = (rows - 1).bit_length()
        low = np.uint64((1 << sb) - 1)
        keys = np.invert(caps.T.view(np.uint64), order="C")  # (paths, rows)
        keys &= ~low
        keys |= np.arange(rows, dtype=np.uint64)
        keys.sort(axis=1)
        tied = (keys[:, 1:] ^ keys[:, :-1]) <= low  # same high bits
        if not (tied & (np.arange(1, rows) < np.reshape(n, (-1, 1)))).any():
            order = np.bitwise_and(keys, low, out=keys).view(np.int64)
            ranks = np.empty(rows * paths, dtype=np.int64)
            ranks[order + np.arange(0, rows * paths, rows)[:, None]] = np.arange(rows)
            return order.T, ranks.reshape(paths, rows).T
    order = np.argsort(-caps, axis=0, kind="stable")
    ranks = np.empty_like(order)
    ranks[order, np.arange(paths)] = np.arange(rows, dtype=np.int64)[:, None]
    return order, ranks


def _rank_slot(caps: np.ndarray, k: int) -> np.ndarray:
    """Slot holding 0-based rank ``k`` of each column of ``caps``.

    ``k + 1`` first-maximum passes, each writing -inf over the slot it
    found (in a copy).  ``argmax`` returns the first maximum, so ties go
    to the lower slot, as in the stable sort of :func:`rank_step`.  With
    ``k`` at or past a column's company count the pass lands on a padded
    0.0 slot, whose return is 0.0, as the sorted ``order`` gives.
    """
    if k:
        caps = caps.copy()
        cols = np.arange(caps.shape[1])
        for _ in range(k):
            caps[caps.argmax(axis=0), cols] = -np.inf
    return caps.argmax(axis=0)


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


def _conservation_err(before: list[float], after: list[float]) -> float:
    """Total-cap change across an event, in units of ulp(total before)."""
    sb = math.fsum(before)
    sa = math.fsum(after)
    return abs(sa - sb) / np.spacing(sb)


def _transfer_err(pi_before: list[float], pi_after: list[float]) -> float:
    return abs(math.fsum(pi_after) - math.fsum(pi_before))


# ---------------------------------------------------------------------------
# shared per-path event resolution (used verbatim by both engines)


def _resolve_boundary(
    caps: list[float],
    t: float,
    path: int,
    params: ModelParams,
    ev_gen: np.random.Generator,
    rang: bool,
    rules: Sequence[PortfolioRule],
    instr: Instrumentation,
    emit: Callable[[EventRecord], None] | None,
) -> tuple[list[float], bool, bool, float]:
    """Resolve all events at one step boundary.

    ``caps`` is a list of fewer than ``n_max`` Python floats.  Returns
    ``(caps, exploded, had_event, mu)``, ``mu`` being ``max(x)/C`` of the
    returned caps as the last pass measured it; it comes last so that
    ``had_event`` stays at index 2, where a tracing wrapper reads it.
    Each pass measures, stops a path that an event brought to ``n_max``,
    and picks one event: a split while the top weight is at or above the
    threshold, else one merger (real or suppressed) if the clock rang and
    no split fired at this boundary.  Every event is counted and logged by
    one sequence, which also audits the total cap and each rule's
    transferred weights (built here from ``caps``) of a split or a real
    merger.
    """
    pis = [rl.weights(caps) for rl in rules]
    thr = 1.0 - params.delta
    split_fired = False
    merge_pending = rang
    while True:
        # detect_split's test, bit for bit: max(x)/C is max(x_k/C)
        c = total_cap(caps)
        x = max(caps)
        mu = x / c
        if len(caps) >= params.n_max:
            return caps, True, True, mu
        if mu >= thr:
            i = caps.index(x)
            instr.max_overshoot = max(
                instr.max_overshoot, float(np.log(mu) - np.log1p(-params.delta))
            )
            split_fired = True
            j, xi = None, draw_split_fraction(params, ev_gen)
            kind, new_caps = "split", apply_split(caps, i, xi)
            instr.splits += 1
        elif merge_pending and not split_fired:
            merge_pending = False
            (i, j), xi = sample_merger_pair(caps, ev_gen), None
            if merger_suppressed(market_weights(caps), i, j, params.delta):
                kind, new_caps = "suppressed_merger", caps
                instr.suppressed += 1
            else:
                kind, new_caps = "merger", apply_merger(caps, i, j)
                instr.mergers += 1
        else:
            return caps, False, split_fired or rang, mu
        if kind != "suppressed_merger":
            instr.max_conservation = max(
                instr.max_conservation, _conservation_err(caps, new_caps)
            )
            for r in range(len(rules)):
                if j is None:
                    pi_after = transfer_on_split(pis[r], i, caps, new_caps)
                else:
                    pi_after = transfer_on_merger(pis[r], i, j)
                instr.max_transfer = max(
                    instr.max_transfer, _transfer_err(pis[r], pi_after)
                )
                pis[r] = pi_after
        if emit is not None:
            emit(EventRecord(
                path, t, kind, i + 1, None if j is None else j + 1, xi,
                len(caps), len(new_caps),
            ))
        # the next pass re-checks the split threshold: defensively after a
        # merger (under delta < 1/6 a merged non-top pair never reaches
        # it); a suppressed merger moved nothing, so that pass stops
        caps = new_caps


def _series_row(
    path: int, t: float, n: int, mu1: float, vm: float, vp: float, z: float
) -> str:
    """One CSV series row, in the columns of :data:`SERIES_HEADER`."""
    return (
        f"{path},{float(t)!r},{int(n)},{float(mu1)!r},"
        f"{float(vm)!r},{float(vp)!r},{float(z)!r}"
    )


# ---------------------------------------------------------------------------
# scalar reference engine


# a total that overflows ends the path with status 2, so numpy's warning
# on it is noise, as in the batch engine
@np.errstate(over="ignore")
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
    rules = tuple(rules)
    EngineRun(
        params=params, initial_caps=initial_caps, horizon=horizon,
        n_paths=path + 1, seed=seed, rules=rules, stride=stride,
        series_cols=series_cols,
    ).require_valid()
    if tables is None:
        tables = StepTables.build(params)
    noise = path_generator(seed, path, NOISE)
    clock = path_generator(seed, path, CLOCK)
    ev_gen = path_generator(seed, path, EVENTS)
    instr = Instrumentation()
    events: list[EventRecord] = []
    caps = np.array(initial_caps, dtype=np.float64)
    v = np.ones(len(rules))
    gs = GirsanovState()
    status = 0
    dt = params.dt
    last = int(round(horizon / dt))
    max_n = len(caps)
    series: list[str] = []

    # entry resolution: a concentrated initial market splits at t = 0+;
    # events are resolved on lists, the diffusion runs on arrays
    caps_l, exploded, split_fired, mu = _resolve_boundary(
        caps.tolist(), 0.0, path, params, ev_gen, False, rules, instr,
        events.append,
    )
    caps = np.array(caps_l)
    max_n = max(max_n, len(caps))
    if exploded:
        status = 1
    elif split_fired:
        instr.max_sample_weight = max(instr.max_sample_weight, mu)

    def _row(step: int) -> str:
        if series_cols is None:
            vm, vp = 1.0, 1.0
        else:
            vm, vp = v[series_cols[0]], v[series_cols[1]]
        z = np.exp(np.float64(gs.log_z))
        return _series_row(path, step * dt, len(caps), mu, vm, vp, z)

    if stride > 0 and status == 0:
        series.append(_row(0))

    step = 0
    while step < last and status == 0:
        n = len(caps)
        # the rules are functions of the current caps; rebalance happens
        # every step, so weights are recomputed rather than carried
        pis = [np.array(rl.weights(caps)) for rl in rules]
        z = noise.standard_normal(n)
        try:
            new_caps = euler_step(caps, params, z)
        except OverflowError:
            status = 2
            break
        step += 1
        t = step * dt
        u = float(clock.random())
        ring = u < tables.pstep[n]

        r = new_caps / caps - 1.0
        try:
            for idx in range(len(rules)):
                v[idx] = wealth_step(v[idx], pis[idx], r)
        except WealthError:
            status = 3
            break
        gs = accumulate(gs, caps, params, z)
        caps = new_caps
        c_now = total_cap(caps)
        if not np.isfinite(c_now) or not c_now > 0.0:
            status = 2
            break

        caps_l, exploded, _, mu = _resolve_boundary(
            caps.tolist(), t, path, params, ev_gen, ring, rules, instr,
            events.append,
        )
        caps = np.array(caps_l)
        max_n = max(max_n, len(caps))
        if exploded:
            status = 1
            break
        instr.max_sample_weight = max(instr.max_sample_weight, mu)
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


def twin_mismatches(
    run: EngineRun, res: EngineResult, paths: Iterable[int] | None = None
) -> list[str]:
    """Every way the batch result ``res`` of ``run`` differs from
    :func:`reference_path`, one entry per path and field (empty when the
    two engines agree bit for bit).

    Each path of ``paths`` (default: every path of the run) is compared on
    its status, ``n`` and ``max_n``; on status 0 also on each rule's
    wealth, ``log_z``, ``qv``, the total and the final caps in order,
    whose positions the ``name`` rules and the event log's ``i``/``j``
    refer to; on its event records when ``run.collect_events``; and on its
    series rows when ``run.stride > 0``.  When ``paths`` covers the run,
    ``res.instr`` is compared with the merge of the reference paths'.
    Values are compared by ``repr``, which tells every float apart,
    -0.0 from 0.0 included.
    """
    tables = StepTables.build(run.params)
    every = range(run.n_paths)
    paths = every if paths is None else list(paths)
    events: dict[int, list[str]] = {}
    for rec in res.events:
        events.setdefault(rec.path, []).append(rec.to_json())
    rows: dict[int, list[str]] = {}
    for row in res.series:
        rows.setdefault(int(row.partition(",")[0]), []).append(row)
    merged = Instrumentation()
    out: list[str] = []
    for p in paths:
        ref = reference_path(
            run.params, run.initial_caps, run.horizon, run.seed, p,
            rules=run.rules, tables=tables, stride=run.stride,
            series_cols=run.series_cols,
        )
        merged.merge(ref["instr"])
        pairs = [
            ("status", res.status[p], ref["status"]),
            ("n", res.final_n[p], ref["n"]),
            ("max_n", res.max_n[p], ref["max_n"]),
        ]
        if ref["status"] == 0:
            pairs += [(f"wealth[{i}]", res.final_wealth[i, p], ref["v"][i])
                      for i in range(len(run.rules))]
            pairs += [
                ("log_z", res.final_log_z[p], ref["log_z"]),
                ("qv", res.final_qv[p], ref["qv"]),
                ("total", res.final_total[p], ref["total"]),
                ("caps", res.final_caps[:, p].tolist(), ref["caps"].tolist()
                 + [0.0] * (len(res.final_caps) - ref["n"])),
            ]
        if run.collect_events:
            pairs.append(("events", events.get(p, []),
                          [rec.to_json() for rec in ref["events"]]))
        if run.stride > 0:
            pairs.append(("series", rows.get(p, []), ref["series"]))
        out += [f"path {p}: {name}{d}" for name, got, want in pairs
                if (d := _difference(got, want))]
    if set(paths) == set(every):
        out += [
            f"instr.{name}{d}" for name in Instrumentation.__slots__
            if (d := _difference(getattr(res.instr, name), getattr(merged, name)))
        ]
    return out


def _difference(got, want) -> str:
    """How ``got`` differs from ``want``, or "" when it does not.

    Values are compared by ``repr``, numpy scalars as Python numbers; two
    lists that differ are told by their first differing item, or else by
    their lengths.
    """
    got, want = (x.item() if isinstance(x, np.generic) else x for x in (got, want))
    if repr(got) == repr(want):
        return ""
    if isinstance(got, list) and isinstance(want, list):
        for k, (a, b) in enumerate(zip(got, want)):
            if repr(a) != repr(b):
                return f"[{k}]: batch {a!r}, reference {b!r}"
        return f": batch has {len(got)} items, reference {len(want)}"
    return f": batch {got!r}, reference {want!r}"


# ---------------------------------------------------------------------------
# batch engine


def caps_problems(initial_caps, n_max: int) -> list[str]:
    """What is wrong with a starting market (empty when nothing is): it
    must be a 1-d vector of 2 .. n_max - 1 positive finite caps."""
    caps = np.asarray(initial_caps, dtype=np.float64)
    n0 = len(caps) if caps.ndim == 1 else 0
    if n0 < 2:
        return [
            "initial_caps must be a 1-d vector of at least 2 caps, "
            f"got shape {caps.shape}"
        ]
    if n0 >= n_max:  # reported without scanning the caps
        return [f"initial_caps: {n0} companies but n_max = {n_max}"]
    if not (np.isfinite(caps) & (caps > 0.0)).all():
        return ["initial_caps must be positive and finite"]
    return []


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

    def validate(self) -> list[str]:
        """Every problem with the run, each naming its field (empty when
        the run is valid): the model's assumption violations first, then
        the run's own inputs.  Both engines and the config file accept
        exactly the runs this accepts."""
        problems = self.params.validate()
        problems += caps_problems(self.initial_caps, self.params.n_max)
        n0 = len(self.initial_caps) if np.ndim(self.initial_caps) == 1 else 0
        dt = self.params.dt
        if not self.horizon > 0.0:
            problems.append(f"horizon must be positive, got {self.horizon!r}")
        elif dt > 0.0:
            # the engines run round(horizon / dt) steps; a horizon that is
            # not a whole number of steps would be rounded silently
            ratio = self.horizon / dt
            if not math.isfinite(ratio):
                problems.append(f"horizon must be finite, got {self.horizon!r}")
            elif round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-9 * ratio:
                problems.append(
                    f"horizon = {self.horizon!r} is not a whole number of "
                    f"steps of dt = {dt!r}; it would round to "
                    f"{round(ratio)} steps"
                )
        if self.n_paths <= 0:
            problems.append(f"n_paths must be positive, got {self.n_paths}")
        if self.seed < 0:
            problems.append(f"seed must be nonnegative, got {self.seed}")
        elif self.seed >= SEED_LIMIT:
            problems.append(f"seed must be below 2**64, got {self.seed}")
        if self.workers < 1:
            problems.append(f"workers must be at least 1, got {self.workers}")
        if self.stride < 0:
            problems.append(f"stride must be nonnegative, got {self.stride}")
        for rl in self.rules:
            if rl.kind in ("rank", "name") and rl.k >= n0:
                problems.append(
                    f"rules: {rl.name} targets company {rl.k + 1} "
                    f"but only {n0} companies start"
                )
        if self.series_cols is not None and not all(
            0 <= i < len(self.rules) for i in self.series_cols
        ):
            problems.append(
                f"series_cols = {self.series_cols} indexes outside the "
                f"{len(self.rules)} rules"
            )
        return problems

    def require_valid(self) -> "EngineRun":
        problems = self.validate()
        if problems:
            raise ValueError("invalid run:\n  " + "\n  ".join(problems))
        return self


@dataclass
class EngineResult:
    final_wealth: np.ndarray      # (n_rules, n_paths)
    final_log_z: np.ndarray       # (n_paths,)
    final_qv: np.ndarray          # (n_paths,)
    final_n: np.ndarray           # (n_paths,) int64
    max_n: np.ndarray             # (n_paths,) int64
    final_total: np.ndarray       # (n_paths,)
    final_caps: np.ndarray        # (rows, n_paths); 0.0 past final_n
    initial_total: float
    status: np.ndarray            # (n_paths,) int8
    instr: Instrumentation
    series: list[str] = field(default_factory=list)
    events: list[EventRecord] = field(default_factory=list)

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


# A cap or total that leaves (0, inf) fails its path by status code, and
# the inf and nan its column then holds are masked by `act`: numpy's
# overflow and invalid warnings on them are noise (as in reference_path).
@np.errstate(over="ignore", invalid="ignore")
def _run_chunk(
    run: EngineRun, tables: StepTables, start: int, stop: int
) -> EngineResult:
    """Simulate paths ``start .. stop - 1``, one block of :func:`run_paths`."""
    params = run.params
    rules = run.rules
    n_rules = len(rules)
    dt = params.dt
    last = int(round(run.horizon / dt))
    p_cnt = stop - start
    n0 = len(run.initial_caps)

    # company-major: caps[k, p] is slot k of path p; the slots from
    # n_arr[p] up are padding and hold exactly 0.0
    caps = np.repeat(np.asarray(run.initial_caps, dtype=np.float64)[:, None], p_cnt, 1)
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
    # one path-major noise row per path; no step reads more than n_max
    # cells of a row, so nw >= n_max cells always serve it.  Zeros, not
    # empty: the gather reads cells past a path's count, which zero
    # coefficients must cancel, so every cell must be finite
    nw = max(min(NOISE_STEPS * n0, N_MAX_LIMIT), params.n_max)
    nbuf = np.zeros((p_cnt, nw))
    npos = np.full(p_cnt, nw, dtype=np.int64)
    # clock rows are step-major: every alive path reads one uniform per
    # step from an empty start, so one position `upos` serves them all
    ubuf = np.zeros((min(CLOCK_BUF, last), p_cnt))
    upos = urows = 0

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

    def _fail(p, code: int) -> None:  # p: a path, or a mask of paths
        status[p] = code
        act[p] = False
        npos[p] = 0

    def _resolve_paths(
        paths: np.ndarray, ring: np.ndarray, t: float
    ) -> list[float]:
        """Resolve the boundary of each path in ``paths``, in order.

        The columns are read into lists in one batch and written back in
        one block.  Returns each path's top weight after the boundary.
        """
        nonlocal caps
        cols = caps[:, paths].T.tolist()
        done: list[list[float]] = []
        mu: list[float] = []
        for p, caps_p, n_p, rang in zip(
            paths.tolist(), cols, n_arr[paths].tolist(), ring[paths].tolist()
        ):
            del caps_p[n_p:]
            caps_p, exploded, _, mu_p = _resolve_boundary(
                caps_p, t, start + p, params, _ev_gen(p), rang, rules, instr,
                emit,
            )
            if exploded:
                _fail(p, 1)
            done.append(caps_p)
            mu.append(mu_p)
        n_new = np.array([len(c) for c in done])
        if n_new.max() > len(caps):
            caps = np.vstack([caps, np.zeros((n_new.max() - len(caps), p_cnt))])
        block = [c + [0.0] * (len(caps) - len(c)) for c in done]
        caps[:, paths] = np.array(block).T
        n_arr[paths] = n_new
        max_n[paths] = np.maximum(max_n[paths], n_new)
        return mu

    def _record_top(mu1: np.ndarray) -> None:
        """Fold the top weight of every alive path into the record."""
        if act.any():
            instr.max_sample_weight = max(
                instr.max_sample_weight, float(mu1[act].max())
            )

    ar_rows = np.arange(p_cnt)
    # a `rank k` or `name k` rule reads row k whatever the paths' counts
    k_floor = max((rl.k + 1 for rl in rules if rl.kind in ("rank", "name")), default=0)

    def _alive(x, other):  # `x` on alive paths, `other` on the rest
        return x if all_act else np.where(act, x, other)

    # entry resolution at t = 0, flagged by the step's own split test (see
    # "Boundary semantics"); every path starts from the same caps, so one
    # column decides, and each path still draws its own xi
    mu1 = caps.max(axis=0) / _col_sum(caps)
    if mu1[0] >= 1.0 - params.delta:
        mu1[:] = _resolve_paths(ar_rows, np.zeros(p_cnt, dtype=bool), 0.0)
        _record_top(mu1)

    # flat views: noise cell (p, i) is element p * nw + i
    ths_flat = tables.ths.reshape(-1)
    nflat = nbuf.reshape(-1)
    noise_row = ar_rows * nw

    def _series_rows(step: int) -> None:
        t = float(step * dt)
        zz = np.exp(-m_acc - 0.5 * qv_acc)
        # the market and portfolio value columns: two rules' wealth, or 1.0
        cols = run.series_cols
        vm, vp = np.ones((2, p_cnt)) if cols is None else v[list(cols)]
        for p in range(p_cnt):
            if status[p] == 0:
                series.append(
                    _series_row(start + p, t, n_arr[p], mu1[p], vm[p], vp[p], zz[p])
                )

    if run.stride > 0:
        _series_rows(0)

    step = 0
    while step < last:
        all_act = act.all()
        if not all_act and not act.any():
            break
        k_n = max(int(n_arr.max()), k_floor)
        caps = caps[:k_n]  # the rows past the widest path hold 0.0
        ar_k = np.arange(k_n, dtype=np.int64)[:, None]

        # refill the noise rows that cannot serve this step, keeping their
        # unread values; the clock rows of every alive path run out together
        need = np.nonzero(act & (npos + k_n > nw))[0]
        for p, pos in zip(need.tolist(), npos[need].tolist()):
            row = nbuf[p]
            left = nw - pos
            row[:left] = row[pos:]
            ngens[p].standard_normal(out=row[left:])
        npos[need] = 0
        if upos == urows:
            # a prefix of each stream: nothing past the horizon is drawn
            urows = min(CLOCK_BUF, last - step)
            for p in np.nonzero(act)[0].tolist():
                ubuf[:urows, p] = cgens[p].random(urows)
            upos = 0

        z = nflat.take((noise_row + npos) + ar_k)
        npos = npos + _alive(n_arr, 0)
        new_caps, order, cell = rank_step(caps, n_arr, tables, z)
        ths = ths_flat.take(cell)
        new_caps = _alive(new_caps, caps)

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
                slot = _rank_slot(caps, rl.k) if order is None else order[rl.k]
                acc = r[slot, ar_rows]
            else:  # name
                acc = r[rl.k]
            v[idx] = v[idx] * _alive(1.0 + acc, 1.0)

        # measure-change accumulators
        m_acc = m_acc + _alive(_col_sum(ths * z), 0.0)
        qv_acc = qv_acc + _alive(tables.qrow[n_arr], 0.0)

        caps = new_caps
        c_tot = _col_sum(caps)
        x_max = caps.max(axis=0)

        # the reference's order within a step: a cap out of range gives
        # status 2, else a rule's wealth that is not > 0 gives status 3,
        # else a total out of range gives status 2
        cap_out = underflow | (x_max == np.inf)
        broke = act & ~cap_out & ~(v > 0.0).all(axis=0)
        bad = act & ~broke & (cap_out | ~(np.isfinite(c_tot) & (c_tot > 0.0)))
        _fail(broke, 3)
        _fail(bad, 2)

        # detect_split's own test, bit for bit (see "Boundary semantics")
        mu1 = x_max / c_tot    # nan on failed paths; masked by `act`
        split_flag = act & (mu1 >= 1.0 - params.delta)

        # a failed path's stale column is masked by `act`
        u = ubuf[upos]
        upos += 1
        ring = act & ~split_flag & (u < tables.pstep[n_arr])

        todo = np.nonzero(split_flag | ring)[0]
        if todo.size:
            # caps changed on those paths (a path that exploded is
            # failed, so its value is never read)
            mu1[todo] = _resolve_paths(todo, ring, t)
        _record_top(mu1)

        if run.stride > 0 and (step % run.stride == 0 or step == last):
            _series_rows(step)

    return EngineResult(
        final_wealth=v, final_log_z=-m_acc - 0.5 * qv_acc, final_qv=qv_acc,
        final_n=n_arr, max_n=max_n, final_total=_col_sum(caps), final_caps=caps,
        initial_total=float(total_cap(np.asarray(run.initial_caps, dtype=np.float64))),
        status=status, instr=instr, series=series, events=events_list,
    )


def map_blocks(fn: Callable, n_paths: int, workers: int, *args) -> list:
    """``fn(*args, start, stop)`` for every block of paths, in block order.

    Paths ``0 .. n_paths - 1`` are cut into blocks of :data:`CHUNK` paths
    (the last may be shorter), whatever ``workers`` is.  With ``workers >
    1`` and more than one block the blocks run on a pool of
    ``min(workers, blocks)`` processes, so ``fn`` must be a module-level
    function that pickles by name.  The results come back in block order
    either way, so a caller that reduces them in that order gets the same
    bytes at any worker count.
    """
    starts = range(0, n_paths, CHUNK)
    stops = [min(a + CHUNK, n_paths) for a in starts]
    fixed = [[a] * len(starts) for a in args]
    if workers > 1 and len(starts) > 1:
        # a fork pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(workers, len(starts))) as ex:
            return list(ex.map(fn, *fixed, starts, stops))
    return list(map(fn, *fixed, starts, stops))


def _run_block(run: EngineRun, tables: StepTables, start: int, stop: int):
    # the pool pickles this function by name, and it looks up the global
    # `_run_chunk` when called, which a tracer may rebind to a wrapper
    return _run_chunk(run, tables, start, stop)


def run_paths(run: EngineRun) -> EngineResult:
    """Simulate ``run.n_paths`` paths and aggregate the results.

    Output is byte-identical for any ``workers`` value: the blocks of
    :func:`map_blocks` are fixed by :data:`CHUNK` and joined here in
    order.
    """
    run.require_valid()
    tables = StepTables.build(run.params)
    blocks = map_blocks(_run_block, run.n_paths, run.workers, run, tables)
    res, *rest = blocks
    if rest:
        for name in ("final_wealth", "final_log_z", "final_qv", "final_n",
                     "max_n", "final_total", "status"):
            parts = [getattr(blk, name) for blk in blocks]
            setattr(res, name, np.concatenate(parts, axis=-1))
        # blocks end with their own row counts; the rows they lack are 0.0
        caps = np.zeros((max(len(blk.final_caps) for blk in blocks), run.n_paths))
        for a, blk in zip(range(0, run.n_paths, CHUNK), blocks):
            caps[: len(blk.final_caps), a : a + CHUNK] = blk.final_caps
        res.final_caps = caps
    for blk in rest:
        res.instr.merge(blk.instr)
        res.series += blk.series
        res.events += blk.events
    return res

"""Analytic bounds on event races and company-count explosion.

The regulated market trades off two opposing moves: the top weight
diffusing up to the split threshold ``1 - delta``, and the merger clock
(rate ``lambda_N``) pulling the company count back down.  Everything
here quantifies that race:

* ``split_before_clock_bound`` - closed-form upper bound on the
  probability that a split happens before an independent exponential
  clock rings, as a function of the starting top weight.
* ``rbm_hit_before_exp`` - the exact hitting probability for the
  comparison process (a reflected Brownian motion with variance rate
  ``2 sigma_bar^2``) from which the bound is derived.
* ``double_jump_bound`` - specialization to a freshly split market,
  whose top weight is at most ``1 - delta0``: an upper bound on the
  probability that the *next* event is another split.
* ``explosion_bound_terms`` - two-term bound on the probability that
  the company count doubles from L to 2L within [0, T].

Each closed form ships with a Monte Carlo estimator that measures the
same probability by simulation, so the bounds can be verified rather
than trusted (``estimate_split_before_clock``, ``simulate_rbm_hit``,
``estimate_double_jump``, ``tail_of_max_count``).  Each gives the same
result at any worker count, and a nan argument, or a count or seed that
is not an integer, fails its checks.  The engine-driven ones read only
the engine's result: ``max_n``, or the counts that a
:class:`DoubleJumpScorer` kept for each block.  The two probes count
hits per block of :func:`~splitmerge.engine.map_blocks`, the engine's
own partition of the paths, drawing from one ``PROBE`` generator per
block, and sum the counts in block order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .engine import (
    CHUNK, EngineRun, StepTables, _col_sum, caps_problems, integer_problems,
    map_blocks, rank_step, run_paths,
)
from .events import clock_rate
from .params import ModelParams
from .streams import PROBE, path_generator

DOUBLE_JUMP_LEVELS = (3, 4, 5)  # company counts whose entry splits are scored
DOUBLE_JUMP_MARGIN = 10.0  # a segment opens no later than horizon - this / lambda_N


# ---------------------------------------------------------------------------
# interval arithmetic for frequencies


def wilson_interval(k: int, n: int, z: float = 3.0) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Stays inside [0, 1] and behaves sensibly at k = 0 and k = n, which
    is why it is used for the tail frequencies where counts can be tiny.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 <= k <= n:
        raise ValueError("k must lie in [0, n]")
    p = k / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    # center - half is exactly 0 at k = 0 (and 1 at k = n) in real
    # arithmetic; pin the endpoints so roundoff cannot leak past them
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class TailEstimate:
    hits: int
    paths: int
    phat: float
    se: float
    ci_low: float
    ci_high: float

    @classmethod
    def from_counts(cls, hits: int, paths: int) -> "TailEstimate":
        phat = hits / paths
        se = math.sqrt(phat * (1.0 - phat) / paths)
        lo, hi = wilson_interval(hits, paths)
        return cls(hits=hits, paths=paths, phat=phat, se=se, ci_low=lo, ci_high=hi)


# ---------------------------------------------------------------------------
# split-before-clock race


def split_before_clock_bound(
    mu1: float, delta: float, sigma_bar: float, lam: float
) -> float:
    """Upper bound on P(top weight reaches 1 - delta before Exp(lam)).

    ``2 * ((mu1 v 1/2) / (1 - delta)) ** (sqrt(lam) / sigma_bar)``.
    The top log-weight is dominated by a reflected Brownian motion with
    variance rate ``2 sigma_bar^2`` started at ``log(2 mu1) v 0``; the
    cosh hitting probability (:func:`rbm_hit_before_exp`) is then
    bounded by twice the exponential ratio.  At lam = 0 the bound is 2
    (vacuous: with no clock the threshold is eventually hit).
    """
    if not 0.0 <= mu1 <= 1.0:
        raise ValueError("mu1 must be a weight in [0, 1]")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not sigma_bar > 0.0:
        raise ValueError("sigma_bar must be positive")
    if not lam >= 0.0:
        raise ValueError("lam must be nonnegative")
    base = max(mu1, 0.5) / (1.0 - delta)
    return 2.0 * base ** (math.sqrt(lam) / sigma_bar)


def rbm_hit_before_exp(x: float, y: float, sigma_bar: float, lam: float) -> float:
    """P(reflected BM from x hits y before an independent Exp(lam) rings).

    The process is ``|B|`` with ``d<B> = 2 sigma_bar^2 dt``, reflected at
    the origin.  Solving ``sigma_bar^2 u'' = lam u`` with ``u'(0) = 0``,
    ``u(y) = 1`` gives ``cosh(x sqrt(lam)/sigma_bar) /
    cosh(y sqrt(lam)/sigma_bar)``.  Evaluated in exponential-ratio form
    so large arguments cannot overflow.
    """
    if not y > 0.0:
        raise ValueError("y must be positive")
    if not 0.0 <= x:
        raise ValueError("x must be nonnegative")
    if not sigma_bar > 0.0:
        raise ValueError("sigma_bar must be positive")
    if not lam >= 0.0:
        raise ValueError("lam must be nonnegative")
    if x >= y:
        return 1.0
    if lam == 0.0:
        return 1.0
    s = math.sqrt(lam) / sigma_bar
    # cosh(xs)/cosh(ys) = exp((x-y)s) * (1 + exp(-2xs)) / (1 + exp(-2ys));
    # at x = 0 the middle factor is 2 even where s overflows (0 * inf is nan)
    return (
        math.exp((x - y) * s)
        * (1.0 + math.exp(-2.0 * x * s) if x > 0.0 else 2.0)
        / (1.0 + math.exp(-2.0 * y * s))
    )


def estimate_split_before_clock(
    params: ModelParams,
    initial_caps: np.ndarray,
    lam: float,
    n_paths: int,
    seed: int,
    max_steps: int | None = None,
    workers: int = 1,
) -> TailEstimate:
    """Measure P(split before clock) by simulating the pure diffusion.

    Races the market diffusion (no events applied) against an
    independent Exp(lam) clock drawn up front per path, as a float step
    count.  A path is a hit when the top weight first reaches ``1 - delta``
    at a step boundary no later than the step during which the clock
    rings; ties go to the split, matching the engine's boundary semantics.
    With ``lam == 0`` a ``max_steps`` horizon is required and unresolved
    paths count as misses.  ``workers`` processes share the blocks.
    """
    params.require_valid()
    caps0 = np.asarray(initial_caps, dtype=np.float64)
    for problem in caps_problems(caps0, params.n_max):  # raise the first
        raise ValueError(problem)
    if not lam >= 0.0:
        raise ValueError("lam must be nonnegative")
    if lam == 0.0 and max_steps is None:
        raise ValueError("lam == 0 requires max_steps")
    if max_steps is not None and not (max_steps >= 1 and max_steps % 1 == 0):
        raise ValueError(f"max_steps must be a whole number >= 1, got {max_steps!r}")
    for problem in integer_problems(n_paths=n_paths, seed=seed, workers=workers):
        raise ValueError(problem)
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    args = (params, StepTables.build(params), caps0, lam, seed, max_steps)
    hits = map_blocks(_race_hits, n_paths, workers, *args)
    return TailEstimate.from_counts(sum(hits), n_paths)


def _race_hits(
    params: ModelParams, tables: StepTables, caps0: np.ndarray, lam: float,
    seed: int, max_steps: int | None, start: int, stop: int,
) -> int:
    """Split-race hits among paths ``start .. stop - 1``, one block, which
    draws from its own ``PROBE`` generator.  Clock steps stay floats (``inf``
    with no clock): an int64 cast wraps 2**63 steps or more negative."""
    m = stop - start
    n = len(caps0)
    dt = params.dt
    thr = 1.0 - params.delta
    gen = path_generator(seed, start // CHUNK, PROBE)
    eta_steps = np.full(m, np.inf)  # no clock
    if lam > 0.0:
        eta_steps = np.ceil(gen.exponential(scale=1.0 / lam, size=m) / dt)
    # company-major, as in the batch engine: caps[k, p]; a resolved path's
    # column is dropped, with its clock
    caps = np.repeat(caps0[:, None], m, axis=1)
    hits = 0
    step = 0
    while caps.shape[1]:
        step += 1
        if max_steps is not None and step > max_steps:
            break
        # path-major draws, transposed: the same stream values per path
        z = gen.standard_normal((caps.shape[1], n)).T
        caps = rank_step(caps, n, tables, z)[0]
        mu1 = caps.max(axis=0) / _col_sum(caps)
        hit_now = (mu1 >= thr) & (step <= eta_steps)
        hits += int(np.count_nonzero(hit_now))
        keep = ~hit_now & (step < eta_steps)  # neither a hit nor a miss yet
        if not keep.all():
            caps = caps[:, keep]
            eta_steps = eta_steps[keep]
    return hits


def simulate_rbm_hit(
    x: float,
    y: float,
    sigma_bar: float,
    lam: float,
    n_paths: int,
    dt: float,
    seed: int,
    workers: int = 1,
) -> TailEstimate:
    """Monte Carlo oracle for :func:`rbm_hit_before_exp`.

    Simulates the unreflected walk ``b += sigma_bar sqrt(2 dt) Z`` (the
    reflected process is |b|, so hitting y from inside means exiting
    the interval (-y, y)) and an independent per-step kill with
    probability ``1 - exp(-lam dt)``, which needs ``lam > 0`` to end.  The
    pinned Brownian path between a step's endpoints catches within-step
    crossings of either barrier, removing the O(sqrt(dt)) discretization
    bias of boundary sampling.  Hits take precedence over kills within a
    step (an O(dt) bias).  ``workers`` processes share the blocks.
    """
    if not 0.0 <= x < y:
        raise ValueError("need 0 <= x < y")
    if not (0.0 < sigma_bar < math.inf and 0.0 < dt < math.inf):
        raise ValueError("sigma_bar and dt must be positive and finite")
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    for problem in integer_problems(n_paths=n_paths, seed=seed, workers=workers):
        raise ValueError(problem)
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    hits = map_blocks(_rbm_hits, n_paths, workers, x, y, sigma_bar, lam, dt, seed)
    return TailEstimate.from_counts(sum(hits), n_paths)


def _rbm_hits(
    x: float, y: float, sigma_bar: float, lam: float, dt: float, seed: int,
    start: int, stop: int,
) -> int:
    """Walk-oracle hits among paths ``start .. stop - 1``, one block, which
    draws from its own ``PROBE`` generator."""
    sd = sigma_bar * math.sqrt(2.0 * dt)
    var_step = 2.0 * sigma_bar * sigma_bar * dt
    pkill = -math.expm1(-lam * dt)
    gen = path_generator(seed, start // CHUNK, PROBE)
    b = np.full(stop - start, float(x))
    hits = 0
    while b.size:
        z = gen.standard_normal(b.size)
        u_kill = gen.random(b.size)
        u_bridge = gen.random(b.size)
        b_new = b + sd * z
        with np.errstate(over="ignore"):
            p_up = np.exp(-2.0 * (y - b) * (y - b_new) / var_step)
            p_dn = np.exp(-2.0 * (y + b) * (y + b_new) / var_step)
            p_cross = 1.0 - (1.0 - p_up) * (1.0 - p_dn)
        # an endpoint past a barrier, or the bridge crossing within the step
        crossed = (np.abs(b_new) >= y) | (u_bridge < p_cross)
        hits += int(np.count_nonzero(crossed))
        b = b_new[~crossed & (u_kill >= pkill)]  # neither hit nor killed
    return hits


# ---------------------------------------------------------------------------
# consecutive splits (double jump)


def double_jump_alpha1(delta: float, delta0: float, sigma_bar: float) -> float:
    """alpha_1 = (log(1 - delta) - log((1 - delta0) v 1/2)) / sigma_bar.

    The log-distance from the worst post-split top weight up to the
    split threshold, in units of the volatility bound.
    """
    floor = _post_split_floor(delta, delta0, sigma_bar)
    return (math.log(1.0 - delta) - math.log(floor)) / sigma_bar


def _post_split_floor(delta: float, delta0: float, sigma_bar: float) -> float:
    """``(1 - delta0) v 1/2``, once both double-jump forms' arguments check."""
    if not 0.0 < delta < 1.0 or not 0.0 < delta0 < 1.0:
        raise ValueError("delta and delta0 must lie in (0, 1)")
    if delta0 <= delta:
        raise ValueError("delta0 must exceed delta")
    if not sigma_bar > 0.0:
        raise ValueError("sigma_bar must be positive")
    return max(1.0 - delta0, 0.5)


def double_jump_bound(
    delta: float, delta0: float, sigma_bar: float, lam: float
) -> float:
    """p_N = 2 exp(-alpha_1 sqrt(lam_N)): bound on a split racing the
    clock from a freshly split state (top weight <= 1 - delta0)."""
    a1 = double_jump_alpha1(delta, delta0, sigma_bar)
    if not lam >= 0.0:
        raise ValueError("lam must be nonnegative")
    return 2.0 * math.exp(-a1 * math.sqrt(lam))


def double_jump_bound_ratio_form(
    delta: float, delta0: float, sigma_bar: float, lam: float
) -> float:
    """Same bound written as the lemma's ratio power; must agree with
    :func:`double_jump_bound` to roundoff (an algebraic identity), and
    rejects the same arguments."""
    floor = _post_split_floor(delta, delta0, sigma_bar)
    if not lam >= 0.0:
        raise ValueError("lam must be nonnegative")
    return 2.0 * (floor / (1.0 - delta)) ** (math.sqrt(lam) / sigma_bar)


@dataclass
class DoubleJumpStat:
    level: int
    segments: int = 0
    doubles: int = 0
    censored: int = 0

    @property
    def phat(self) -> float:
        return self.doubles / self.segments if self.segments else float("nan")

    @property
    def se(self) -> float:
        if not self.segments:
            return float("nan")
        p = self.phat
        return math.sqrt(p * (1.0 - p) / self.segments)

    def merge(self, other: "DoubleJumpStat") -> None:
        """Add the counts of ``other``, scored on other paths."""
        self.segments += other.segments
        self.doubles += other.doubles
        self.censored += other.censored


class DoubleJumpScorer:
    """Scores consecutive-split races record by record, as a block's
    consumer in :func:`~splitmerge.engine.run_paths`.

    A segment opens when a path enters level N (one of
    :data:`DOUBLE_JUMP_LEVELS`) via a split no later than
    ``horizon - DOUBLE_JUMP_MARGIN / lambda_N``; it closes at that
    path's next event: another split scores a double jump, a merger or
    a suppressed merger means the clock won.  Segments still open at
    :meth:`close` are censored and excluded (the margin keeps them
    rare).  Paths may interleave, but each path's records must come in
    time order, as :attr:`EngineResult.events` holds them.
    """

    def __init__(self, horizon: float, params: ModelParams, *block) -> None:
        # the block's bounds go unread: scoring is per path
        self.stats = {n: DoubleJumpStat(level=n) for n in DOUBLE_JUMP_LEVELS}
        self.latest = {}
        for n in DOUBLE_JUMP_LEVELS:
            lam = clock_rate(n, params)
            # a silent clock races no split, so its level opens no segment
            self.latest[n] = (
                horizon - DOUBLE_JUMP_MARGIN / lam if lam > 0.0 else -math.inf
            )
        self.open_level: dict[int, int] = {}  # path -> level of its open segment

    def event(self, rec) -> None:
        lvl = self.open_level.pop(rec.path, None)
        if lvl is not None:
            st = self.stats[lvl]
            st.segments += 1
            if rec.kind == "split":
                st.doubles += 1
        if (
            rec.kind == "split"
            and rec.n_after in self.stats
            and rec.t <= self.latest[rec.n_after]
        ):
            self.open_level[rec.path] = rec.n_after

    def close(self) -> dict[int, DoubleJumpStat]:
        for lvl in self.open_level.values():
            self.stats[lvl].censored += 1
        return self.stats


def estimate_double_jump(
    params: ModelParams,
    initial_caps: np.ndarray,
    horizon: float,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> dict[int, DoubleJumpStat]:
    """Run the engine and score its consecutive-split frequencies.

    Each block is scored where it runs and sends back its counts, not
    its records.  Scoring is per path and the blocks partition the
    paths, so the counts, added in block order, are the whole log's.
    """
    res = run_paths(
        EngineRun(
            params=params, initial_caps=np.asarray(initial_caps, dtype=np.float64),
            horizon=horizon, n_paths=n_paths, seed=seed, workers=workers,
            collect_events=True,
        ),
        partial(DoubleJumpScorer, horizon, params),
    )
    stats, *rest = res.parts
    for part in rest:
        for n, st in part.items():
            stats[n].merge(st)
    return stats


# ---------------------------------------------------------------------------
# company-count explosion


def rate_function(s: float) -> float:
    """H(s) = s - 1 - log s, the Poisson Chernoff exponent (H(1) = 0)."""
    if not s > 0.0:
        raise ValueError("s must be positive")
    return s - 1.0 - math.log(s)


@dataclass(frozen=True)
class ExplosionBound:
    log_sigma1: float
    log_sigma2: float

    @property
    def log_total(self) -> float:
        return float(np.logaddexp(self.log_sigma1, self.log_sigma2))


def explosion_bound_terms(
    L: int, u: float, T: float, params: ModelParams
) -> ExplosionBound:
    """Two-term bound on P(company count reaches 2L by time T | N(0) <= L).

    The first term controls trajectories with at most ``u`` events: each
    of the L net upward crossings from level L to 2L costs a
    double-jump factor, giving

        sigma1 = (3u)^L / L! * 2^(L-1) * exp(-alpha_1 (L-1) sqrt(lam_low)),

    with ``lam_low`` the smallest clock rate on the levels that must be
    crossed.  The second term is the Poisson Chernoff tail for seeing
    more than ``u`` events by T at the fastest rate ``lam_high``:

        sigma2 = exp(-u * H(T lam_high / u)),

    valid when ``u`` exceeds both ``L`` and ``T lam_high`` (so the
    argument of H lies in (0, 1)).  A silent clock (``clock_c = 0``) has
    ``sigma2 = 0``.  Everything is computed in logs via
    ``lgamma``, and the sum is ``log_total``; exponentiation is left to
    the caller.
    """
    params.require_valid()
    if L < 2:
        raise ValueError("L must be at least 2")
    if 2 * L > params.n_max:
        raise ValueError("2L exceeds n_max; the doubling event is truncated")
    if not T > 0.0:
        raise ValueError("T must be positive")
    lam_low = min(clock_rate(n, params) for n in range(L + 1, 2 * L))
    lam_high = max(clock_rate(n, params) for n in range(3, 2 * L))
    if not u > max(L, T * lam_high):
        raise ValueError(
            f"u must exceed max(L, T*lam_high) = {max(L, T * lam_high)!r}"
        )
    sigma_bar = params.sigma_range()[1]
    a1 = double_jump_alpha1(params.delta, params.delta0, sigma_bar)
    log_sigma1 = (
        L * math.log(3.0 * u)
        - math.lgamma(L + 1.0)
        + (L - 1.0) * math.log(2.0)
        - a1 * (L - 1.0) * math.sqrt(lam_low)
    )
    if lam_high == 0.0:
        # a silent clock: a Poisson count of rate 0 never exceeds u
        log_sigma2 = -math.inf
    else:
        log_sigma2 = -u * rate_function(T * lam_high / u)
    return ExplosionBound(log_sigma1=log_sigma1, log_sigma2=log_sigma2)


@dataclass
class TailCurve:
    """Empirical tail of max_t N(t) on a grid of levels."""

    u_grid: tuple[int, ...]
    estimates: dict[int, TailEstimate] = field(default_factory=dict)
    peak: int = 0  # largest company count seen on any path
    exploded: int = 0  # paths stopped by the hard cap

    def log_slope(self, u: int) -> float:
        """-log phat(u) / u; +inf when no path reached u."""
        est = self.estimates[u]
        if est.hits == 0:
            return float("inf")
        return -math.log(est.phat) / u + 0.0  # normalize -0.0 at phat = 1

    def monotone_on_disjoint_pairs(self) -> tuple[bool, list[tuple[int, int]]]:
        """Check -log phat(u)/u is nondecreasing across adjacent levels
        whose Wilson intervals are disjoint; zero-hit levels are skipped
        (their slope is infinite, carrying no information).  Returns the
        verdict and the list of compared pairs."""
        levels = [u for u in self.u_grid if self.estimates[u].hits > 0]
        pairs = []
        ok = True
        for a, b in zip(levels, levels[1:]):
            ea, eb = self.estimates[a], self.estimates[b]
            if ea.ci_low > eb.ci_high or eb.ci_low > ea.ci_high:
                pairs.append((a, b))
                if self.log_slope(a) > self.log_slope(b):
                    ok = False
        return ok, pairs


def tail_of_max_count(
    params: ModelParams,
    initial_caps: np.ndarray,
    horizon: float,
    n_paths: int,
    seed: int,
    u_grid: tuple[int, ...],
    workers: int = 1,
) -> TailCurve:
    """Estimate P(max_t N(t) >= u) on a grid of levels u."""
    res = run_paths(EngineRun(
        params=params, initial_caps=np.asarray(initial_caps, dtype=np.float64),
        horizon=horizon, n_paths=n_paths, seed=seed, workers=workers,
    ))
    curve = TailCurve(
        u_grid=tuple(u_grid),
        peak=int(res.max_n.max()),
        exploded=int(np.count_nonzero(res.status == 1)),
    )
    for u in curve.u_grid:
        hits = int(np.count_nonzero(res.max_n >= u))
        curve.estimates[u] = TailEstimate.from_counts(hits, n_paths)
    return curve

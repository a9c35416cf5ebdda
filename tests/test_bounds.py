"""Closed-form bounds, their Monte Carlo estimators, and tail summaries."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splitmerge.bounds import (
    DoubleJumpScorer,
    DoubleJumpStat,
    ExplosionBound,
    TailCurve,
    TailEstimate,
    double_jump_alpha1,
    double_jump_bound,
    double_jump_bound_ratio_form,
    estimate_double_jump,
    estimate_split_before_clock,
    explosion_bound_terms,
    rate_function,
    rbm_hit_before_exp,
    simulate_rbm_hit,
    split_before_clock_bound,
    tail_of_max_count,
    wilson_interval,
)
from splitmerge import bounds, engine
from splitmerge.dynamics import euler_step, total_cap
from splitmerge.engine import (
    CHUNK, EngineRun, StepTables, map_blocks, rank_step, run_paths,
)
from splitmerge.events import EventRecord, clock_rate
from splitmerge.params import ModelParams, RankTable
from splitmerge.streams import PROBE, path_generator


def make_params(**kw):
    base = dict(
        drift=RankTable(0.0, 0.0),
        vol=RankTable(1.0, 0.0),
        delta=0.1,
        eps0=4.0 / 9.0,
        clock_c=2.0,
        clock_alpha=1.0,
        dt=1e-3,
    )
    base.update(kw)
    return ModelParams(**base)


class TestWilson:
    def test_frozen_point(self):
        lo, hi = wilson_interval(5, 100, z=3.0)
        assert lo == pytest.approx(0.014337119878956223, rel=1e-12)
        assert hi == pytest.approx(0.15997480672654835, rel=1e-12)

    def test_contains_phat_and_stays_in_unit_interval(self):
        for k, n in [(0, 10), (10, 10), (1, 3), (500, 1000)]:
            lo, hi = wilson_interval(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_zero_hits_excludes_large_p(self):
        lo, hi = wilson_interval(0, 10_000)
        assert lo == 0.0
        assert hi < 1.5e-3

    def test_narrows_with_n(self):
        w1 = wilson_interval(10, 100)
        w2 = wilson_interval(100, 1000)
        assert w2[1] - w2[0] < w1[1] - w1[0]

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)

    def test_tail_estimate_from_counts(self):
        est = TailEstimate.from_counts(25, 100)
        assert est.phat == 0.25
        assert est.se == pytest.approx(math.sqrt(0.25 * 0.75 / 100))
        assert est.ci_low < 0.25 < est.ci_high


class TestSplitBeforeClockBound:
    def test_frozen_value(self):
        # mu1 = 1/2, delta = 0.1, lam = 4: 2 * (5/9)^2 = 50/81
        assert split_before_clock_bound(0.5, 0.1, 1.0, 4.0) == pytest.approx(
            50.0 / 81.0, rel=1e-15
        )

    def test_no_clock_gives_vacuous_two(self):
        assert split_before_clock_bound(0.5, 0.1, 1.0, 0.0) == 2.0

    def test_small_top_weight_floors_at_half(self):
        a = split_before_clock_bound(0.2, 0.1, 1.0, 4.0)
        b = split_before_clock_bound(0.5, 0.1, 1.0, 4.0)
        assert a == b

    def test_decreasing_in_lam(self):
        vals = [
            split_before_clock_bound(0.6, 0.1, 1.0, lam)
            for lam in (0.0, 1.0, 4.0, 9.0, 100.0)
        ]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_nontrivial_below_one_for_fast_clock(self):
        assert split_before_clock_bound(0.5, 0.16, 1.0, 16.0) < 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            split_before_clock_bound(0.5, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            split_before_clock_bound(0.5, 0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            split_before_clock_bound(0.5, 0.1, 1.0, -1.0)


class TestRbmHitFormula:
    def test_from_origin_is_sech(self):
        # x = 0: cosh(0)/cosh(y s) with y = log 2, s = 3 gives 16/65
        p = rbm_hit_before_exp(0.0, math.log(2.0), 1.0, 9.0)
        assert p == pytest.approx(16.0 / 65.0, rel=1e-15)

    def test_at_barrier_is_one(self):
        assert rbm_hit_before_exp(0.7, 0.7, 1.0, 5.0) == 1.0
        assert rbm_hit_before_exp(0.9, 0.7, 1.0, 5.0) == 1.0

    def test_no_clock_hits_surely(self):
        assert rbm_hit_before_exp(0.1, 0.7, 1.0, 0.0) == 1.0

    def test_frozen_interior_point(self):
        p = rbm_hit_before_exp(0.3, 0.9, 0.5, 2.0)
        assert p == pytest.approx(0.21546711854587214, rel=1e-12)

    def test_huge_rate_stays_finite(self):
        p = rbm_hit_before_exp(0.2, 1.0, 1.0, 1e8)
        assert 0.0 < p < 1e-300 or p == 0.0
        q = rbm_hit_before_exp(0.0, 0.05, 1.0, 1e8)
        assert 0.0 < q < 1.0

    @pytest.mark.parametrize("sigma_bar, lam", [(1e-310, 1.0), (1.0, math.inf)])
    def test_overflowing_rate_from_origin_is_zero(self, sigma_bar, lam):
        # sqrt(lam) / sigma_bar is inf: sech(y * inf) = 0, although the
        # factor 1 + exp(-2 x s) at x = 0 holds 0 * inf
        assert rbm_hit_before_exp(0.0, 1.0, sigma_bar, lam) == 0.0

    def test_monotone_in_start(self):
        ps = [rbm_hit_before_exp(x, 1.0, 1.0, 4.0) for x in (0.0, 0.3, 0.6, 0.9)]
        assert all(a < b for a, b in zip(ps, ps[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            rbm_hit_before_exp(-0.1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            rbm_hit_before_exp(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            rbm_hit_before_exp(0.0, 1.0, -1.0, 1.0)


class TestRbmSimulator:
    def test_matches_formula_at_one_point(self):
        exact = 16.0 / 65.0
        est = simulate_rbm_hit(
            0.0, math.log(2.0), 1.0, 9.0, n_paths=20_000, dt=5e-4, seed=101
        )
        assert abs(est.phat - exact) <= 4.0 * max(est.se, 1e-4)

    def test_reproducible(self):
        a = simulate_rbm_hit(0.2, 1.0, 1.0, 4.0, 2000, 1e-3, seed=7)
        b = simulate_rbm_hit(0.2, 1.0, 1.0, 4.0, 2000, 1e-3, seed=7)
        assert a.hits == b.hits

    def test_domain(self):
        with pytest.raises(ValueError):
            simulate_rbm_hit(1.0, 0.5, 1.0, 1.0, 10, 1e-3, seed=0)
        with pytest.raises(ValueError):
            simulate_rbm_hit(0.0, 0.5, 1.0, 0.0, 10, 1e-3, seed=0)
        with pytest.raises(ValueError, match="n_paths"):
            simulate_rbm_hit(0.0, 0.5, 1.0, 1.0, 0, 1e-3, seed=0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_golden_two_blocks(self, workers):
        # CHUNK + 100 paths: two blocks, each on its own PROBE generator
        est = simulate_rbm_hit(
            0.2, 1.0, 1.0, 4.0, CHUNK + 100, 1e-3, seed=7, workers=workers
        )
        assert est.hits == 1212


class TestSplitRaceEstimator:
    def test_no_clock_eventually_splits(self):
        # two equal names, no clock: the threshold is hit almost surely
        params = make_params(delta=0.16, clock_c=0.0)
        est = estimate_split_before_clock(
            params,
            np.array([1.0, 1.0]),
            lam=0.0,
            n_paths=3000,
            seed=31,
            max_steps=8000,
        )
        assert est.phat >= 0.97

    def test_fast_clock_rarely_loses(self):
        params = make_params(delta=0.16)
        est = estimate_split_before_clock(
            params, np.array([1.0, 1.0]), lam=100.0, n_paths=3000, seed=33
        )
        bound = split_before_clock_bound(0.5, 0.16, 1.0, 100.0)
        assert est.phat <= bound + 3.0 * est.se
        assert est.phat < 0.2

    @pytest.mark.parametrize("lam", [1e-17, 1e-300])
    def test_clock_past_int64_steps_never_rings(self, lam):
        # eta / dt is 2**63 steps or more: cast to int64 it wrapped to a
        # negative step, and every path was scored a miss at step 1
        params = make_params(delta=0.16)
        est = estimate_split_before_clock(
            params, np.array([1.0, 1.0]), lam=lam, n_paths=400, seed=31,
            max_steps=8000,
        )
        assert est.phat >= 0.97

    def test_lam_zero_needs_horizon(self):
        with pytest.raises(ValueError):
            estimate_split_before_clock(
                make_params(), np.array([1.0, 1.0]), 0.0, 10, seed=0
            )

    def test_domain(self):
        caps0 = np.array([1.0, 1.0])
        with pytest.raises(ValueError, match="n_paths"):
            estimate_split_before_clock(make_params(), caps0, 1.0, 0, seed=0)
        with pytest.raises(ValueError, match="lam"):
            estimate_split_before_clock(make_params(), caps0, -1.0, 10, seed=0)
        # the market is checked by the engine's own rule
        for bad, problem in (
            ((4.0, 1.0, -1.0, 1.0, 1.0), "positive and finite"),
            ((4.0, 1.0, np.nan, 1.0, 1.0), "positive and finite"),
            ((5.0,), "at least 2 caps"),
            (np.ones((2, 3)), "1-d vector"),
            (np.ones(64), "64 companies but n_max = 64"),
        ):
            with pytest.raises(ValueError, match=problem):
                estimate_split_before_clock(
                    make_params(), np.array(bad), 4.0, 200, seed=0
                )

    @pytest.mark.parametrize(
        "caps0, lam, n_paths, seed, max_steps, hits",
        [
            ((3.0, 2.0, 1.0), 4.0, 5000, 1, None, 25),
            ((3.0, 2.0, 1.0), 0.0, 5000, 2, 3000, 1442),
            # 4097 paths: the last block holds one path, so the total
            # runs through the one-column branch of the company sum
            ((6.0, 1.0, 1.0, 1.0, 1.0, 1.0), 2.0, 4097, 3, None, 64),
        ],
    )
    def test_golden_rank_dependent(self, caps0, lam, n_paths, seed, max_steps, hits):
        # drift and vol vary by rank, so a wrong rank gather moves the count
        params = make_params(
            drift=RankTable(0.0, 0.5), vol=RankTable(1.0, -0.4), delta=0.13
        )
        # two blocks, so two workers take one each; the count is the same
        for workers in (1, 2):
            est = estimate_split_before_clock(
                params, np.array(caps0), lam, n_paths, seed, max_steps, workers
            )
            assert est.hits == hits, workers

    @pytest.mark.parametrize(
        "caps0, lam, n_paths, seed, max_steps, hits",
        [
            # ten rows, and a 1-path tail block
            ((40.0,) + (1.0,) * 9, 2.0, 4097, 3, None, 2696),
            ((3.0, 2.0, 1.0), 0.0, 5000, 2, 3000, 3335),
            ((6.0, 1.0, 1.0, 1.0, 1.0, 1.0), 2.0, 4097, 3, None, 163),
        ],
    )
    def test_golden_rank_flat(self, caps0, lam, n_paths, seed, max_steps, hits):
        # the tables are rank-flat, so the step skips the sort
        params = make_params(delta=0.16)
        assert StepTables.build(params).flat
        for workers in (1, 2):
            est = estimate_split_before_clock(
                params, np.array(caps0), lam, n_paths, seed, max_steps, workers
            )
            assert est.hits == hits, workers

    @pytest.mark.parametrize(
        "vol", [RankTable(1.0, 0.0), RankTable(1.0, -0.4)], ids=["flat", "sloped"]
    )
    def test_new_caps_are_c_contiguous(self, vol):
        # the probe's draws are transposed, Fortran-order; _col_sum sums
        # in the loop's order only over a C-contiguous block
        tables = StepTables.build(make_params(vol=vol))
        caps = np.repeat(np.array([3.0, 2.0, 1.0])[:, None], 20, axis=1)
        z = np.random.default_rng(0).standard_normal((20, 3)).T
        assert z.flags.f_contiguous and not z.flags.c_contiguous
        new_caps, order, _ = rank_step(caps, 3, tables, z)
        assert new_caps.flags.c_contiguous
        assert (order is None) is tables.flat


def _race_replay(params, caps0, lam, seed, max_steps, start, stop):
    """``bounds._race_hits`` on paths ``start .. stop - 1``, path by path:
    the same ``PROBE`` draws, in path-major order over the paths still
    racing, with ``euler_step`` and ``max / total_cap`` per path."""
    gen = path_generator(seed, start // bounds.CHUNK, PROBE)
    clocks = [math.inf] * (stop - start)
    if lam > 0.0:
        clocks = [np.ceil(gen.exponential(1.0 / lam) / params.dt) for _ in clocks]
    racing = [(caps0, eta) for eta in clocks]
    hits = step = 0
    while racing and (max_steps is None or step < max_steps):
        step += 1
        still = []
        for caps, eta in racing:
            caps = euler_step(caps, params, gen.standard_normal(len(caps)))
            if max(caps) / total_cap(caps) >= 1.0 - params.delta and step <= eta:
                hits += 1
            elif step < eta:
                still.append((caps, eta))
        racing = still
    return hits


def _walk_replay(x, y, sigma_bar, lam, dt, seed, start, stop):
    """``bounds._rbm_hits`` on paths ``start .. stop - 1``, path by path:
    the same ``PROBE`` draws, then scalar numpy arithmetic per walk."""
    sd = sigma_bar * math.sqrt(2.0 * dt)
    var_step = 2.0 * sigma_bar * sigma_bar * dt
    pkill = -math.expm1(-lam * dt)
    gen = path_generator(seed, start // bounds.CHUNK, PROBE)
    walks = [np.float64(x)] * (stop - start)
    hits = 0
    while walks:
        k = len(walks)
        still = []
        for b, z, u_kill, u_bridge in zip(
            walks, gen.standard_normal(k), gen.random(k), gen.random(k)
        ):
            b_new = b + sd * z
            with np.errstate(over="ignore"):
                p_up = np.exp(-2.0 * (y - b) * (y - b_new) / var_step)
                p_dn = np.exp(-2.0 * (y + b) * (y + b_new) / var_step)
                p_cross = 1.0 - (1.0 - p_up) * (1.0 - p_dn)
            if abs(b_new) >= y or u_bridge < p_cross:
                hits += 1
            elif u_kill >= pkill:
                still.append(b_new)
        walks = still
    return hits


# a kill or clock chance of 1-20% a step keeps a drawn grid short
KILL = st.sampled_from([0.01, 0.05, 0.2])
DT = st.sampled_from([1e-3, 0.01, 0.05])


class TestProbeReplay:
    """Each block of the two probes scores the hits that a scalar replay
    of its draws scores.  With CHUNK at 1-3 the blocks hold 1-3 paths,
    so a count that differs points at the paths that differ."""

    @settings(max_examples=100, deadline=None)
    @given(
        n0=st.integers(2, 10), tie=st.booleans(), data=st.data(),
        drift=st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 3.0)),
        vol=st.tuples(st.floats(0.1, 3.0), st.floats(-0.09, 3.0)),
        delta=st.floats(0.01, 0.16), dt=DT, kill=st.none() | KILL,
        max_steps=st.none() | st.integers(1, 100), seed=st.integers(0, 2**64 - 1),
        n_paths=st.integers(1, 40), chunk=st.integers(1, 3),
    )
    def test_race_blocks_match_their_replay(
        self, n0, tie, data, drift, vol, delta, dt, kill, max_steps, seed,
        n_paths, chunk,
    ):
        # from PACKED_SORT_ROWS rows up the packed sort ranks, and tied caps
        # make it fall back to the argsort
        params = make_params(
            drift=RankTable(*drift), vol=RankTable(*vol), delta=delta, dt=dt
        )
        assume(params.validate() == [])
        caps = data.draw(st.lists(st.floats(0.1, 10.0), min_size=n0, max_size=n0))
        caps0 = np.ceil(caps) if tie else np.array(caps)
        lam = 0.0 if kill is None else kill / dt
        if lam == 0.0 and max_steps is None:
            max_steps = 100
        args = (params, caps0, lam, seed, max_steps)
        with mock.patch.object(bounds, "CHUNK", chunk), \
                mock.patch.object(engine, "CHUNK", chunk):
            got = map_blocks(
                bounds._probe_block, n_paths, 1, bounds._race_hits, seed, params,
                StepTables.build(params), caps0, lam, max_steps,
            )
            want = [_race_replay(*args, a, min(a + chunk, n_paths))
                    for a in range(0, n_paths, chunk)]
        assert got == want

    @settings(max_examples=100, deadline=None)
    @given(
        share=st.floats(0.0, 0.99), y=st.sampled_from([0.5, 1.0, 2.0]),
        sigma_bar=st.floats(0.2, 3.0), kill=KILL, dt=DT,
        seed=st.integers(0, 2**64 - 1), n_paths=st.integers(1, 40),
        chunk=st.integers(1, 3),
    )
    def test_walk_blocks_match_their_replay(
        self, share, y, sigma_bar, kill, dt, seed, n_paths, chunk
    ):
        args = (share * y, y, sigma_bar, kill / dt, dt)
        with mock.patch.object(bounds, "CHUNK", chunk), \
                mock.patch.object(engine, "CHUNK", chunk):
            got = map_blocks(bounds._probe_block, n_paths, 1, bounds._rbm_hits,
                             seed, *args)
            want = [_walk_replay(*args, seed, a, min(a + chunk, n_paths))
                    for a in range(0, n_paths, chunk)]
        assert got == want


class TestDoubleJumpBound:
    def test_frozen_value(self):
        # delta = 0.1, delta0 = 0.2, sigma = 1, lam = 1: 2 * 8/9
        assert double_jump_bound(0.1, 0.2, 1.0, 1.0) == pytest.approx(
            16.0 / 9.0, rel=1e-12
        )

    def test_two_forms_agree(self):
        for delta, delta0, sig, lam in [
            (0.1, 0.5, 1.0, 6.0),
            (0.16, 0.53, 1.5, 30.0),
            (0.05, 0.4, 0.7, 2.0),
        ]:
            a = double_jump_bound(delta, delta0, sig, lam)
            b = double_jump_bound_ratio_form(delta, delta0, sig, lam)
            assert a == pytest.approx(b, rel=1e-12)

    def test_alpha1_frozen(self):
        # floor rises to 1/2 when delta0 > 1/2
        a1 = double_jump_alpha1(0.1, 0.52, 1.0)
        assert a1 == pytest.approx(math.log(1.8), rel=1e-15)

    def test_vanishes_for_fast_clock(self):
        assert double_jump_bound(0.1, 0.5, 1.0, 1e6) < 1e-250

    def test_domain(self):
        with pytest.raises(ValueError):
            double_jump_alpha1(0.3, 0.2, 1.0)  # delta0 must exceed delta
        with pytest.raises(ValueError):
            double_jump_bound(0.1, 0.5, 1.0, -1.0)


def _nan_cases():
    """Each bound and probe with one float argument, or a probe's count or
    seed, set to nan, the probes with a count or seed that is not an
    integer or with an infinite scale or step, which would divide inf by
    inf, the split race capped at fewer than one step, and the probes with
    a worker count below 1 or a seed outside 0 .. 2**64 - 1."""
    params = make_params()
    caps0 = np.array([1.0, 1.0])
    rbm = (0.2, 1.0, 1.0, 4.0, 10, 1e-3, 0, 1)
    race = (params, caps0, 4.0, 10, 0, 50, 1)
    calls = [
        (split_before_clock_bound, (0.5, 0.1, 1.0, 4.0), (0, 1, 2, 3)),
        (rbm_hit_before_exp, (0.2, 1.0, 1.0, 4.0), (0, 1, 2, 3)),
        (double_jump_bound, (0.1, 0.5, 1.0, 4.0), (0, 1, 2, 3)),
        (double_jump_bound_ratio_form, (0.1, 0.5, 1.0, 4.0), (0, 1, 2, 3)),
        (rate_function, (2.0,), (0,)),
        (simulate_rbm_hit, rbm, (0, 1, 2, 3, 4, 5, 6, 7)),
        (estimate_split_before_clock, race, (2, 3, 4, 5, 6)),
        (explosion_bound_terms, (4, 1e4, 1.0, params), (1, 2)),
    ]
    for fn, args, slots in calls:
        for k in slots:
            bad = list(args)
            bad[k] = math.nan
            yield pytest.param(fn, bad, id=f"{fn.__name__}-{k}")
    for fn, args, n_k, seed_k in (
        (simulate_rbm_hit, rbm, 4, 6), (estimate_split_before_clock, race, 3, 4)
    ):
        for k, value in ((n_k, 8.0), (seed_k, 3.5)):
            bad = list(args)
            bad[k] = value
            yield pytest.param(fn, bad, id=f"{fn.__name__}-{k}-{value}")
    for k in (2, 5):
        bad = list(rbm)
        bad[k] = math.inf
        yield pytest.param(simulate_rbm_hit, bad, id=f"simulate_rbm_hit-{k}-inf")
    yield pytest.param(
        estimate_split_before_clock, (make_params(dt=math.inf), caps0, 4.0, 10, 0, 50),
        id="estimate_split_before_clock-dt-inf",
    )
    for lam, steps in ((0.0, 0), (4.0, -1)):
        yield pytest.param(
            estimate_split_before_clock, (params, caps0, lam, 10, 0, steps),
            id=f"estimate_split_before_clock-max_steps-{steps}",
        )
    for fn, args, seed_k, workers_k in (
        (simulate_rbm_hit, rbm, 6, 7), (estimate_split_before_clock, race, 4, 6)
    ):
        for k, value in ((workers_k, 0), (workers_k, -3), (seed_k, -1),
                         (seed_k, 2**64)):
            bad = list(args)
            bad[k] = value
            yield pytest.param(fn, bad, id=f"{fn.__name__}-{k}-{value}")


@pytest.mark.parametrize("fn, args", _nan_cases())
def test_nan_argument_is_rejected(fn, args, monkeypatch):
    def map_blocks(*args):  # a bad argument must raise before any block runs
        raise AssertionError("map_blocks ran")

    monkeypatch.setattr(bounds, "map_blocks", map_blocks)
    with pytest.raises(ValueError):
        fn(*args)


class TestDoubleJumpScore:
    def score(self, events, horizon, params):
        scorer = DoubleJumpScorer(horizon, params)
        for rec in events:
            scorer.event(rec)
        return scorer.close()

    def rec(self, path, t, kind, n_after):
        return EventRecord(
            path=path, t=t, kind=kind, i=0, j=None, xi=None,
            n_before=n_after - 1 if kind == "split" else n_after + 1,
            n_after=n_after,
        )

    def test_scores_segments(self):
        params = make_params()  # rate(3) = 6, margin = 10/6
        events = [
            self.rec(0, 1.0, "split", 3),          # opens
            self.rec(0, 2.0, "split", 4),          # closes: double
            self.rec(1, 3.0, "split", 3),          # opens
            self.rec(1, 4.0, "merger", 2),         # closes: clock won
            self.rec(4, 1.0, "split", 3),          # opens
            self.rec(4, 2.0, "suppressed_merger", 3),  # closes: clock won
            self.rec(2, 9.0, "split", 3),          # too close to the end
            self.rec(3, 5.0, "split", 3),          # opens, never closes
        ]
        stats = self.score(events, 10.0, params)[3]
        assert stats.segments == 3
        assert stats.doubles == 1
        assert stats.censored == 1
        assert stats.phat == pytest.approx(1.0 / 3.0)
        assert stats.se == pytest.approx(math.sqrt((1 / 3) * (2 / 3) / 3))

    def test_silent_clock_opens_no_segment(self):
        # lambda_N = 0: the latest entry time is -inf, not horizon - 10 / 0
        params = make_params(clock_c=0.0)
        events = [self.rec(0, 0.0, "split", 3), self.rec(0, 1.0, "split", 4)]
        for st in self.score(events, 10.0, params).values():
            assert (st.segments, st.doubles, st.censored) == (0, 0, 0)
            assert math.isnan(st.phat)
        stats = estimate_double_jump(
            params, np.array([14.0, 0.5, 0.5]), horizon=0.2, n_paths=4, seed=41
        )
        assert all(st.segments == 0 for st in stats.values())

    def test_empty_stat_is_nan(self):
        st = DoubleJumpStat(level=5)
        assert math.isnan(st.phat) and math.isnan(st.se)

    def test_estimator_runs_end_to_end(self):
        params = make_params(clock_c=20.0)  # busy clock: doubles rare
        stats = estimate_double_jump(
            params,
            np.array([14.0, 0.5, 0.5]),  # splits immediately to N = 4
            horizon=2.0,
            n_paths=400,
            seed=41,
        )[4]
        assert stats.segments >= 300
        bound = double_jump_bound(
            params.delta, params.delta0, params.sigma_range()[1],
            clock_rate(4, params),
        )
        assert stats.phat <= bound + 3.0 * max(stats.se, 1e-3)

    def test_estimator_is_worker_invariant(self):
        # two chunks, so workers=2 spreads them over two processes; the
        # fast clock keeps the margin 10 / lambda_N below the horizon, and
        # the high volatility makes double jumps common enough to count
        params = make_params(vol=RankTable(4.0, 0.0), clock_c=10.0)
        args = (params, np.array([14.0, 0.5, 0.5]), 0.3, CHUNK + 100, 43)
        one = estimate_double_jump(*args, workers=1)
        two = estimate_double_jump(*args, workers=2)
        assert one == two
        assert one[4].doubles > 0 and one[5].doubles > 0

    def test_estimator_scores_blocks_through_the_engine_module(self, monkeypatch):
        # each block runs engine._run_chunk as looked up at call time, as a
        # tracer rebinds it, and its counts equal the whole log's scores
        params = make_params(vol=RankTable(4.0, 0.0), clock_c=10.0)
        caps0 = np.array([14.0, 0.5, 0.5])
        blocks = []
        run_chunk = engine._run_chunk

        def counting(run, tables, start, stop, out):
            blocks.append((start, stop))
            return run_chunk(run, tables, start, stop, out)

        monkeypatch.setattr(engine, "_run_chunk", counting)
        stats = estimate_double_jump(params, caps0, 0.3, CHUNK + 100, 43)
        assert blocks == [(0, CHUNK), (CHUNK, CHUNK + 100)]
        whole = run_paths(EngineRun(
            params=params, initial_caps=caps0, horizon=0.3,
            n_paths=CHUNK + 100, seed=43, collect_events=True,
        ))
        assert stats == self.score(whole.events, 0.3, params)


class TestRateFunction:
    def test_zero_at_one(self):
        assert rate_function(1.0) == 0.0

    def test_positive_elsewhere(self):
        for s in (0.1, 0.5, 0.9, 1.1, 3.0):
            assert rate_function(s) > 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rate_function(0.0)


class TestExplosionBound:
    def test_frozen_small_case(self):
        # L = 2, u = 3, T = 1/2, rate(3) = 3, delta0 = 1/2
        params = make_params(clock_c=1.0)
        eb = explosion_bound_terms(2, 3.0, 0.5, params)
        assert eb.log_sigma1 == pytest.approx(3.3763727870505065, rel=1e-12)
        assert eb.log_sigma2 == pytest.approx(-0.5794415416798359, rel=1e-12)
        assert math.exp(eb.log_total) == pytest.approx(
            29.824641183196153, rel=1e-12
        )
        assert eb.log_total == pytest.approx(
            math.log(math.exp(eb.log_sigma1) + math.exp(eb.log_sigma2)),
            rel=1e-12,
        )

    def test_silent_clock_has_no_poisson_tail(self):
        # clock_c = 0 (Assumption 5 allows it): a Poisson count of rate 0
        # never exceeds u, so sigma2 = 0, and with lam_low = 0 the double
        # jumps cost nothing: sigma1 = (3u)^L / L! * 2^(L-1) = 81 at L = 2
        params = make_params(clock_c=0.0)
        eb = explosion_bound_terms(2, 3.0, 0.5, params)
        assert eb.log_sigma2 == -math.inf
        assert eb.log_sigma1 == pytest.approx(math.log(81.0), rel=1e-12)
        assert eb.log_total == eb.log_sigma1

    def test_decays_with_level_for_fast_clocks(self):
        # u = 8 L^2 dominates T * lam_high = (2L-1)^2 when alpha = 2
        params = make_params(clock_c=1.0, clock_alpha=2.0, n_max=64)
        totals = []
        for L in (10, 20, 30):
            eb = explosion_bound_terms(L, 8.0 * L * L, 1.0, params)
            totals.append(eb.log_total)
        assert totals[0] > totals[1] > totals[2]
        assert totals[2] < -100.0

    def test_domain(self):
        params = make_params()
        with pytest.raises(ValueError):
            explosion_bound_terms(1, 100.0, 1.0, params)
        with pytest.raises(ValueError):
            explosion_bound_terms(40, 1e5, 1.0, params)  # 2L > n_max
        with pytest.raises(ValueError, match="u must exceed"):
            explosion_bound_terms(4, 4.0, 1.0, params)
        with pytest.raises(ValueError):
            explosion_bound_terms(4, 1e4, -1.0, params)


class TestTailCurve:
    def curve(self, counts, n=10_000):
        ests = {
            u: TailEstimate.from_counts(k, n) for u, k in counts.items()
        }
        return TailCurve(u_grid=tuple(sorted(counts)), estimates=ests)

    def test_slope_normalizes_at_full_probability(self):
        c = self.curve({3: 10_000, 4: 100})
        assert c.log_slope(3) == 0.0  # not -0.0
        assert math.copysign(1.0, c.log_slope(3)) == 1.0

    def test_slope_infinite_with_no_hits(self):
        c = self.curve({3: 100, 4: 0})
        assert c.log_slope(4) == float("inf")

    def test_monotone_accepts_steepening_tail(self):
        c = self.curve({3: 4000, 4: 100, 5: 1})
        ok, pairs = c.monotone_on_disjoint_pairs()
        assert ok
        assert (3, 4) in pairs

    def test_monotone_rejects_flattening_tail(self):
        # phat: 1e-2 then 8e-3: slopes 1.151 then 0.966
        c = self.curve({4: 100, 5: 80})
        ok, pairs = c.monotone_on_disjoint_pairs()
        assert pairs == []  # intervals overlap: no verdict
        c2 = self.curve({4: 1000, 5: 800})
        ok2, pairs2 = c2.monotone_on_disjoint_pairs()
        assert pairs2 == [(4, 5)]
        assert not ok2

    def test_zero_hit_levels_are_skipped(self):
        c = self.curve({3: 4000, 4: 0, 5: 1})
        ok, pairs = c.monotone_on_disjoint_pairs()
        assert ok
        assert pairs == [(3, 5)]


class TestTailOfMaxCount:
    def test_levels_at_or_below_start_are_certain(self):
        params = make_params()
        curve = tail_of_max_count(
            params,
            np.array([8.0, 1.0, 1.0]),
            horizon=0.2,
            n_paths=2000,
            seed=51,
            u_grid=(2, 3, 4),
        )
        assert curve.estimates[2].phat == 1.0
        assert curve.estimates[3].phat == 1.0
        assert curve.log_slope(3) == 0.0
        assert 0.0 <= curve.estimates[4].phat < 1.0
        assert curve.peak >= 3
        assert curve.exploded == 0

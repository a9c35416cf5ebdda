"""Engine contract tests.

The central invariant: the vectorized batch engine and the scalar
reference path produce bit-identical results for every path, field by
field, including event logs and CSV series rows.  Everything else
(worker invariance, added-path stability, explosion and overflow
handling) follows from that plus the per-path stream derivation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from splitmerge.dynamics import MarketState
from splitmerge.engine import (
    CHUNK,
    EngineRun,
    _col_sum,
    reference_path,
    run_paths,
    run_until_event,
)
from splitmerge.params import ModelParams, RankTable, SplitDist
from splitmerge.portfolio import PortfolioRule
from splitmerge.streams import PathStreams

RULES = (
    PortfolioRule("market"),
    PortfolioRule("equal"),
    PortfolioRule("rank", 0),
    PortfolioRule("cash"),
)


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


def assert_paths_match(
    params, caps0, horizon, seed, res, paths, rules=RULES, stride=50
):
    """Field-by-field bit comparison of the batch result against the
    scalar reference for each path.

    ``paths`` is a path count (paths 0..paths-1) or a list of indices.
    """
    for p in range(paths) if isinstance(paths, int) else paths:
        ref = reference_path(
            params, caps0, horizon, seed, p, rules=rules,
            stride=stride, series_cols=(0, 1),
        )
        assert ref["status"] == int(res.status[p])
        if ref["status"] == 0:
            for i in range(len(rules)):
                assert ref["v"][i] == res.final_wealth[i, p], (p, i)
            assert ref["log_z"] == res.final_log_z[p]
            assert ref["qv"] == res.final_qv[p]
            assert ref["total"] == res.final_total[p]
            assert sorted(ref["caps"].tolist()) == sorted(
                res.final_caps[p].tolist()
            )
        assert ref["n"] == int(res.final_n[p])
        assert ref["max_n"] == int(res.max_n[p])
        ev_batch = [r.to_json() for r in res.events if r.path == p]
        ev_ref = [r.to_json() for r in ref["events"]]
        assert ev_batch == ev_ref, f"event mismatch on path {p}"
        sr_batch = [s for s in res.series if s.startswith(f"{p},")]
        assert sr_batch == ref["series"], f"series mismatch on path {p}"


class TestBitExactness:
    def test_event_rich_market(self):
        # forced entry split plus busy clocks: every event type and the
        # wealth/density accumulators all cross-checked bit for bit
        params = make_params()
        caps0 = np.array([14.0, 0.5, 0.5, 0.5])
        res = run_paths(
            EngineRun(
                params=params, initial_caps=caps0, horizon=0.5,
                n_paths=8, seed=11, rules=RULES, stride=50,
                series_cols=(0, 1), collect_events=True,
                collect_final_caps=True,
            )
        )
        assert res.instr.splits >= 8 and res.instr.mergers > 0
        assert_paths_match(params, caps0, 0.5, 11, res, 8)

    def test_quiet_market(self):
        # no events at all: pure diffusion against the reference
        params = make_params(clock_c=0.0, vol=RankTable(0.4, 0.2))
        caps0 = np.array([2.0, 1.0, 1.5])
        res = run_paths(
            EngineRun(
                params=params, initial_caps=caps0, horizon=0.3,
                n_paths=5, seed=3, rules=RULES, stride=50,
                series_cols=(0, 1), collect_events=True,
                collect_final_caps=True,
            )
        )
        assert res.instr.splits == 0 and res.instr.mergers == 0
        assert_paths_match(params, caps0, 0.3, 3, res, 5)

    def test_rank_dependent_coefficients(self):
        # drift and vol vary by rank, so a wrong rank gather would show
        params = make_params(
            drift=RankTable(-0.3, 0.6), vol=RankTable(0.7, 0.6),
            clock_c=3.0,
        )
        caps0 = np.array([6.0, 3.0, 2.0, 1.0, 1.0])
        res = run_paths(
            EngineRun(
                params=params, initial_caps=caps0, horizon=0.4,
                n_paths=6, seed=17, rules=RULES, stride=40,
                series_cols=(0, 1), collect_events=True,
                collect_final_caps=True,
            )
        )
        assert_paths_match(params, caps0, 0.4, 17, res, 6, stride=40)

    def test_growth_theta_mode(self):
        params = make_params(
            drift=RankTable(0.1, 0.2), theta_mode="growth"
        )
        caps0 = np.array([5.0, 2.0, 2.0])
        res = run_paths(
            EngineRun(
                params=params, initial_caps=caps0, horizon=0.3,
                n_paths=4, seed=23, rules=RULES, stride=30,
                series_cols=(0, 1), collect_events=True,
                collect_final_caps=True,
            )
        )
        assert_paths_match(params, caps0, 0.3, 23, res, 4, stride=30)

    # Markets wider than 8 slots: there numpy's pairwise sum and the
    # left-to-right loop part ways, so these pin the reduction order.

    def _wide_run(self, n_paths, horizon):
        params = make_params(
            drift=RankTable(-0.4, 0.8), vol=RankTable(1.2, -0.6),
            clock_c=0.5,
        )
        caps0 = 1.0 + np.arange(16) % 5 * 0.5  # ties, so stable ranks matter
        res = run_paths(
            EngineRun(
                params=params, initial_caps=caps0, horizon=horizon,
                n_paths=n_paths, seed=29, rules=RULES, stride=25,
                series_cols=(0, 1), collect_events=True,
                collect_final_caps=True,
            )
        )
        return params, caps0, res

    def test_wide_market_single_path(self):
        params, caps0, res = self._wide_run(1, 0.3)
        assert_paths_match(params, caps0, 0.3, 29, res, 1, stride=25)

    def test_wide_market_one_path_tail_chunk(self):
        # the last chunk of CHUNK + 1 paths holds a single path
        params, caps0, res = self._wide_run(CHUNK + 1, 0.03)
        assert_paths_match(params, caps0, 0.03, 29, res, [CHUNK], stride=25)

    def test_splits_grow_slots_past_nine(self):
        # five companies start in 9 slots; a volatile split-prone market
        # pushes the count past that, so the slot array must grow
        params = make_params(
            drift=RankTable(-0.5, 1.0), vol=RankTable(6.0, -1.0),
            delta=0.16, eps0=0.01, clock_c=0.5,
        )
        caps0 = np.array([40.0, 1.0, 1.0, 1.0, 1.0])
        res = run_paths(
            EngineRun(
                params=params, initial_caps=caps0, horizon=0.5,
                n_paths=6, seed=31, rules=RULES, stride=50,
                series_cols=(0, 1), collect_events=True,
                collect_final_caps=True,
            )
        )
        assert res.max_n.max() > 9
        assert_paths_match(params, caps0, 0.5, 31, res, 6)


class TestDeterminism:
    def test_adding_paths_never_perturbs_existing(self):
        params = make_params()
        caps0 = np.array([3.0, 1.0, 1.0])

        def final_state(n_paths):
            return run_paths(
                EngineRun(
                    params=params, initial_caps=caps0, horizon=0.2,
                    n_paths=n_paths, seed=5,
                )
            )

        a = final_state(3)
        b = final_state(7)
        assert np.array_equal(a.final_wealth[:, :3], b.final_wealth[:, :3])
        assert np.array_equal(a.final_log_z, b.final_log_z[:3])

    def test_two_workers_match_one(self):
        params = make_params()
        caps0 = np.array([3.0, 1.0, 1.0])
        kw = dict(
            params=params, initial_caps=caps0, horizon=0.05,
            n_paths=CHUNK + 64, seed=5, rules=(PortfolioRule("market"),),
            stride=25, series_cols=(0, 0), collect_events=True,
        )
        a = run_paths(EngineRun(workers=1, **kw))
        b = run_paths(EngineRun(workers=2, **kw))
        assert np.array_equal(a.final_wealth, b.final_wealth)
        assert np.array_equal(a.final_log_z, b.final_log_z)
        assert np.array_equal(a.status, b.status)
        assert a.series == b.series
        assert [r.to_json() for r in a.events] == [
            r.to_json() for r in b.events
        ]
        assert a.instr.splits == b.instr.splits
        assert a.instr.mergers == b.instr.mergers


class TestRunUntilEvent:
    def test_no_event_reaches_horizon(self):
        params = make_params(clock_c=0.0)
        state = MarketState(0.0, np.array([1.0, 1.0, 1.0]))
        out, rec = run_until_event(
            state, params, PathStreams.for_path(2, 0), horizon=0.05
        )
        assert rec is None
        assert out.t == pytest.approx(0.05)
        assert out.n == 3

    def test_forced_initial_split_fires_at_time_zero(self):
        params = make_params()
        state = MarketState(0.0, np.array([19.0, 0.5, 0.5]))  # mu_1 = 0.95
        out, rec = run_until_event(
            state, params, PathStreams.for_path(2, 1), horizon=1.0
        )
        assert rec is not None
        assert rec.kind == "split"
        assert rec.t == 0.0
        assert rec.n_before == 3 and rec.n_after == 4
        assert out.n == 4

    def test_huge_clock_rate_makes_first_event_a_merger(self):
        params = make_params(clock_c=1e6 / 3.0, clock_alpha=1.0)
        hits = 0
        trials = 400
        for p in range(trials):
            state = MarketState(0.0, np.array([1.0, 1.0, 1.0]))
            _, rec = run_until_event(
                state, params, PathStreams.for_path(7, p), horizon=1.0
            )
            assert rec is not None
            hits += rec.kind == "merger"
        assert hits / trials >= 0.99

    def test_zero_rate_only_splits(self):
        params = make_params(clock_c=0.0)
        kinds = set()
        for p in range(50):
            state = MarketState(0.0, np.array([8.0, 0.6, 0.4]))
            _, rec = run_until_event(
                state, params, PathStreams.for_path(9, p), horizon=2.0
            )
            if rec is not None:
                kinds.add(rec.kind)
        assert kinds == {"split"}


class TestFailureModes:
    def test_explosion_guard(self):
        # tiny cap: the first split at N = n_max - 1 trips the guard
        params = make_params(n_max=4, clock_c=0.0)
        caps0 = np.array([50.0, 1.0, 1.0])  # mu_1 = 0.96: immediate split
        res = run_paths(
            EngineRun(
                params=params, initial_caps=caps0, horizon=1.0,
                n_paths=3, seed=1, collect_events=True,
            )
        )
        assert np.all(res.status == 1)
        assert np.all(res.final_n == 4)
        for p in range(3):
            ref = reference_path(params, caps0, 1.0, 1, p)
            assert ref["status"] == 1
            assert ref["n"] == 4

    def test_overflow_flags_status_two(self):
        params = make_params(drift=RankTable(0.0, 500.0), dt=1.0)
        caps0 = np.array([1e300, 1.0])
        res = run_paths(
            EngineRun(
                params=params, initial_caps=caps0, horizon=5.0,
                n_paths=2, seed=2,
            )
        )
        assert np.all(res.status == 2)
        for p in range(2):
            ref = reference_path(params, caps0, 5.0, 2, p)
            assert ref["status"] == 2

    def test_underflow_flags_status_two_like_reference(self):
        # caps decay by e^-1 a step until one underflows to 0.0; both
        # engines must stop the path there, not only when the total fails
        params = make_params(
            drift=RankTable(-1000.0, 0.0), vol=RankTable(3.0, 0.0),
            clock_c=0.0,
        )
        caps0 = np.array([1.0, 1.0, 1.0])
        res = run_paths(
            EngineRun(
                params=params, initial_caps=caps0, horizon=1.0,
                n_paths=8, seed=5,
            )
        )
        for p in range(8):
            ref = reference_path(params, caps0, 1.0, 5, p)
            assert ref["status"] == int(res.status[p]), p
            assert ref["n"] == int(res.final_n[p]), p
            assert ref["max_n"] == int(res.max_n[p]), p
        assert np.all(res.status == 2)

    def test_ok_mask(self):
        params = make_params(clock_c=0.0)
        res = run_paths(
            EngineRun(
                params=params, initial_caps=np.array([1.0, 1.0]),
                horizon=0.02, n_paths=4, seed=3,
            )
        )
        assert res.ok.tolist() == [True] * 4


class TestValidation:
    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError, match="Assumption 2"):
            run_paths(
                EngineRun(
                    params=make_params(delta=0.4),
                    initial_caps=np.array([1.0, 1.0]),
                    horizon=0.1, n_paths=1, seed=0,
                )
            )

    def test_initial_caps_checked(self):
        with pytest.raises(ValueError):
            run_paths(
                EngineRun(
                    params=make_params(),
                    initial_caps=np.array([1.0, -1.0]),
                    horizon=0.1, n_paths=1, seed=0,
                )
            )

    def test_rule_target_must_exist_at_start(self):
        with pytest.raises(ValueError, match="target"):
            run_paths(
                EngineRun(
                    params=make_params(),
                    initial_caps=np.array([1.0, 1.0]),
                    horizon=0.1, n_paths=1, seed=0,
                    rules=(PortfolioRule("rank", 5),),
                )
            )

    def test_zero_paths_rejected(self):
        with pytest.raises(ValueError):
            run_paths(
                EngineRun(
                    params=make_params(),
                    initial_caps=np.array([1.0, 1.0]),
                    horizon=0.1, n_paths=0, seed=0,
                )
            )


class TestSeries:
    def test_header_shape_and_stride(self):
        params = make_params(clock_c=0.0)
        res = run_paths(
            EngineRun(
                params=params, initial_caps=np.array([1.0, 1.0]),
                horizon=0.01, n_paths=2, seed=4,
                rules=(PortfolioRule("market"), PortfolioRule("equal")),
                stride=5, series_cols=(0, 1),
            )
        )
        # rows at steps 0, 5 and 10 for each of the two paths
        assert len(res.series) == 6
        row = res.series[0].split(",")
        assert len(row) == 7
        assert row[0] == "0"
        assert float(row[1]) == 0.0
        assert int(row[2]) == 2
        assert 0.0 <= float(row[3]) <= 1.0
        assert float(row[4]) == 1.0 and float(row[6]) == 1.0


def _loop_sum(a):
    """The left-to-right accumulation the column sum must reproduce."""
    acc = np.zeros(a.shape[1])
    for k in range(a.shape[0]):
        acc = acc + a[k]
    return acc


# every float64 class the engine can meet: zeros of both signs,
# subnormals, huge and tiny normals, infinities and nan
SPECIAL = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1e300, 1.7e308,
     np.inf, -np.inf, np.nan, 1.0, -1.0, 0.1, 1e16]
)
FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


class TestColumnSum:
    """``_col_sum`` must be the left-to-right loop byte for byte.

    This pins the numpy behaviour the determinism contract rests on: an
    axis-0 reduction of a company-major array adds rows in order.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 64), st.integers(1, 9)),
            elements=st.one_of(SPECIAL, FLOATS),
        )
    )
    def test_matches_loop_small(self, a):
        with np.errstate(all="ignore"):
            assert _col_sum(a).tobytes() == _loop_sum(a).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 64),
        cols=st.sampled_from([255, 256, 257, 4095, 4096]),
        pool=st.lists(st.one_of(SPECIAL, FLOATS), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_loop_wide(self, rows, cols, pool, seed):
        rng = np.random.default_rng(seed)
        a = rng.lognormal(0.0, 3.0, size=(rows, cols))
        a *= rng.choice([-1.0, 1.0], size=a.shape)
        mask = rng.random(a.shape) < 0.2
        a[mask] = rng.choice(np.array(pool), size=int(mask.sum()))
        with np.errstate(all="ignore"):
            assert _col_sum(a).tobytes() == _loop_sum(a).tobytes()

"""Engine contract tests.

The central invariant: the vectorized batch engine and the scalar
reference path produce bit-identical results for every path, field by
field, including event logs and CSV series rows.  Everything else
(worker invariance, added-path stability, explosion and overflow
handling) follows from that plus the per-path stream derivation.
"""

import ast
import hashlib
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import splitmerge
from splitmerge import engine
from splitmerge.cli import main
from splitmerge.config import ConfigError, load_config
from splitmerge.engine import (
    CHUNK,
    EngineRun,
    Instrumentation,
    StepTables,
    _col_sum,
    _resolve_boundary,
    reference_path,
    run_paths,
)
from splitmerge.girsanov import theta_row
from splitmerge.harness import SHARED_RULES, active_initial, active_params
from splitmerge.params import ModelParams, RankTable, SplitDist
from splitmerge.portfolio import PortfolioRule
from splitmerge.streams import EVENTS, path_generator

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
    params, caps0, horizon, seed, res, paths, rules=RULES, stride=50,
    series_cols=(0, 1),
):
    """Field-by-field bit comparison of the batch result against the
    scalar reference for each path.

    ``paths`` is a path count (paths 0..paths-1) or a list of indices;
    ``rules``, ``stride`` and ``series_cols`` are the batch run's.
    """
    for p in range(paths) if isinstance(paths, int) else paths:
        ref = reference_path(
            params, caps0, horizon, seed, p, rules=rules,
            stride=stride, series_cols=series_cols,
        )
        assert ref["status"] == int(res.status[p])
        if ref["status"] == 0:
            for i in range(len(rules)):
                assert ref["v"][i] == res.final_wealth[i, p], (p, i)
            assert ref["log_z"] == res.final_log_z[p]
            assert ref["qv"] == res.final_qv[p]
            assert ref["total"] == res.final_total[p]
            # in order: positions are what `name` rules and the event
            # log's i/j refer to
            assert ref["caps"].tolist() == res.final_caps[p].tolist()
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
        # five companies start in five slots; a volatile split-prone
        # market pushes the count past nine, so the slot array must grow
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

    @pytest.mark.parametrize(
        "drift, vol",
        [
            (RankTable(0.0, 0.0), RankTable(1.0, 0.0)),
            (RankTable(-0.3, 0.6), RankTable(0.7, 0.6)),
        ],
        ids=["rank-flat", "rank-dependent"],
    )
    def test_instrumentation_is_the_merge_of_reference_paths(self, drift, vol):
        params = make_params(drift=drift, vol=vol)
        caps0 = np.array([14.0, 0.5, 0.5, 0.5])
        res = run_paths(
            EngineRun(
                params=params, initial_caps=caps0, horizon=0.5,
                n_paths=40, seed=3, rules=RULES,
            )
        )
        want = Instrumentation()
        for p in range(40):
            ref = reference_path(params, caps0, 0.5, 3, p, rules=RULES)
            want.merge(ref["instr"])
        assert res.instr.splits > 0 and res.instr.mergers > 0
        for name in Instrumentation.__slots__:
            assert getattr(res.instr, name) == getattr(want, name), name

    def test_top_weight_a_hair_below_threshold_still_merges(self):
        # vol 1e-300 holds the caps fixed with the top weight at
        # 0.8999999999995, under 1 - delta by less than 1e-12 relative:
        # no split fires, so the batch engine must not flag one either,
        # and every path merges its two small companies when its clock rings
        params = make_params(vol=RankTable(1e-300, 0.0), eps0=0.3, clock_c=100.0)
        caps0 = np.array([9.0 - 5e-11, 0.5, 0.5])
        rules = (PortfolioRule("market"),)
        res = run_paths(
            EngineRun(
                params=params, initial_caps=caps0, horizon=0.05,
                n_paths=4, seed=3, rules=rules, collect_events=True,
                collect_final_caps=True,
            )
        )
        assert res.instr.splits == 0 and res.instr.mergers == 4
        assert res.final_n.tolist() == [2, 2, 2, 2]
        want = max(
            reference_path(params, caps0, 0.05, 3, p, rules=rules)[
                "instr"
            ].max_sample_weight
            for p in range(4)
        )
        assert res.instr.max_sample_weight == want == 0.8999999999995
        assert_paths_match(
            params, caps0, 0.05, 3, res, 4, rules=rules, stride=0,
            series_cols=None,
        )


DEFAULT_CFG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"

# one row (N = 5) differs from the others by one ulp, so ranks matter
ULP_VOL = RankTable(
    1.0, 0.0, overrides={5: (1.0, 1.0, 1.0, 1.0, 1.0000000000000002)}
)


class TestRankFlat:
    """Rank-flat tables skip the sort; the peeled rank slot must agree."""

    @pytest.mark.parametrize(
        "params, flat",
        [
            (active_params(), True),
            (active_params(theta_mode="growth"), True),
            (load_config(str(DEFAULT_CFG)).params, True),
            (make_params(vol=RankTable(1.0, -0.5)), False),
            (make_params(vol=ULP_VOL), False),
            # 1 + 1e-300 * x rounds to 1.0: the built floats are equal
            (make_params(vol=RankTable(1.0, 1e-300)), True),
        ],
        ids=["active", "growth", "default-cfg", "sloped", "one-ulp", "tiny-slope"],
    )
    def test_flat_is_read_off_the_built_tables(self, params, flat):
        assert StepTables.build(params).flat is flat

    @pytest.mark.parametrize("mode", ["martingale", "growth"])
    def test_qrow_is_the_left_to_right_rank_sum(self, mode):
        params = make_params(
            drift=RankTable(0.0, 0.5), vol=RankTable(1.0, -0.4), theta_mode=mode
        )
        th = np.zeros((params.n_max + 1, params.n_max + 2))
        for n in range(2, params.n_max + 1):
            th[n, 1 : n + 1] = theta_row(params, n)
        th2 = (th * th) * params.dt
        want = np.zeros(params.n_max + 1)
        for n in range(2, params.n_max + 1):
            acc = np.float64(0.0)
            for k in range(1, n + 1):
                acc = acc + th2[n, k]
            want[n] = acc
        assert StepTables.build(params).qrow.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "params, caps0, flat",
        [
            # point splits halve exactly, so the rank rules meet ties
            (make_params(split_dist=SplitDist("point")), (14.0, 1.0, 1.0, 1.0), True),
            (make_params(clock_c=4.0), (1.0, 1.0, 1.0, 1.0), True),
            (make_params(vol=ULP_VOL), (14.0, 1.0, 1.0, 1.0), False),
        ],
        ids=["point-split", "equal-start", "one-ulp"],
    )
    def test_rank_rules_match_reference(self, params, caps0, flat):
        assert StepTables.build(params).flat is flat
        rules = (PortfolioRule("market"),) + tuple(
            PortfolioRule("rank", k) for k in range(4)
        )
        caps0 = np.array(caps0)
        res = run_paths(
            EngineRun(
                params=params, initial_caps=caps0, horizon=0.5,
                n_paths=24, seed=5, rules=rules, stride=50,
                series_cols=(0, 1), collect_events=True,
                collect_final_caps=True,
            )
        )
        # rank 3 loses its target on the paths that fall to two names
        assert res.final_n.min() == 2
        assert_paths_match(params, caps0, 0.5, 5, res, 24, rules=rules)


class TestLeanStep:
    """The step drops rows past the widest live path and skips the alive
    masks while every path is alive; neither may move a value."""

    @pytest.mark.parametrize(
        "drift, vol",
        [
            (RankTable(0.0, 0.0), RankTable(1.0, 0.0)),
            (RankTable(-0.3, 0.6), RankTable(1.0, -0.5)),
        ],
        ids=["rank-flat", "rank-dependent"],
    )
    @pytest.mark.parametrize("kind", ["rank", "name"])
    def test_rules_past_every_count_keep_their_row(self, drift, vol, kind):
        # every path merges down to 2 companies; a `rank 4` or `name 4`
        # rule still reads row 4, so the rows never drop below 5
        params = make_params(drift=drift, vol=vol, clock_c=20.0)
        rules = (
            PortfolioRule("market"), PortfolioRule(kind, 4),
            PortfolioRule("name", 1),
        )
        caps0 = np.ones(6)
        res = run_paths(
            EngineRun(
                params=params, initial_caps=caps0, horizon=0.5, n_paths=12,
                seed=3, rules=rules, stride=50, series_cols=(0, 2),
                collect_events=True, collect_final_caps=True,
            )
        )
        assert res.final_n.max() <= 4 and res.instr.mergers >= 48
        assert_paths_match(
            params, caps0, 0.5, 3, res, 12, rules=rules, series_cols=(0, 2)
        )

    def test_one_path_grows_past_nine_slots_and_shrinks_back(self):
        # a block of one path sums its columns by the explicit loop,
        # whatever its row count does as splits and mergers come
        params = make_params(
            drift=RankTable(-0.5, 1.0), vol=RankTable(6.0, -1.0),
            delta=0.16, eps0=0.01, clock_c=2.0,
        )
        caps0 = np.array([40.0, 1.0, 1.0, 1.0, 1.0])
        res = run_paths(
            EngineRun(
                params=params, initial_caps=caps0, horizon=0.5, n_paths=1,
                seed=21, rules=RULES, stride=50, series_cols=(0, 1),
                collect_events=True, collect_final_caps=True,
            )
        )
        assert res.max_n[0] >= 9 and res.final_n[0] <= 6
        assert_paths_match(params, caps0, 0.5, 21, res, 1)

    def test_rank_dependent_paths_that_fail_mid_run(self):
        # caps fall by e**-1 a step and underflow near step 745, path by
        # path: the steps before the first failure run without the alive
        # masks, the steps after it with them
        params = make_params(
            drift=RankTable(-1000.0, 0.0), vol=RankTable(3.0, -1.0),
            clock_c=0.0,
        )
        assert not StepTables.build(params).flat
        caps0 = np.ones(9)
        res = run_paths(
            EngineRun(
                params=params, initial_caps=caps0, horizon=1.0, n_paths=16,
                seed=7, rules=RULES, stride=50, series_cols=(0, 1),
                collect_events=True, collect_final_caps=True,
            )
        )
        assert (res.status == 2).all()
        # the domain of the packed sort: no nan and no -0.0 among the caps
        caps = np.concatenate(res.final_caps)
        assert not np.isnan(caps).any() and not np.signbit(caps).any()
        assert_paths_match(params, caps0, 1.0, 7, res, 16)


@pytest.fixture(params=["sized", "refill-every-step"])
def buffers(request, monkeypatch):
    """The batch engine's RNG buffers as shipped, or one step deep, so a
    noise or clock refill lands on almost every step."""
    if request.param == "refill-every-step":
        monkeypatch.setattr(engine, "NOISE_STEPS", 1)
        monkeypatch.setattr(engine, "CLOCK_BUF", 1)


class TestBufferEdges:
    """Refills of the noise rows and of the shared clock position read
    each stream exactly where the reference does."""

    def _run(self, params, caps0, horizon, n_paths, seed):
        return run_paths(
            EngineRun(
                params=params, initial_caps=caps0, horizon=horizon,
                n_paths=n_paths, seed=seed, rules=RULES, stride=50,
                series_cols=(0, 1), collect_events=True,
                collect_final_caps=True,
            )
        )

    def test_market_of_800_companies(self, buffers):
        # each step reads 800 normals per path, more than 768 cells
        params = make_params(n_max=1024)
        caps0 = np.ones(800)
        res = self._run(params, caps0, 0.002, 3, 5)
        assert_paths_match(params, caps0, 0.002, 5, res, 3)

    def test_horizon_past_the_clock_buffer(self, buffers):
        # 300 steps: the last clock refill draws only the steps left
        assert engine.CLOCK_BUF < 300
        params = make_params()
        caps0 = np.array([3.0, 1.0, 1.0])
        res = self._run(params, caps0, 0.3, 6, 13)
        assert res.instr.mergers > 0
        assert_paths_match(params, caps0, 0.3, 13, res, 6)

    def test_paths_fail_mid_run_while_others_refill(self, buffers):
        # splits push paths to n_max = 10 (status 1) before and after the
        # clock refill at step 256, while the others run to step 400
        params = make_params(
            drift=RankTable(-0.5, 1.0), vol=RankTable(6.0, -1.0),
            delta=0.16, eps0=0.01, clock_c=0.5, n_max=10,
        )
        caps0 = np.array([40.0, 1.0, 1.0, 1.0, 1.0])
        res = self._run(params, caps0, 0.4, 16, 31)
        failed_at = {e.path: e.t for e in res.events if res.status[e.path]}
        assert set(res.status.tolist()) == {0, 1}
        assert min(failed_at.values()) < 0.256 < max(failed_at.values())
        assert_paths_match(params, caps0, 0.4, 31, res, 16)


def test_block_memory_follows_what_it_reads():
    # one 1024-path default.cfg block of 50 steps reads 50 clock uniforms
    # and a few hundred normals per path.  The peak is 5.9 MB; buffers of
    # 1024 uniforms and 768 normals per path, allocated up front, made it
    # 18.1 MB (numpy 2.4, Python 3.11)
    run = replace(
        load_config(DEFAULT_CFG).engine_run(collect_events=True),
        n_paths=1024, horizon=0.05,
    )
    tables = StepTables.build(run.params)
    tracemalloc.start()
    try:
        engine._run_chunk(run, tables, 0, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, f"peak {peak / 1e6:.1f} MB"


def _packed_order(caps, n):
    """``_rank_order`` with the packed sort at every row count."""
    with mock.patch.object(engine, "PACKED_SORT_ROWS", 2):
        return engine._rank_order(caps, n)


def _stable_ranks(caps):
    order = np.argsort(-caps, axis=0, kind="stable")
    ranks = np.empty_like(order)
    ranks[order, np.arange(caps.shape[1])] = np.arange(caps.shape[0])[:, None]
    return order, ranks


# caps in the packed sort's domain, [+0.0, +inf]: zero, denormals,
# extremes and inf, with no nan; adding +0.0 turns a drawn -0.0 into +0.0
DOMAIN = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-323, 2.2e-308, 1.0, 1.7e308, np.inf]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=True).map(
        lambda x: x + 0.0
    ),
)


class TestPackedRankOrder:
    """The packed integer sort ranks as the stable argsort does."""

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(2, 1024),
        paths=st.integers(1, 5),
        pool=st.lists(DOMAIN, min_size=1, max_size=6),
        ulps=st.integers(0, 1100),
        share=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
        one_n=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_stable_argsort(
        self, rows, paths, pool, ulps, share, one_n, seed
    ):
        rng = np.random.default_rng(seed)
        # the pool's values, their next 8 floats up and the float `ulps`
        # up: exact ties, and near-ties within and past 2**sb ulp
        near = [np.array(pool)]
        with np.errstate(over="ignore"):  # the float past 1.7e308 is inf
            for _ in range(min(ulps, 8)):
                near.append(np.nextafter(near[-1], np.inf))
            far = near[0]
            for _ in range(ulps):
                far = np.nextafter(far, np.inf)
        pool = np.concatenate(near + [far])
        caps = rng.lognormal(0.0, 3.0, size=(rows, paths))
        mask = rng.random(caps.shape) < share
        caps[mask] = rng.choice(pool, size=int(mask.sum()))
        n = np.full(paths, rng.integers(2, rows + 1)) if one_n else (
            rng.integers(2, rows + 1, size=paths)
        )
        caps[np.arange(rows)[:, None] >= n] = 0.0  # padded slots
        order, ranks = _packed_order(caps, int(n[0]) if one_n else n)
        want_order, want_ranks = _stable_ranks(caps)
        assert order.tolist() == want_order.tolist()
        assert ranks.tolist() == want_ranks.tolist()

    @pytest.mark.parametrize("below", [True, False], ids=["below", "at"])
    def test_crossover(self, below):
        # distinct caps: the argsort runs below the crossover only
        rows = engine.PACKED_SORT_ROWS - below
        caps = np.random.default_rng(1).lognormal(size=(rows, 64))
        n = np.full(64, rows)
        want = _stable_ranks(caps)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
            order, ranks = engine._rank_order(caps, n)
        assert spy.called is below
        assert order.tolist() == want[0].tolist()
        assert ranks.tolist() == want[1].tolist()

    @pytest.mark.parametrize(
        "tie", ["exact", "one-ulp", "live-denormals"]
    )
    def test_ties_fall_back_to_the_argsort(self, tie):
        rows = engine.PACKED_SORT_ROWS + 4
        caps = np.random.default_rng(2).lognormal(size=(rows, 8))
        caps[rows - 3 :, 5] = 0.0  # padded zeros never force the fallback
        if tie == "exact":
            caps[3, 2] = caps[1, 2]
        elif tie == "one-ulp":
            caps[3, 2] = np.nextafter(caps[1, 2], 0.0)
        else:  # 2 and 1 ulp above zero, in slot order: the packed keys
            caps[2:4, 2] = [5e-324, 1e-323]  # would rank them backwards
        n = np.full(8, rows)
        n[5] = rows - 3
        want = _stable_ranks(caps)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
            order, ranks = engine._rank_order(caps, n)
        assert spy.call_count == 1
        assert order.tolist() == want[0].tolist()
        assert ranks.tolist() == want[1].tolist()


class TestGolden:
    def test_event_layer_is_pinned(self):
        # both engines call the one event resolver, so the twin tests
        # cannot see a change made to it; these values pin its output
        res = run_paths(
            EngineRun(
                params=active_params(), initial_caps=active_initial(),
                horizon=0.5, n_paths=64, seed=11, rules=SHARED_RULES,
                stride=50, series_cols=(0, 1), collect_events=True,
            )
        )
        events = "\n".join(r.to_json() for r in res.events).encode()
        rows = "\n".join(res.series).encode()
        assert (len(res.events), hashlib.sha256(events).hexdigest()) == (
            245, "b303857c5cc0a6c7bb5ddf8e66cedef7115130840f6a4ecd7a38828c644eaecf"
        )
        assert (len(res.series), hashlib.sha256(rows).hexdigest()) == (
            704, "75241c233279b0f2956fe3745a4b7025bea97fea9a14a42ff219eab3a8e9bd58"
        )
        i = res.instr
        assert (i.splits, i.mergers, i.suppressed) == (65, 180, 0)
        assert i.max_overshoot == 0.0035778213478839527
        assert i.max_sample_weight == 0.8992896593502442
        assert i.max_conservation == 1.0
        assert i.max_transfer == 2.220446049250313e-16


class TestEventSequence:
    """The one resolver on hand-built boundaries."""

    def test_suppressed_merger_is_logged_and_moves_nothing(self):
        # delta = 0.4 is outside Assumption 2, so built without validate:
        # the only eligible pair holds weight 0.66 >= 1 - delta
        params = make_params(delta=0.4)
        caps = [0.34, 0.33, 0.33]
        instr = Instrumentation()
        records = []
        out, exploded, had_event = _resolve_boundary(
            list(caps), 0.25, 7, params, path_generator(3, 7, EVENTS), True,
            RULES, instr, records.append,
        )
        assert (out, exploded, had_event) == (caps, False, True)
        assert [r.to_json() for r in records] == [
            '{"path": 7, "t": 0.25, "kind": "suppressed_merger", "i": 2, '
            '"j": 3, "xi": null, "n_before": 3, "n_after": 3}'
        ]
        assert (instr.splits, instr.mergers, instr.suppressed) == (0, 0, 1)
        assert instr.max_conservation == 0.0
        assert instr.max_transfer == 0.0

    def test_split_cascade_at_one_boundary(self):
        # seed 5 draws a first fraction large enough that the child splits
        params = make_params(eps0=0.01)
        instr = Instrumentation()
        records = []
        out, exploded, had_event = _resolve_boundary(
            [1000.0, 1.0, 1.0], 0.0, 0, params, path_generator(5, 0, EVENTS),
            False, RULES, instr, records.append,
        )
        assert len(records) >= 2
        assert all(r.kind == "split" for r in records)
        assert [(r.n_before, r.n_after) for r in records] == [
            (n, n + 1) for n in range(3, 3 + len(records))
        ]
        assert instr.splits == len(records)
        assert (exploded, had_event, len(out)) == (False, True, 3 + len(records))
        assert engine._mu_top(out) < 1.0 - params.delta


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
            collect_final_caps=True,
        )
        a = run_paths(EngineRun(workers=1, **kw))
        b = run_paths(EngineRun(workers=2, **kw))
        assert len(a.status) == CHUNK + 64
        for name in ("final_wealth", "final_log_z", "final_qv", "final_n",
                     "max_n", "final_total", "status"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        assert a.initial_total == b.initial_total
        assert a.series == b.series
        assert [r.to_json() for r in a.events] == [
            r.to_json() for r in b.events
        ]
        assert len(a.final_caps) == len(b.final_caps) == CHUNK + 64
        for x, y in zip(a.final_caps, b.final_caps):
            assert x.tobytes() == y.tobytes()
        for name in Instrumentation.__slots__:
            assert getattr(a.instr, name) == getattr(b.instr, name), name


class TestFirstEvent:
    def test_first_event_follows_the_model(self):
        # a concentrated entry market splits first, at t = 0
        params = make_params()
        caps0 = np.array([19.0, 0.5, 0.5])  # mu_1 = 0.95
        first = reference_path(params, caps0, 0.01, 2, 1)["events"][0]
        assert (first.kind, first.t, first.n_before, first.n_after) == (
            "split", 0.0, 3, 4,
        )
        # no clock: every event is a split
        params = make_params(clock_c=0.0)
        kinds = set()
        for p in range(20):
            ref = reference_path(params, np.array([8.0, 0.6, 0.4]), 0.5, 9, p)
            kinds.update(rec.kind for rec in ref["events"])
        assert kinds == {"split"}
        # a clock that rings almost surely in the first step: a merger first
        params = make_params(clock_c=1e6 / 3.0, clock_alpha=1.0)
        caps0 = np.array([1.0, 1.0, 1.0])
        firsts = [
            reference_path(params, caps0, 0.002, 7, p)["events"][0].kind
            for p in range(400)
        ]
        assert firsts.count("merger") / len(firsts) >= 0.99


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

    @pytest.mark.parametrize(
        "rule",
        [
            PortfolioRule("rank", 0),
            PortfolioRule("market"),
            PortfolioRule("equal"),
            PortfolioRule("name", 1),
        ],
    )
    @pytest.mark.parametrize("drift, vol, want", [(-40.0, 1.0, 3), (-1000.0, 3.0, 2)])
    def test_wealth_at_zero_flags_status_three_like_reference(
        self, rule, drift, vol, want
    ):
        # a cap that shrinks by more than a factor 2**-53 in one step has a
        # return of exactly -1.0, so a long-only rule's wealth reaches 0.0
        # (status 3); a cap that underflows to 0.0 is checked first (status 2)
        params = make_params(
            drift=RankTable(drift, 0.0), vol=RankTable(vol, 0.0), eps0=0.3,
            clock_c=0.0, dt=1.0,
        )
        caps0 = np.array([1.0, 1.0, 1.0])
        res = run_paths(
            EngineRun(
                params=params, initial_caps=caps0, horizon=2.0,
                n_paths=6, seed=5, rules=(rule,),
            )
        )
        for p in range(6):
            ref = reference_path(params, caps0, 2.0, 5, p, rules=(rule,))
            assert ref["status"] == int(res.status[p]), p
            assert ref["n"] == int(res.final_n[p]), p
            assert ref["max_n"] == int(res.max_n[p]), p
        assert np.all(res.status == want)

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

    def test_horizon_under_half_a_step_rejected(self):
        # dt is 1e-3: a horizon of 0.0004 rounds to zero steps
        params = make_params()
        caps0 = np.array([1.0, 1.0])
        with pytest.raises(ValueError, match="would round to 0 steps"):
            run_paths(
                EngineRun(
                    params=params, initial_caps=caps0, horizon=0.0004,
                    n_paths=1, seed=0,
                )
            )
        with pytest.raises(ValueError, match="would round to 0 steps"):
            reference_path(params, caps0, 0.0004, 0, 0)

    def test_zero_paths_rejected(self):
        with pytest.raises(ValueError):
            run_paths(
                EngineRun(
                    params=make_params(),
                    initial_caps=np.array([1.0, 1.0]),
                    horizon=0.1, n_paths=0, seed=0,
                )
            )

    # each row: the EngineRun fields that differ from a valid run, the
    # config file that states the same run (None where a file cannot),
    # and the problem every front end must name; dt is 1e-3 throughout
    @pytest.mark.parametrize(
        "fields, cfg_text, problem",
        [
            ({"horizon": 0.0015}, "[run]\nhorizon = 0.0015\n",
             "would round to 2 steps"),
            ({"horizon": 0.0004}, "[run]\nhorizon = 0.0004\n",
             "would round to 0 steps"),
            ({"workers": 0}, "[run]\nworkers = 0\n",
             "workers must be at least 1"),
            ({"stride": -1}, "[run]\nstride = -1\n",
             "stride must be nonnegative"),
            ({"seed": -1}, "[run]\nseed = -1\n", "seed must be nonnegative"),
            ({"initial_caps": np.array([1.0, -1.0])},
             "[initial]\ncaps = 1, -1\n", "initial_caps must be positive"),
            ({"initial_caps": np.ones(64)}, "[initial]\nn = 64\n",
             "64 companies but n_max = 64"),
            ({"rules": (PortfolioRule("name", 6),)},
             "[run]\nportfolio = name:7\n", "targets company 7"),
            ({"rules": (PortfolioRule("market"),), "series_cols": (0, 3)},
             None, "series_cols"),
            ({"params": make_params(clock_alpha=1000.0)},
             "[model]\nclock_alpha = 1000\n", "clock_alpha = 1000"),
            ({"params": make_params(
                vol=RankTable(1.0, 0.0, overrides={3: (1.0, 2.0)}))},
             None, "vol override row for N=3 has length 2"),
        ],
        ids=[
            "horizon-1.5-steps", "horizon-0.4-steps", "workers-0",
            "stride-negative", "seed-negative", "cap-negative",
            "caps-at-n_max", "name-7-of-3", "series_cols-outside-rules",
            "clock-rate-overflow", "override-row-short",
        ],
    )
    def test_invalid_run_rejected_everywhere(
        self, fields, cfg_text, problem, tmp_path, capsys
    ):
        run = EngineRun(
            params=make_params(), initial_caps=np.ones(3), horizon=0.01,
            n_paths=2, seed=0,
        )
        run = replace(run, **fields)
        assert any(problem in p for p in run.validate())
        with pytest.raises(ValueError, match=problem):
            run_paths(run)
        # reference_path takes every field but workers
        if "workers" not in fields:
            with pytest.raises(ValueError, match=problem):
                reference_path(
                    run.params, run.initial_caps, run.horizon, run.seed, 0,
                    rules=run.rules, stride=run.stride,
                    series_cols=run.series_cols,
                )
        if cfg_text is None:
            return
        cfg = tmp_path / "run.cfg"
        cfg.write_text(cfg_text)  # three unit caps unless it says otherwise
        with pytest.raises(ConfigError) as ei:
            load_config(str(cfg))
        assert any(problem in p for p in ei.value.problems)
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert problem in capsys.readouterr().err


class TestCheckCaps:
    """A market from outside the program, as :meth:`EngineRun.validate`
    sees it."""

    def caps_problems(self, caps):
        return EngineRun(
            params=make_params(), initial_caps=np.array(caps), horizon=0.1,
            n_paths=1, seed=0,
        ).validate()

    def test_check_accepts_valid(self):
        assert self.caps_problems([1.0, 2.0]) == []

    def test_check_rejects_single_company(self):
        for caps in ([7.0], [[1.0, 2.0]]):
            assert self.caps_problems(caps) == [
                "initial_caps must be a 1-d vector of at least 2 caps, "
                f"got shape {np.shape(caps)}"
            ]

    def test_check_rejects_nonpositive_and_nonfinite(self):
        for caps in ([1.0, 0.0], [1.0, np.inf], [np.nan, 1.0]):
            assert self.caps_problems(caps) == [
                "initial_caps must be positive and finite"
            ]


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


# the modules whose floats the twin contract pins bit for bit
BIT_EXACT = ("engine", "dynamics", "events", "portfolio", "girsanov",
             "streams", "params")


@pytest.mark.parametrize("module", BIT_EXACT)
def test_no_builtin_sum_on_the_bit_exact_path(module):
    # from Python 3.12 the built-in sum() compensates its rounding, so a
    # float total would differ between interpreter versions
    path = Path(splitmerge.__file__).parent / f"{module}.py"
    calls = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
    ]
    assert calls == [], f"{module}.py calls sum() at lines {calls}"

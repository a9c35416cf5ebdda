"""Engine contract tests.

The central invariant: the vectorized batch engine and the scalar
reference path produce bit-identical results for every path, field by
field, including event logs and CSV series rows.  Everything else
(worker invariance, added-path stability, explosion and overflow
handling) follows from that plus the per-path stream derivation.
"""

import ast
import hashlib
import math
import re
import tracemalloc
from copy import deepcopy
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    twin_mismatches,
)
from splitmerge.dynamics import market_weights, total_cap
from splitmerge.events import apply_merger, apply_split, detect_split
from splitmerge.girsanov import theta_row
from splitmerge.harness import SHARED_RULES, active_initial, active_params
from splitmerge.params import ModelParams, RankTable, SplitDist
from splitmerge.portfolio import PortfolioRule, transfer_on_merger, transfer_on_split
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


# a volatile market whose top company splits often
SPLIT_PRONE = make_params(
    drift=RankTable(-0.5, 1.0), vol=RankTable(6.0, -1.0), delta=0.16,
    eps0=0.01, clock_c=2.0,
)

# the top weight sits a hair below 1 - delta = 0.9
HAIR_BELOW = EngineRun(
    params=make_params(vol=RankTable(1e-300, 0.0), eps0=0.3, clock_c=100.0),
    initial_caps=np.array([9.0 - 5e-11, 0.5, 0.5]), horizon=0.05, n_paths=4,
    seed=3, rules=(PortfolioRule("market"),), collect_events=True,
)


def twin_run(run, paths=None):
    """``run_paths(run)``, after asserting that it matches the scalar
    reference on ``paths`` (default: every path) in every field."""
    res = run_paths(run)
    assert twin_mismatches(run, res, paths) == []
    return res


class TestBitExactness:
    def test_event_rich_market(self):
        # forced entry split plus busy clocks: every event type and the
        # wealth/density accumulators all cross-checked bit for bit
        res = twin_run(
            EngineRun(
                params=make_params(), initial_caps=np.array([14.0, 0.5, 0.5, 0.5]),
                horizon=0.5, n_paths=8, seed=11, rules=RULES, stride=50,
                series_cols=(0, 1), collect_events=True,
            )
        )
        assert res.instr.splits >= 8 and res.instr.mergers > 0

    def test_quiet_market(self):
        # no events at all: pure diffusion against the reference
        res = twin_run(
            EngineRun(
                params=make_params(clock_c=0.0, vol=RankTable(0.4, 0.2)),
                initial_caps=np.array([2.0, 1.0, 1.5]), horizon=0.3,
                n_paths=5, seed=3, rules=RULES, stride=50,
                series_cols=(0, 1), collect_events=True,
            )
        )
        assert res.instr.splits == 0 and res.instr.mergers == 0

    def test_rank_dependent_coefficients(self):
        # drift and vol vary by rank, so a wrong rank gather would show
        twin_run(
            EngineRun(
                params=make_params(
                    drift=RankTable(-0.3, 0.6), vol=RankTable(0.7, 0.6),
                    clock_c=3.0,
                ),
                initial_caps=np.array([6.0, 3.0, 2.0, 1.0, 1.0]), horizon=0.4,
                n_paths=6, seed=17, rules=RULES, stride=40,
                series_cols=(0, 1), collect_events=True,
            )
        )

    def test_growth_theta_mode(self):
        twin_run(
            EngineRun(
                params=make_params(drift=RankTable(0.1, 0.2), theta_mode="growth"),
                initial_caps=np.array([5.0, 2.0, 2.0]), horizon=0.3,
                n_paths=4, seed=23, rules=RULES, stride=30,
                series_cols=(0, 1), collect_events=True,
            )
        )

    # Markets wider than 8 slots: there numpy's pairwise sum and the
    # left-to-right loop part ways, so these pin the reduction order.

    def _wide_run(self, n_paths, horizon):
        return EngineRun(
            params=make_params(
                drift=RankTable(-0.4, 0.8), vol=RankTable(1.2, -0.6),
                clock_c=0.5,
            ),
            # ties, so stable ranks matter
            initial_caps=1.0 + np.arange(16) % 5 * 0.5, horizon=horizon,
            n_paths=n_paths, seed=29, rules=RULES, stride=25,
            series_cols=(0, 1), collect_events=True,
        )

    def test_wide_market_single_path(self):
        twin_run(self._wide_run(1, 0.3))

    def test_wide_market_one_path_tail_chunk(self):
        # the last chunk of CHUNK + 1 paths holds a single path
        twin_run(self._wide_run(CHUNK + 1, 0.03), [CHUNK])

    def test_splits_grow_slots_past_nine(self):
        # five companies start in five slots; a volatile split-prone
        # market pushes the count past nine, so the slot array must grow
        res = twin_run(
            EngineRun(
                params=make_params(
                    drift=RankTable(-0.5, 1.0), vol=RankTable(6.0, -1.0),
                    delta=0.16, eps0=0.01, clock_c=0.5,
                ),
                initial_caps=np.array([40.0, 1.0, 1.0, 1.0, 1.0]), horizon=0.5,
                n_paths=6, seed=31, rules=RULES, stride=50,
                series_cols=(0, 1), collect_events=True,
            )
        )
        assert res.max_n.max() > 9

    @pytest.mark.parametrize(
        "drift, vol",
        [
            (RankTable(0.0, 0.0), RankTable(1.0, 0.0)),
            (RankTable(-0.3, 0.6), RankTable(0.7, 0.6)),
        ],
        ids=["rank-flat", "rank-dependent"],
    )
    def test_instrumentation_is_the_merge_of_reference_paths(self, drift, vol):
        # the comparator checks the instrumentation on a run of all paths
        res = twin_run(
            EngineRun(
                params=make_params(drift=drift, vol=vol),
                initial_caps=np.array([14.0, 0.5, 0.5, 0.5]), horizon=0.5,
                n_paths=40, seed=3, rules=RULES,
            )
        )
        assert res.instr.splits > 0 and res.instr.mergers > 0

    def test_top_weight_a_hair_below_threshold_still_merges(self):
        # vol 1e-300 holds the caps fixed with the top weight at
        # 0.8999999999995, under 1 - delta by less than 1e-12 relative:
        # no split fires, so the batch engine must not flag one either,
        # and every path merges its two small companies when its clock rings
        res = twin_run(HAIR_BELOW)
        assert res.instr.splits == 0 and res.instr.mergers == 4
        assert res.final_n.tolist() == [2, 2, 2, 2]
        assert res.instr.max_sample_weight == 0.8999999999995


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
        res = twin_run(
            EngineRun(
                params=params, initial_caps=np.array(caps0), horizon=0.5,
                n_paths=24, seed=5, rules=rules, stride=50,
                series_cols=(0, 1), collect_events=True,
            )
        )
        # rank 3 loses its target on the paths that fall to two names
        assert res.final_n.min() == 2


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
        rules = (
            PortfolioRule("market"), PortfolioRule(kind, 4),
            PortfolioRule("name", 1),
        )
        res = twin_run(
            EngineRun(
                params=make_params(drift=drift, vol=vol, clock_c=20.0),
                initial_caps=np.ones(6), horizon=0.5, n_paths=12,
                seed=3, rules=rules, stride=50, series_cols=(0, 2),
                collect_events=True,
            )
        )
        assert res.final_n.max() <= 4 and res.instr.mergers >= 48

    def test_one_path_grows_past_nine_slots_and_shrinks_back(self):
        # a block of one path sums its columns by the explicit loop,
        # whatever its row count does as splits and mergers come
        res = twin_run(
            EngineRun(
                params=SPLIT_PRONE,
                initial_caps=np.array([40.0, 1.0, 1.0, 1.0, 1.0]), horizon=0.5,
                n_paths=1, seed=21, rules=RULES, stride=50, series_cols=(0, 1),
                collect_events=True,
            )
        )
        assert res.max_n[0] >= 9 and res.final_n[0] <= 6

    def test_rank_dependent_paths_that_fail_mid_run(self):
        # caps fall by e**-1 a step and underflow near step 745, path by
        # path: the steps before the first failure run without the alive
        # masks, the steps after it with them
        params = make_params(
            drift=RankTable(-1000.0, 0.0), vol=RankTable(3.0, -1.0),
            clock_c=0.0,
        )
        assert not StepTables.build(params).flat
        res = twin_run(
            EngineRun(
                params=params, initial_caps=np.ones(9), horizon=1.0, n_paths=16,
                seed=7, rules=RULES, stride=50, series_cols=(0, 1),
                collect_events=True,
            )
        )
        assert (res.status == 2).all()
        # the domain of the packed sort: no nan and no -0.0 among the caps
        caps = res.final_caps
        assert not np.isnan(caps).any() and not np.signbit(caps).any()


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

    def _twin_run(self, params, caps0, horizon, n_paths, seed):
        return twin_run(
            EngineRun(
                params=params, initial_caps=np.array(caps0), horizon=horizon,
                n_paths=n_paths, seed=seed, rules=RULES, stride=50,
                series_cols=(0, 1), collect_events=True,
            )
        )

    def test_market_of_800_companies(self, buffers):
        # each step reads 800 normals per path, more than 768 cells
        self._twin_run(make_params(n_max=1024), np.ones(800), 0.002, 3, 5)

    def test_horizon_past_the_clock_buffer(self, buffers):
        # 300 steps: the last clock refill draws only the steps left
        assert engine.CLOCK_BUF < 300
        res = self._twin_run(make_params(), [3.0, 1.0, 1.0], 0.3, 6, 13)
        assert res.instr.mergers > 0

    def test_paths_fail_mid_run_while_others_refill(self, buffers):
        # splits push paths to n_max = 10 (status 1) before and after the
        # clock refill at step 256, while the others run to step 400
        params = make_params(
            drift=RankTable(-0.5, 1.0), vol=RankTable(6.0, -1.0),
            delta=0.16, eps0=0.01, clock_c=0.5, n_max=10,
        )
        res = self._twin_run(params, [40.0, 1.0, 1.0, 1.0, 1.0], 0.4, 16, 31)
        failed_at = {e.path: e.t for e in res.events if res.status[e.path]}
        assert set(res.status.tolist()) == {0, 1}
        assert min(failed_at.values()) < 0.256 < max(failed_at.values())


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
        out, exploded, had_event, mu = _resolve_boundary(
            list(caps), 0.25, 7, params, path_generator(3, 7, EVENTS), True,
            RULES, instr, records.append,
        )
        assert (out, exploded, had_event, mu) == (caps, False, True, 0.34)
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
        out, exploded, had_event, mu = _resolve_boundary(
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
        assert mu < 1.0 - params.delta


@st.composite
def boundaries(draw):
    """A boundary for the resolver: 3 to 12 positive caps at one magnitude,
    subnormal to near overflow, whole multiples of it (every pair sums
    exactly) or not, with a top heavy enough to split or not; all five
    rule kinds; a delta, eps0, n_max (one or two past the count, or 64)
    and seed."""
    n = draw(st.integers(3, 12))
    scale = 2.0 ** draw(st.integers(-1070, 990))
    if draw(st.booleans()):
        caps = [draw(st.integers(1, 2**20)) * scale for _ in range(n)]
    else:
        caps = [draw(st.floats(1.0, 100.0)) * scale for _ in range(n)]
    if draw(st.booleans()):
        top = draw(st.integers(0, n - 1))
        rest = math.fsum(caps) - caps[top]
        caps[top] = rest * draw(st.sampled_from([1.0, 6.0, 60.0, 500.0]))
    params = make_params(
        delta=draw(st.sampled_from([0.02, 0.1, 0.16])),
        eps0=draw(st.sampled_from([0.01, 0.3, 4.0 / 9.0])),
        n_max=draw(st.sampled_from([n + 1, n + 2, 64])),
    )
    rules = (
        PortfolioRule("cash"), PortfolioRule("market"), PortfolioRule("equal"),
        PortfolioRule("rank", draw(st.integers(0, n - 1))),
        PortfolioRule("name", draw(st.integers(0, n - 1))),
    )
    return caps, params, rules, draw(st.integers(0, 2**32)), draw(st.booleans())


class TestAuditReplay:
    """The resolver's audit maxima equal, by ``repr``, those of a replay
    of its records that takes every ``math.fsum``, and each split is at
    the company ``detect_split`` picks.  The top weight it returns is
    ``max/total`` of the caps it returns, by ``repr``, and it stops a
    path exactly when the count reaches ``n_max``."""

    @settings(max_examples=300, deadline=None)
    @given(boundaries())
    # whole caps: the merged pair sums exactly
    @example(([4.0, 3.0, 2.0, 1.0], make_params(), (
        PortfolioRule("cash"), PortfolioRule("market"), PortfolioRule("equal"),
        PortfolioRule("rank", 1), PortfolioRule("name", 3)), 1, True))
    # a split, then no merger
    @example(([40.0, 1.0, 2.0], make_params(eps0=0.01), (
        PortfolioRule("market"), PortfolioRule("equal")), 5, True))
    # a cascade that n_max = 4 stops after one split, at a top weight
    # still above the threshold
    @example(([1000.0, 1.0, 1.0], make_params(eps0=0.01, n_max=4), (
        PortfolioRule("market"), PortfolioRule("rank", 0)), 5, True))
    def test_maxima_equal_a_full_replay(self, boundary):
        caps, params, rules, seed, rang = boundary
        instr = Instrumentation()
        records = []
        out, exploded, _, mu = _resolve_boundary(
            list(caps), 0.5, 0, params, path_generator(seed, 0, EVENTS), rang,
            rules, instr, records.append,
        )
        # the replay
        conservation = transfer = 0.0
        pis = [rl.weights(caps) for rl in rules]
        for rec in records:
            i = rec.i - 1
            if rec.kind == "split":
                assert i == detect_split(market_weights(caps), params.delta)
                after = apply_split(caps, i, rec.xi)
                pis_after = [transfer_on_split(pi, i, caps, after) for pi in pis]
            elif rec.kind == "merger":
                after = apply_merger(caps, i, rec.j - 1)
                pis_after = [transfer_on_merger(pi, i, rec.j - 1) for pi in pis]
            else:
                continue
            conservation = max(conservation, engine._conservation_err(caps, after))
            for pi, pi_after in zip(pis, pis_after):
                transfer = max(transfer, engine._transfer_err(pi, pi_after))
            caps, pis = after, pis_after
        assert out == caps
        assert repr(mu) == repr(max(out) / total_cap(out))
        assert exploded == (len(out) >= params.n_max)
        assert repr(instr.max_conservation) == repr(conservation)
        assert repr(instr.max_transfer) == repr(transfer)


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
        for name in ("final_wealth", "final_log_z", "final_qv", "final_n",
                     "max_n", "final_total", "final_caps", "status"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.shape[-1] == CHUNK + 64, name
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name
        assert a.initial_total == b.initial_total
        assert a.series == b.series
        assert [r.to_json() for r in a.events] == [
            r.to_json() for r in b.events
        ]
        for name in Instrumentation.__slots__:
            assert getattr(a.instr, name) == getattr(b.instr, name), name


class TestTwinMismatches:
    """The comparator names the path and the field of every difference."""

    @pytest.fixture(scope="class")
    def twins(self):
        run = EngineRun(
            params=make_params(), initial_caps=np.array([14.0, 0.5, 0.5, 0.5]),
            horizon=0.1, n_paths=3, seed=11, rules=RULES, stride=50,
            series_cols=(0, 1), collect_events=True,
        )
        return run, run_paths(run)

    def _mismatches(self, twins, change, paths=None):
        run, res = twins
        res = deepcopy(res)
        change(res)
        return twin_mismatches(run, res, paths)

    def test_agreeing_engines_give_none(self, twins):
        assert twin_mismatches(*twins) == []

    def test_one_ulp_of_qv(self, twins):
        def change(res):
            res.final_qv[1] = np.nextafter(res.final_qv[1], np.inf)

        (entry,) = self._mismatches(twins, change)
        assert entry.startswith("path 1: qv: batch ")

    def test_a_series_row_an_event_and_a_padded_cap(self, twins):
        def change(res):
            res.series[1] += "0"
            res.events.pop(0)
            res.final_caps[-1, 2] = -0.0  # padding must be +0.0

        # path 0 logs one event; series rows are step-major
        events, row, cap = self._mismatches(twins, change)
        assert events == "path 0: events: batch has 0 items, reference 1"
        assert row.startswith("path 1: series[0]: batch '1,0.0,")
        last = len(twins[1].final_caps) - 1
        assert cap == f"path 2: caps[{last}]: batch -0.0, reference 0.0"

    def test_instrumentation_only_on_the_whole_run(self, twins):
        def change(res):
            res.instr.max_transfer = 1.0

        assert self._mismatches(twins, change) == [
            "instr.max_transfer: batch 1.0, reference "
            f"{twins[1].instr.max_transfer!r}"
        ]
        assert self._mismatches(twins, change, [0, 2]) == []


def test_pool_has_no_more_workers_than_blocks(monkeypatch):
    # a fork pool starts all of its workers at the first submit
    sizes = []

    class Executor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", Executor)
    spans = engine.map_blocks(lambda a, b: (a, b), 2 * CHUNK + 1, 500)
    assert spans == [(0, CHUNK), (CHUNK, 2 * CHUNK), (2 * CHUNK, 2 * CHUNK + 1)]
    assert engine.map_blocks(lambda a, b: b - a, 2 * CHUNK, 2) == [CHUNK] * 2
    assert sizes == [3, 2]


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
    """Each engine stops a path for the same reason at the same step."""

    def test_explosion_guard(self):
        # tiny cap: the first split at N = n_max - 1 trips the guard;
        # mu_1 = 0.96 splits at once
        res = twin_run(
            EngineRun(
                params=make_params(n_max=4, clock_c=0.0),
                initial_caps=np.array([50.0, 1.0, 1.0]), horizon=1.0,
                n_paths=3, seed=1, stride=50, collect_events=True,
            )
        )
        assert np.all(res.status == 1)
        assert np.all(res.final_n == 4)

    def test_overflow_flags_status_two(self):
        res = twin_run(
            EngineRun(
                params=make_params(drift=RankTable(0.0, 500.0), dt=1.0),
                initial_caps=np.array([1e300, 1.0]), horizon=5.0,
                n_paths=2, seed=2, stride=1, collect_events=True,
            )
        )
        assert np.all(res.status == 2)

    def test_underflow_flags_status_two_like_reference(self):
        # caps decay by e^-1 a step until one underflows to 0.0; both
        # engines must stop the path there, not only when the total fails
        res = twin_run(
            EngineRun(
                params=make_params(
                    drift=RankTable(-1000.0, 0.0), vol=RankTable(3.0, 0.0),
                    clock_c=0.0,
                ),
                initial_caps=np.array([1.0, 1.0, 1.0]), horizon=1.0,
                n_paths=8, seed=5, stride=50, collect_events=True,
            )
        )
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
        res = twin_run(
            EngineRun(
                params=make_params(
                    drift=RankTable(drift, 0.0), vol=RankTable(vol, 0.0),
                    eps0=0.3, clock_c=0.0, dt=1.0,
                ),
                initial_caps=np.array([1.0, 1.0, 1.0]), horizon=2.0,
                n_paths=6, seed=5, rules=(rule,), stride=1,
                series_cols=(0, 0), collect_events=True,
            )
        )
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


# ---------------------------------------------------------------------------
# runs for the fuzzer: valid ones for the twin contract, invalid ones for
# validation


def _table(draw, n_max, lo, hi, slope):
    """A rank table of the ``a + b (k-1)/(N-1)`` family, sometimes with an
    explicit row; ``slope`` bounds ``b``.  A row is sorted ascending, as
    the drift's Assumption 1 needs, unless the draw says otherwise, and
    its key may lie past ``n_max``."""
    table = RankTable(draw(st.floats(lo, hi)), draw(st.floats(*slope)))
    if draw(st.booleans()):
        n = draw(st.integers(2, n_max + 1))
        row = draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))
        if draw(st.integers(0, 7)):
            row.sort()
        table = replace(table, overrides={n: tuple(row)})
    return table


def _sometimes(draw, valid, invalid):
    """``valid``, or in about one draw of eight ``invalid``; shrinks to
    ``valid``."""
    return draw(st.sampled_from([valid] * 7 + [invalid]))


@st.composite
def twin_runs(draw):
    """Runs from the box the twin contract must hold on, straddling the
    edges of validity: every draw is either rejected by ``validate`` or
    runs to its end in both engines, which then agree."""
    n0 = draw(st.integers(2, 9))
    n_max = max(3, n0 + _sometimes(draw, draw(st.integers(1, 8)), 0))
    dt = draw(st.sampled_from([1e-3, 0.01, 0.05]))
    # a drift of 2e4 moves a cap by e**20 in a step of 1e-3: caps overflow
    # or underflow, and long-only wealth falls to 0.0
    g = _sometimes(draw, 3.0, 2e4)
    params = ModelParams(
        drift=_table(draw, n_max, -g, g, (_sometimes(draw, 0.0, -0.5), 3.0)),
        vol=_table(draw, n_max, 0.05, 4.0, (-1.0, 3.0)),
        delta=draw(st.floats(0.001, _sometimes(draw, 1 / 6 - 1e-9, 0.2))),
        eps0=draw(st.floats(0.001, 0.5)),
        split_dist=draw(st.sampled_from([
            SplitDist("uniform"), SplitDist("point"), SplitDist("beta", 2.0, 5.0),
            SplitDist("beta", 0.3, 0.3), SplitDist("beta", 40.0, 1.0),
        ])),
        clock_c=draw(st.sampled_from([0.0, 0.5, 3.0, 40.0])),
        clock_alpha=draw(st.floats(0.2, 3.0)),
        n_max=n_max,
        dt=dt,
        theta_mode=draw(st.sampled_from(["martingale", "growth"])),
    )
    caps = draw(st.lists(st.floats(0.1, 10.0), min_size=n0, max_size=n0))
    top = draw(st.sampled_from(["any", "dominant", "near-threshold"]))
    if top != "any":
        # caps[0] at a top weight of 1 - delta, a few ulp off it, or far
        # above it, where the market splits at entry
        rest = 0.0
        for x in caps[1:]:
            rest += x
        x = (1.0 - params.delta) * rest / params.delta
        if top == "dominant":
            x *= draw(st.floats(1.0, 20.0))
        toward = draw(st.sampled_from([0.0, np.inf]))
        for _ in range(draw(st.integers(0, 4))):
            x = np.nextafter(x, toward)
        caps[0] = float(x)
    kinds = draw(st.lists(
        st.sampled_from(["cash", "market", "equal", "rank", "name"]), max_size=4
    ))
    # a `rank k` or `name k` target must exist at the start
    top_k = _sometimes(draw, n0 - 1, n0 + 1)
    rules = tuple(
        PortfolioRule(kind, draw(st.integers(0, top_k)))
        if kind in ("rank", "name") else PortfolioRule(kind)
        for kind in kinds
    )
    col = st.integers(0, _sometimes(draw, len(rules) - 1, len(rules)))
    cols = draw(st.none() | st.tuples(col, col)) if rules else None
    steps = draw(st.integers(1, 40))
    return EngineRun(
        params=params, initial_caps=np.array(caps),
        horizon=steps * dt * _sometimes(draw, 1.0, 1.5),
        n_paths=draw(st.integers(1, 4)),
        seed=_sometimes(draw, draw(st.integers(0, 2**64 - 1)), 2**64),
        rules=rules, stride=draw(st.integers(0, 12)), series_cols=cols,
        collect_events=draw(st.booleans()),
    )


class TestValidation:
    @settings(max_examples=200, deadline=None)
    @given(twin_runs())
    def test_fuzzed_invalid_run_rejected_by_both_engines(self, run):
        assume(run.validate() != [])
        with pytest.raises(ValueError):
            run_paths(run)
        with pytest.raises(ValueError):
            reference_path(
                run.params, run.initial_caps, run.horizon, run.seed, 0,
                rules=run.rules, stride=run.stride, series_cols=run.series_cols,
            )

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
            ({"seed": 2**64}, f"[run]\nseed = {2**64}\n",
             "seed must be below 2**64"),
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
            "stride-negative", "seed-negative", "seed-past-64-bits",
            "cap-negative", "caps-at-n_max", "name-7-of-3",
            "series_cols-outside-rules", "clock-rate-overflow",
            "override-row-short",
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
        with pytest.raises(ValueError, match=re.escape(problem)):
            run_paths(run)
        # reference_path takes every field but workers
        if "workers" not in fields:
            with pytest.raises(ValueError, match=re.escape(problem)):
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestTwinFuzz:
    """On every valid run the engines agree, and the instrumentation stays
    inside its bounds: the total cap moves by at most 4 ulp at an event,
    a transfer keeps each rule's weights to 1e-15, and no top weight after
    a boundary reaches 1 - delta.  A cap or total out of range ends its
    path by status code, without a numpy warning."""

    def _check(self, run):
        assume(run.validate() == [])
        res = twin_run(run)
        assert res.instr.max_conservation <= 4.0
        assert res.instr.max_transfer <= 1e-15
        assert res.instr.max_sample_weight <= 1.0 - run.params.delta

    @settings(max_examples=200, deadline=None)
    @given(twin_runs())
    # caps that underflow to 0.0, e**-10 a step (status 2)
    @example(EngineRun(
        params=make_params(drift=RankTable(-1000.0, 0.0), vol=RankTable(3.0, 0.0),
                           clock_c=0.0, dt=0.01),
        initial_caps=np.ones(3), horizon=1.0, n_paths=3, seed=5, rules=RULES,
        stride=10, series_cols=(0, 1), collect_events=True,
    ))
    # a cap that overflows (status 2)
    @example(EngineRun(
        params=make_params(drift=RankTable(0.0, 500.0), dt=1.0),
        initial_caps=np.array([1e300, 1.0]), horizon=5.0, n_paths=2, seed=2,
        rules=RULES, stride=1, series_cols=(0, 1), collect_events=True,
    ))
    # the total overflows while every cap is finite (status 2)
    @example(EngineRun(
        params=make_params(drift=RankTable(11778.0, 0.0), vol=RankTable(3.0, 0.0),
                           delta=0.125, eps0=0.25, clock_c=0.0, n_max=5, dt=0.01),
        initial_caps=np.array([1.0, 5.0, 1.0, 2.0]), horizon=0.06, n_paths=2,
        seed=1, rules=RULES, stride=1, series_cols=(0, 1), collect_events=True,
    ))
    # a long-only rule's wealth falls to 0.0 (status 3)
    @example(EngineRun(
        params=make_params(drift=RankTable(-40.0, 0.0), eps0=0.3, clock_c=0.0,
                           dt=1.0),
        initial_caps=np.ones(3), horizon=2.0, n_paths=3, seed=5,
        rules=(PortfolioRule("rank", 0),), stride=1, series_cols=(0, 0),
        collect_events=True,
    ))
    # the first split reaches n_max (status 1)
    @example(EngineRun(
        params=make_params(n_max=4, clock_c=0.0),
        initial_caps=np.array([50.0, 1.0, 1.0]), horizon=0.1, n_paths=3, seed=1,
        rules=RULES, stride=10, series_cols=(0, 1), collect_events=True,
    ))
    # no clock: only splits
    @example(EngineRun(
        params=make_params(clock_c=0.0),
        initial_caps=np.array([14.0, 0.5, 0.5, 0.5]), horizon=0.2, n_paths=4,
        seed=9, rules=RULES, stride=20, series_cols=(1, 2), collect_events=True,
    ))
    # a block of one path in ten slots or more
    @example(EngineRun(
        params=SPLIT_PRONE, initial_caps=np.array([40.0] + [1.0] * 9),
        horizon=0.1, n_paths=1, seed=21, rules=RULES, stride=10,
        series_cols=(0, 1), collect_events=True,
    ))
    # every path merges below the count a `rank 4` rule targets
    @example(EngineRun(
        params=make_params(clock_c=20.0), initial_caps=np.ones(6), horizon=0.3,
        n_paths=3, seed=3,
        rules=(PortfolioRule("market"), PortfolioRule("rank", 4),
               PortfolioRule("name", 4)),
        stride=30, series_cols=(0, 1), collect_events=True,
    ))
    @example(HAIR_BELOW)
    def test_engines_agree(self, run):
        self._check(run)

    @pytest.mark.slow
    @settings(max_examples=2000, deadline=None)
    @given(twin_runs())
    def test_engines_agree_at_length(self, run):
        self._check(run)

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from splitmerge.engine import StepTables
from splitmerge.events import (
    EventRecord,
    apply_merger,
    apply_split,
    clock_rate,
    detect_split,
    draw_split_fraction,
    merger_suppressed,
    pair_count,
    sample_merger_pair,
    split_children,
)
from splitmerge.params import ModelParams, RankTable, SplitDist


def make_params(**kw):
    base = dict(drift=RankTable(0.0, 0.0), vol=RankTable(1.0, 0.0))
    base.update(kw)
    return ModelParams(**base)


class TestClockRate:
    def test_two_companies_never_ring(self):
        p = make_params(clock_c=9.0, clock_alpha=3.0)
        assert clock_rate(2, p) == 0.0

    def test_power_form(self):
        p = make_params(clock_c=1.0, clock_alpha=2.0)
        assert clock_rate(10, p) == 100.0

    def test_zero_constant_disables_mergers(self):
        p = make_params(clock_c=0.0)
        assert all(clock_rate(n, p) == 0.0 for n in range(2, 10))

    def test_zero_constant_is_silent_where_the_power_overflows(self):
        # valid, since a silent clock leaves alpha free; 4**512 is no float
        p = make_params(clock_c=0.0, clock_alpha=512.0, n_max=8)
        assert p.validate() == []
        assert all(clock_rate(n, p) == 0.0 for n in range(2, 9))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            clock_rate(1, make_params())

    def test_ring_probability(self):
        # the engines ring when a step's uniform falls below pstep[N]
        p = make_params(clock_c=1.0, clock_alpha=1.0, dt=1e-3)
        pstep = StepTables.build(p).pstep
        assert pstep[3] == pytest.approx(-math.expm1(-3e-3))
        assert pstep[2] == 0.0


class TestDetectSplit:
    def test_above_threshold(self):
        assert detect_split([0.92, 0.05, 0.03], 0.1) == 0

    def test_below_threshold(self):
        assert detect_split([0.6, 0.4], 0.1) is None

    def test_boundary_counts(self):
        assert detect_split([0.90, 0.10], 0.1) == 0

    def test_non_top_position(self):
        assert detect_split([0.04, 0.93, 0.03], 0.1) == 1


class TestSplit:
    def test_children_sum_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            cap = float(rng.uniform(0.01, 100.0))
            xi = float(rng.uniform(0.5, 0.7))
            a, b = split_children(cap, xi)
            assert a + b == cap  # exact: b is the representable remainder
            assert a >= b > 0.0

    def test_renaming_example(self):
        # position 2 (1-based) of (2, 5, 3) splits with xi = 0.6:
        # survivors keep order, children go to the end
        out = apply_split([2.0, 5.0, 3.0], 1, 0.6)
        assert out == [2.0, 3.0, 3.0, 2.0]

    def test_symmetric_split_of_first(self):
        out = apply_split([6.0, 4.0], 0, 0.5)
        assert out == [4.0, 3.0, 3.0]

    def test_multiset_property(self):
        rng = np.random.default_rng(1)
        caps = rng.uniform(1.0, 5.0, size=6).tolist()
        i = 3
        xi = 0.55
        out = apply_split(caps, i, xi)
        a, b = split_children(caps[i], xi)
        expect = sorted(caps[:i] + caps[i + 1 :] + [a, b])
        assert sorted(out) == expect

    def test_fraction_draw_in_support(self):
        p = make_params(eps0=0.3, split_dist=SplitDist("uniform"))
        rng = np.random.default_rng(2)
        xs = [draw_split_fraction(p, rng) for _ in range(500)]
        assert all(0.5 <= x <= 0.7 for x in xs)


class TestMergerPair:
    def test_single_choice(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            i, j = sample_merger_pair([5.0, 1.0, 2.0], rng)
            assert (i, j) == (1, 2)

    def test_tie_excludes_lowest_index(self):
        # caps (5, 5, 1, 1): the first 5 is the top by the tie rule,
        # pairs are uniform over the remaining three subsets
        rng = np.random.default_rng(3)
        counts = {(1, 2): 0, (1, 3): 0, (2, 3): 0}
        n = 30_000
        for _ in range(n):
            pair = sample_merger_pair([5.0, 5.0, 1.0, 1.0], rng)
            counts[pair] += 1
        for k, c in counts.items():
            se = math.sqrt((1 / 3) * (2 / 3) / n)
            assert abs(c / n - 1 / 3) <= 4 * se, (k, c / n)

    def test_pair_count(self):
        assert pair_count(3) == 1
        assert pair_count(6) == 10

    def test_rejects_two_companies(self):
        with pytest.raises(ValueError):
            sample_merger_pair([1.0, 2.0], np.random.default_rng(0))

    def test_all_pairs_reachable_and_exclude_top(self):
        rng = np.random.default_rng(4)
        caps = [1.0, 9.0, 2.0, 3.0, 4.0]
        seen = set()
        for _ in range(2000):
            i, j = sample_merger_pair(caps, rng)
            assert i < j
            assert 1 not in (i, j)  # index of the largest cap
            seen.add((i, j))
        assert len(seen) == pair_count(5)


class _Draw:
    """A generator whose integer draw returns ``r``, recording each bound."""

    def __init__(self, r):
        self.r = r
        self.bounds = []

    def integers(self, high):
        self.bounds.append(high)
        return np.int64(self.r)


class TestPairUnranking:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_every_rank_gives_the_eligible_list_pair(self, n):
        for top in range(n):
            caps = [1.0] * n
            caps[top] = 2.0
            # the oracle: the eligible companies, their pairs in
            # lexicographic order, the r-th of them
            eligible = [k for k in range(n) if k != top]
            pairs = list(itertools.combinations(eligible, 2))
            assert len(pairs) == pair_count(n)
            for r, want in enumerate(pairs):
                draw = _Draw(r)
                assert sample_merger_pair(caps, draw) == want
                assert draw.bounds == [pair_count(n)]

    def test_rank_past_the_last_pair_is_an_error(self):
        with pytest.raises(AssertionError):
            sample_merger_pair([2.0, 1.0, 1.0, 1.0], _Draw(pair_count(4)))


class TestSuppression:
    def test_two_companies_always_suppressed(self):
        # combined weight is 1, above any threshold
        assert merger_suppressed([0.75, 0.25], 0, 1, 0.1)

    def test_small_pair_not_suppressed(self):
        w = [0.5, 0.3, 0.2]
        assert not merger_suppressed(w, 1, 2, 0.1)

    def test_sampled_pairs_never_suppressed_under_delta_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            caps = rng.uniform(0.1, 10.0, size=int(rng.integers(3, 9)))
            w = (caps / caps.sum()).tolist()
            i, j = sample_merger_pair(caps.tolist(), rng)
            assert not merger_suppressed(w, i, j, 0.16)


class TestMerger:
    def test_renaming_example(self):
        # positions 2 and 4 (1-based) of (a, b, c, d, e) merge
        out = apply_merger([1.0, 2.0, 3.0, 4.0, 5.0], 1, 3)
        assert out == [1.0, 3.0, 5.0, 6.0]

    def test_three_to_two(self):
        out = apply_merger([1.0, 2.0, 3.0], 0, 1)
        assert out == [3.0, 3.0]

    def test_conservation(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            caps = rng.uniform(0.1, 10.0, size=7).tolist()
            out = apply_merger(caps, 2, 5)
            assert abs(math.fsum(out) - math.fsum(caps)) <= 4 * np.spacing(
                math.fsum(caps)
            )

    def test_split_then_merge_children_restores_multiset(self):
        caps = [2.0, 5.0, 3.0]
        after = apply_split(caps, 1, 0.6)  # children at positions 3, 4
        # merging the two children forms a company with the parent's cap
        back = apply_merger(after, 2, 3)
        assert sorted(back) == sorted(caps)


class TestEventRecord:
    def test_json_line(self):
        rec = EventRecord(
            path=3, t=0.25, kind="split", i=2, j=None, xi=0.6,
            n_before=3, n_after=4,
        )
        obj = json.loads(rec.to_json())
        assert obj == {
            "path": 3, "t": 0.25, "kind": "split", "i": 2, "j": None,
            "xi": 0.6, "n_before": 3, "n_after": 4,
        }

    def test_json_coerces_numpy_scalars(self):
        rec = EventRecord(
            path=np.int64(1), t=np.float64(0.5), kind="merger",
            i=np.int64(2), j=np.int64(3), xi=None,
            n_before=np.int64(4), n_after=np.int64(3),
        )
        obj = json.loads(rec.to_json())
        assert obj["j"] == 3 and obj["xi"] is None


# floats in every form repr gives: fixed and exponent notation (below
# 1e-4, at or above 1e16), subnormals, signed zeros
JSON_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-4, max_value=1e-4),
    st.floats(min_value=1e16, max_value=1e300),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
)
COUNTS = st.integers(0, 2**62)


@st.composite
def records(draw, floats=JSON_FLOATS):
    return EventRecord(
        path=draw(COUNTS), t=draw(floats),
        kind=draw(st.sampled_from(["split", "merger", "suppressed_merger"])),
        i=draw(COUNTS),
        j=draw(st.none() | COUNTS), xi=draw(st.none() | floats),
        n_before=draw(COUNTS), n_after=draw(COUNTS),
    )


class TestEncoder:
    """to_json writes json.dumps's bytes for the record's fields."""

    @given(records())
    @example(EventRecord(2**62, 1e-05, "split", 1, None, 5e-324, 3, 4))
    @example(EventRecord(0, 1e16, "suppressed_merger", 2, 3, None, 3, 3))
    @example(EventRecord(7, -0.0, "merger", 1, 2, None, 3, 2))
    def test_matches_json_dumps(self, rec):
        assert rec.to_json() == json.dumps(rec._asdict())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_or_xi_is_refused(self, bad):
        for rec in (EventRecord(1, bad, "merger", 1, 2, None, 3, 2),
                    EventRecord(1, 0.5, "split", 1, None, bad, 3, 4)):
            with pytest.raises(ValueError, match="finite"):
                rec.to_json()

"""Acceptance gate: the ten headline checks at full scale.

The rows are those of ``verify_all(seed=11)`` at scale 1 and one
worker, so this suite and ``splitmerge verify`` run the same plan: the
four checks that read the shared run take their rows from one
``verify_all`` call, and each other check has a call of its own, so a
crash fails only its own test.  Each test prints its row (one PASS/FAIL
line with the measured numbers) and then asserts it.  Full scale means
1e4 paths for the shared run and 1e5 for most statistical checks, so
this file dominates the suite's runtime (several minutes).
"""

import pytest

from splitmerge.harness import SHARED_CHECKS, verify_all

pytestmark = pytest.mark.slow

SEED = 11


@pytest.fixture(scope="module")
def shared_rows():
    return {row.name: row for row in verify_all(seed=SEED, checks=SHARED_CHECKS).rows}


def show(name, rows=None):
    """Print the row of check ``name`` and assert that it passed; a
    check that does not read the shared run is run here on its own."""
    row = rows[name] if rows else verify_all(seed=SEED, checks=(name,)).rows[0]
    print(row.render())
    assert row.name == name
    assert row.passed, row.detail


def test_c01_diversity_holds_with_bounded_overshoot(shared_rows):
    show("diversity", shared_rows)


def test_c02_capital_and_weight_conservation(shared_rows):
    show("conservation", shared_rows)


def test_c03_no_merger_is_ever_suppressed(shared_rows):
    show("suppression", shared_rows)


def test_c04_market_portfolio_tracks_total_cap(shared_rows):
    show("market-identity", shared_rows)


def test_c05_split_before_clock_bound_on_grid():
    show("split-race")


def test_c06_reflected_bm_formula_vs_oracle():
    show("rbm-oracle")


def test_c07_consecutive_split_frequency_bounded():
    show("double-jump")


def test_c08_company_count_tail_steepens():
    show("tail-monotone")


def test_c09_change_of_measure_prices_every_rule():
    show("martingale")


def test_c10_worker_count_cannot_change_output():
    show("workers")

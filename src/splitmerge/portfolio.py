"""Portfolio rules and wealth updates.

A rule maps the caps X_1..X_N to per-company investment proportions pi_1..pi_N
(bounded by K_pi); pi_0 = 1 - sum(pi) sits in a zero-interest money market.
Between events wealth compounds discretely with realized cap returns,

    V' = V * (1 + sum_i pi_i * r_i),      r_i = X_i(t+dt)/X_i(t) - 1,

which makes the market portfolio identity V^mu = C(t)/C(0) telescope exactly
up to rounding. Wealth never jumps at an event; instead the departing
company's allocation moves to its successors. Rules (A) and (B) are the
event renames of the caps, :func:`~splitmerge.events.apply_merger` and
:func:`~splitmerge.events.apply_split`, applied to the weights:

  merger (A): ``apply_merger(pi, i, j)``; the merged company inherits
              pi_i + pi_j;
  split (B):  ``apply_split(pi, i, X_child/X_i)``; the first child
              inherits pi_i scaled by its share of the parent cap, the
              second the exact remainder, so the total allocation is
              conserved to the last bit.

Rank-based rules inherit the lexicographic tie-breaking of the ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import market_weights

__all__ = [
    "PortfolioRule",
    "WealthError",
    "RULE_KINDS",
    "wealth_step",
]

RULE_KINDS = ("cash", "market", "equal", "rank", "name")


class WealthError(RuntimeError):
    """Wealth hit zero or below: dt too coarse for the leverage used."""


@dataclass(frozen=True)
class PortfolioRule:
    """A named bounded portfolio rule.

    kind "cash" holds only the money market; "market" holds mu; "equal" puts
    1/N in every company; "rank" concentrates on the company at 0-based rank
    ``k``; "name" on fixed company position ``k`` (only meaningful while no
    event renumbers positions).
    """

    kind: str
    k: int = 0

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown portfolio rule kind {self.kind!r}")
        if self.k < 0:
            raise ValueError(f"rule target must be >= 0, got {self.k}")

    @property
    def name(self) -> str:
        if self.kind == "rank":
            return f"rank-{self.k + 1}"
        if self.kind == "name":
            return f"name-{self.k + 1}"
        return self.kind

    def weights(self, caps: Sequence[float]) -> list[float]:
        n = len(caps)
        if self.kind == "cash":
            return [0.0] * n
        if self.kind == "market":
            return market_weights(caps)
        if self.kind == "equal":
            return [1.0 / n] * n
        pi = [0.0] * n
        if self.k >= n:
            # the targeted rank or company no longer exists (the market
            # shrank through mergers); hold the money market instead
            return pi
        if self.kind == "rank":
            # a reverse sort keeps ties in index order, as the engines'
            # stable argsort of -caps does
            order = sorted(range(n), key=caps.__getitem__, reverse=True)
            pi[order[self.k]] = 1.0
        else:
            pi[self.k] = 1.0
        return pi


def wealth_step(v: float, pi: np.ndarray, returns: np.ndarray) -> float:
    """V' = V * (1 + sum pi_i r_i); raises WealthError if V' <= 0."""
    acc = np.float64(0.0)
    for k in range(pi.shape[0]):
        acc = acc + pi[k] * returns[k]
    out = v * (1.0 + acc)
    if not out > 0.0:
        raise WealthError(
            f"wealth {out:g} <= 0 after step return {float(acc):g}; "
            "the time step is too coarse for this rule's leverage"
        )
    return float(out)


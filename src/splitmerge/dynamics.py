"""Ranked-coefficient Euler-Maruyama dynamics between events.

Ranks are frozen at the start of each step: coefficients are evaluated at the
step-start ranking and held for the whole step (weak error O(dt), standard
for rank-based diffusions). Ties rank the lower index better.

``euler_step`` is the scalar step of the reference engine.  The batch
engine and the split-race probe use the one vectorized step,
:func:`splitmerge.engine.rank_step`.  The two stay separate on purpose:
the twin tests hold the vectorized step against this one, which they
could not do if both ran the same code.

All reductions over companies here and in the engine run left to right
in company order.  Here they are explicit loops; the batch engine holds
caps company-major, ``(slots, paths)``, and reduces over axis 0, which
numpy does row by row and hence in the same order, with an explicit loop
for a single path, where numpy would sum pairwise.  See
:mod:`splitmerge.engine` for the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .params import ModelParams

__all__ = [
    "MarketState",
    "assign_ranks",
    "total_cap",
    "market_weights",
    "euler_step",
]


@dataclass(frozen=True)
class MarketState:
    """Time t and the strictly positive capitalization vector X_1..X_N.

    ``caps`` is an array for :func:`euler_step` and :meth:`check`, and a
    list of Python floats where events are resolved.
    """

    t: float
    caps: Sequence[float] | np.ndarray

    @property
    def n(self) -> int:
        return len(self.caps)

    def check(self) -> "MarketState":
        if self.caps.ndim != 1 or self.n < 2:
            raise ValueError("market needs a 1-d cap vector with N >= 2")
        if not np.all(np.isfinite(self.caps)) or not np.all(self.caps > 0):
            raise ValueError("caps must be finite and strictly positive")
        return self


def assign_ranks(caps: np.ndarray) -> np.ndarray:
    """0-based rank of each company by descending cap (rank 0 = largest),
    ties in favor of the lower index."""
    rti = np.argsort(-np.asarray(caps), kind="stable")
    itr = np.empty_like(rti)
    itr[rti] = np.arange(rti.shape[0])
    return itr


def total_cap(caps: Sequence[float]) -> float:
    """Left-to-right sum of caps (bit-stable reduction order).

    An explicit loop from 0.0: the built-in ``sum()`` of Python 3.12 and
    later compensates rounding, which would change the bits.
    """
    acc = 0.0
    for x in caps:
        acc = acc + x
    return acc


def market_weights(caps: Sequence[float]) -> list[float]:
    """mu_i = X_i / sum_j X_j."""
    c = total_cap(caps)
    return [x / c for x in caps]


def euler_step(
    state: MarketState,
    params: ModelParams,
    noise: np.ndarray,
) -> MarketState:
    """One frozen-rank update of all log-caps; N and ranks inputs unchanged.

    ``noise`` must hold state.n independent standard normals. Raises on cap
    overflow (the engine turns that into a per-path error).
    """
    n = state.n
    if noise.shape != (n,):
        raise ValueError(f"noise must have shape ({n},)")
    h = params.dt
    ranks = assign_ranks(state.caps)
    g = params.drift.row(n)[ranks]
    s = params.vol.row(n)[ranks]
    with np.errstate(over="ignore"):
        caps = state.caps * np.exp(g * h + s * np.sqrt(h) * noise)
    if not np.all(np.isfinite(caps)) or not np.all(caps > 0.0):
        raise OverflowError("capitalization left the representable range")
    return MarketState(t=state.t + h, caps=caps)

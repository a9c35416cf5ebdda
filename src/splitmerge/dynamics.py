"""Ranked-coefficient Euler-Maruyama dynamics between events.

Ranks are frozen at the start of each step: coefficients are evaluated at the
step-start ranking and held for the whole step (weak error O(dt), standard
for rank-based diffusions). Ties rank the lower index better.

``euler_step`` is the scalar step of the reference engine.  The batch
engine and the split-race probe use the one vectorized step,
:func:`splitmerge.engine.rank_step`.  The two stay separate on purpose:
the twin tests hold the vectorized step against this one, which they
could not do if both ran the same code.

A market is its cap vector X_1..X_N and nothing else: every function
here takes ``caps`` directly, an array for :func:`euler_step`, a list
of Python floats where events are resolved.  A market from outside the
program is checked once, with the rest of its run, by
:meth:`splitmerge.engine.EngineRun.validate`.

All reductions over companies run left to right in company order, here
by explicit loops; :mod:`splitmerge.engine` states the contract.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .params import ModelParams

__all__ = [
    "assign_ranks",
    "total_cap",
    "market_weights",
    "euler_step",
]


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
    caps: np.ndarray,
    params: ModelParams,
    noise: np.ndarray,
) -> np.ndarray:
    """One frozen-rank update of the cap array; returns the new caps.

    ``noise`` must hold len(caps) independent standard normals. Raises on
    cap overflow (the engine turns that into a per-path error).
    """
    n = len(caps)
    if noise.shape != (n,):
        raise ValueError(f"noise must have shape ({n},)")
    h = params.dt
    ranks = assign_ranks(caps)
    g = params.drift.row(n)[ranks]
    s = params.vol.row(n)[ranks]
    with np.errstate(over="ignore"):
        new_caps = caps * np.exp(g * h + s * np.sqrt(h) * noise)
    if not np.all(np.isfinite(new_caps)) or not np.all(new_caps > 0.0):
        raise OverflowError("capitalization left the representable range")
    return new_caps

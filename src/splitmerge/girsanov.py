"""Pathwise change-of-measure density as an importance weight.

Along each path the engine accumulates

    M(t)  = sum over steps of sum_i theta(N, k_i) sqrt(dt) z_i,
    <M>(t) = sum over steps of sum_i theta(N, k_i)^2 dt,
    Z(t)  = exp(-M(t) - <M>(t)/2),

driven by the identical Gaussian increments as the cap dynamics. Z is kept in
log space. Two choices of the per-rank market price of risk are supported:

    theta_mode = "growth":      theta = g / sigma
        removes the drift of log X under the new measure;
    theta_mode = "martingale":  theta = (g + sigma^2/2) / sigma   (default)
        removes the drift of dX/X, making discounted wealth a martingale.

In discrete time the martingale mode is exact per step:
E[exp(-theta z sqrt(dt) - theta^2 dt / 2) * (1 + r_i)] = 1 for every rank
table, which is why the no-arbitrage check E[Z(T) V^pi(T)] = 1 holds to Monte
Carlo noise. The growth mode leaves a sigma^2/2 return drift; the single-name
check then converges to e^{sigma^2 T / 2} instead of 1, which is the deciding
diagnostic between the two (both are reported by the harness).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import assign_ranks
from .params import ModelParams

__all__ = [
    "theta_row",
    "GirsanovState",
    "accumulate",
]


def theta_row(params: ModelParams, n: int) -> np.ndarray:
    """theta in ``params.theta_mode`` for ranks 1..n (index 0 = rank 1)."""
    g = params.drift.row(n)
    s = params.vol.row(n)
    if np.any(s == 0.0):
        raise ValueError("theta undefined at sigma = 0")
    m = params.theta_mode
    if m == "growth":
        return g / s
    if m == "martingale":
        return (g + 0.5 * s * s) / s
    raise ValueError(f"unknown theta mode {m!r}")


@dataclass(frozen=True)
class GirsanovState:
    """Running stochastic integral M, quadratic variation <M>, and the
    density Z = exp(-M - <M>/2) (exposed from log space)."""

    m: float = 0.0
    qv: float = 0.0

    @property
    def log_z(self) -> float:
        return -self.m - 0.5 * self.qv


def accumulate(
    gs: GirsanovState,
    caps: np.ndarray,
    params: ModelParams,
    noise: np.ndarray,
) -> GirsanovState:
    """Advance the density by one step driven by the same noise vector that
    euler_step consumes on the same pre-step ``caps``, which set the ranks."""
    n = len(caps)
    h = params.dt
    ranks = assign_ranks(caps)
    th = theta_row(params, n)
    ths = th[ranks] * np.sqrt(h)
    th2 = (th * th) * h
    dm = np.float64(0.0)
    for k in range(n):
        dm = dm + ths[k] * noise[k]
    # the QV increment is rank-symmetric; summed in rank order
    dq = np.float64(0.0)
    for k in range(n):
        dq = dq + th2[k]
    return GirsanovState(m=float(gs.m + dm), qv=float(gs.qv + dq))

#!/usr/bin/env python3
"""Replay one path event by event with the scalar reference engine.

Useful for getting a feel for the dynamics: splits land exactly when
the top weight touches 1 - delta, mergers arrive at the clock rate
c * N^alpha, and total capitalization never jumps.
"""

import numpy as np

from splitmerge import ModelParams, RankTable, reference_path

params = ModelParams(
    drift=RankTable(0.0, 0.0),
    vol=RankTable(1.0, 0.0),
    delta=0.1,
    eps0=4.0 / 9.0,
    clock_c=2.0,
    clock_alpha=1.0,
    dt=1e-3,
)

out = reference_path(
    params,
    initial_caps=np.array([14.0, 0.5, 0.5, 0.5]),
    horizon=2.0,
    seed=11,
    path=2,
)

print("t        event               N   detail")
for rec in out["events"]:
    if rec.kind == "split":
        detail = f"company {rec.i} splits, xi = {rec.xi:.3f}"
    elif rec.kind == "merger":
        detail = f"companies {rec.i} and {rec.j} merge"
    else:
        detail = f"merger of {rec.i}, {rec.j} suppressed"
    print(f"{rec.t:<8.3f} {rec.kind:<18}  {rec.n_after:<3} {detail}")

caps = np.sort(out["caps"])[::-1]
print(f"\nstatus {out['status']}, final N = {out['n']}, "
      f"peak N = {out['max_n']}")
print(f"final weights: {np.round(caps / caps.sum(), 4)}")
print(f"density Z(T) = exp({out['log_z']:.4f}) = {np.exp(out['log_z']):.4f}")

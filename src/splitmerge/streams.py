"""Deterministic per-path random streams.

Every path owns independent counter-based streams derived only from
(seed, path index), so results are reproducible for any worker count and
adding paths never perturbs existing ones. Streams are numpy Philox
generators keyed directly:

    key = [seed, path * 4 + stream_id]   (two 64-bit words)

Stream ids:
    0  SDE noise: N standard normals per diffusion step
    1  clock: exactly one uniform per diffusion step
    2  event draws: split fractions and merger pairs, on demand
    3  auxiliary probes (closed-form estimators keep out of 0-2)

Bulk draws from a numpy Generator equal sequential draws bit-for-bit, so a
prefetched buffer read in order is indistinguishable from drawing one value
at a time; the engine relies on this.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ALGORITHM_ID",
    "NOISE",
    "CLOCK",
    "EVENTS",
    "PROBE",
    "path_key",
    "path_generator",
]

ALGORITHM_ID = "numpy.random.Philox key=[seed, path*4+stream]"

NOISE, CLOCK, EVENTS, PROBE = 0, 1, 2, 3
_MAX_PATH = 1 << 62


def path_key(seed: int, path: int, stream: int) -> np.ndarray:
    if not 0 <= stream < 4:
        raise ValueError(f"stream id must be in 0..3, got {stream}")
    if not 0 <= path < _MAX_PATH:
        raise ValueError(f"path index out of range: {path}")
    if not 0 <= seed < (1 << 64):
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return np.array([seed, (path << 2) | stream], dtype=np.uint64)


def path_generator(seed: int, path: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=path_key(seed, path, stream)))

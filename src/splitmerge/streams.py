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

No OS entropy is drawn: ``Philox(key=...)`` would build and discard an
OS-entropy ``SeedSequence()``, so the key is passed as a seed sequence.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "ALGORITHM_ID",
    "NOISE",
    "CLOCK",
    "EVENTS",
    "PROBE",
    "SEED_LIMIT",
    "path_key",
    "path_generator",
]

ALGORITHM_ID = "numpy.random.Philox key=[seed, path*4+stream]"

NOISE, CLOCK, EVENTS, PROBE = 0, 1, 2, 3
_MAX_PATH = 1 << 62
# a seed is one 64-bit key word: every seed lies in 0 .. SEED_LIMIT - 1
SEED_LIMIT = 1 << 64


def path_key(seed: int, path: int, stream: int) -> np.ndarray:
    if not 0 <= stream < 4:
        raise ValueError(f"stream id must be in 0..3, got {stream}")
    if not 0 <= path < _MAX_PATH:
        raise ValueError(f"path index out of range: {path}")
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return np.array([seed, (path << 2) | stream], dtype=np.uint64)


@functools.cache
def _key_sequence() -> type:
    """The class of a seed sequence whose one state is a Philox key, made
    on first use: numpy loads ``numpy.random`` lazily, and a module-level
    subclass would add that import to every import of this package."""
    from numpy.random.bit_generator import ISeedSequence

    class KeySequence(ISeedSequence):
        def __init__(self, key: np.ndarray) -> None:
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a path key is 2 uint64 words, not {n_words}")
            return self.key

    return KeySequence


def path_generator(seed: int, path: int, stream: int) -> np.random.Generator:
    key = _key_sequence()(path_key(seed, path, stream))
    return np.random.Generator(np.random.Philox(key))

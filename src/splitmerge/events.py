"""Split and merger events: detection, sampling, renaming, suppression.

Renaming keeps the written 1-based position semantics: a split at position i
removes that company and appends its two children at positions N and N+1
(sizes xi*X_i and the exact remainder X_i - xi*X_i); a merger of i < j
removes both and appends their sum at position N-1. Positions between shift
left to close the gaps. Indices here are 0-based; the event log serializes
1-based positions.

The helpers take sequences of Python floats (lists, in the engines) and
return lists: a boundary touches a handful of companies, where a numpy
call on so small an array costs more than the arithmetic.

The exact-remainder child makes total capitalization conservation exact: with
xi in [1/2, 1-eps0] the subtraction X_i - xi*X_i is exact (Sterbenz), so the
multiset sum is preserved to the last bit for splits and to one rounding of
X_i + X_j for mergers.

The merger clock of rate lambda_N is realized per step: the engine draws one
uniform per diffusion step and rings when u < 1 - exp(-lambda_N dt). Because
the exponential law is memoryless, this equals redrawing an exponential
holding time after every event.

An :class:`EventRecord` is an immutable named tuple.  Its ``to_json``
formats the ``events.jsonl`` line directly and writes byte for byte what
``json.dumps`` writes for the record's fields.  A non-finite ``t`` or
``xi``, which no engine event carries and which JSON cannot spell, is a
``ValueError``.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .params import ModelParams

__all__ = [
    "EventRecord",
    "clock_rate",
    "detect_split",
    "draw_split_fraction",
    "apply_split",
    "split_children",
    "sample_merger_pair",
    "pair_count",
    "merger_suppressed",
    "apply_merger",
]


def clock_rate(n: int, params: ModelParams) -> float:
    """Merger clock rate lambda_N: 0 for N = 2, c * N**alpha for N >= 3."""
    if n < 2:
        raise ValueError(f"no market with fewer than 2 companies, got N={n}")
    if n == 2 or params.clock_c == 0.0:
        # a silent clock is silent at any alpha, even where N**alpha overflows
        return 0.0
    return params.clock_c * float(n) ** params.clock_alpha


class EventRecord(NamedTuple):
    """One composition change. Positions i, j are 1-based; xi is None for
    mergers, j is None for splits."""

    path: int
    t: float
    kind: str  # "split" | "merger" | "suppressed_merger"
    i: int
    j: int | None
    xi: float | None
    n_before: int
    n_after: int

    def to_json(self) -> str:
        """The record as one JSON object, byte for byte what ``json.dumps``
        gives for its fields (numpy scalars coerced, so the encoding never
        depends on the caller)."""
        path, t, kind, i, j, xi, n_before, n_after = self
        t = float(t)
        if xi is not None:
            xi = float(xi)
        if not (math.isfinite(t) and (xi is None or math.isfinite(xi))):
            raise ValueError(f"event times and fractions must be finite: {self}")
        # json.dumps writes a finite float as its repr and an int as its
        # decimal digits
        return (
            f'{{"path": {int(path)}, "t": {t!r}, "kind": "{kind}", '
            f'"i": {int(i)}, "j": {"null" if j is None else int(j)}, '
            f'"xi": {"null" if xi is None else repr(xi)}, '
            f'"n_before": {int(n_before)}, "n_after": {int(n_after)}}}'
        )


def detect_split(weights: Sequence[float], delta: float) -> int | None:
    """0-based index of the (unique) company with mu_i >= 1 - delta, if any.

    At most one index can qualify since 1 - delta > 1/2. Detection is
    post-step first crossing, so the weight may overshoot by O(sqrt(dt)).
    No engine calls this function: both test the same condition, bit for
    bit, inline on the caps as ``max(x)/C >= 1 - delta`` (see
    :mod:`splitmerge.engine`), and it is kept as the reference the tests
    hold that inline test against.
    """
    i = weights.index(max(weights))
    if weights[i] >= 1.0 - delta:
        return i
    return None


def draw_split_fraction(params: ModelParams, rng: np.random.Generator) -> float:
    xi = params.split_dist.sample(rng, params.eps0)
    if not 0.5 <= xi <= 1.0 - params.eps0:
        raise RuntimeError(f"split fraction {xi} outside [1/2, 1-eps0]")
    return xi


def split_children(cap: float, xi: float) -> tuple[float, float]:
    """(xi*cap, exact remainder). The pieces sum to cap with zero error."""
    first = xi * cap
    return first, cap - first


def apply_split(caps: Sequence[float], i: int, xi: float) -> list[float]:
    """Replace company i by children of fractions xi and 1 - xi (appended)."""
    n = len(caps)
    if not 0 <= i < n:
        raise ValueError(f"split position {i} out of range for N={n}")
    c1, c2 = split_children(caps[i], xi)
    return [*caps[:i], *caps[i + 1 :], c1, c2]


def pair_count(n: int) -> int:
    """m_N = C(N-1, 2): number of eligible merger pairs."""
    return math.comb(n - 1, 2)


def sample_merger_pair(
    caps: Sequence[float], rng: np.random.Generator
) -> tuple[int, int]:
    """Uniform pair of distinct non-top companies (0-based, i < j).

    The excluded company is the top-ranked one, ties resolved to the lowest
    index. Consumes exactly one integer draw.
    """
    n = len(caps)
    if n < 3:
        raise ValueError(f"merger pairs need N >= 3, got N={n}")
    top = caps.index(max(caps))
    r = int(rng.integers(pair_count(n)))
    # r ranks the pairs (a, b), a < b, of the n - 1 eligible companies in
    # lexicographic order, so n - 2 - a of them start with a
    a, block = 0, n - 2
    while r >= block > 0:
        r -= block
        a += 1
        block -= 1
    if block == 0:
        raise AssertionError("pair unranking fell off the end")
    b = a + 1 + r
    # eligible company k is company k, or k + 1 from the top on
    return a + (a >= top), b + (b >= top)


def merger_suppressed(
    weights: Sequence[float], i: int, j: int, delta: float
) -> bool:
    """True iff the merged company would itself reach the split threshold.

    Cannot happen for N >= 3 with delta < 1/6: the largest eligible pick has
    weight <= 1/2 and the second <= 1/3, so the sum stays <= 5/6 < 1 - delta.
    Kept as a defensive branch; occurrences are logged and counted.
    """
    return weights[i] + weights[j] >= 1.0 - delta


def apply_merger(caps: Sequence[float], i: int, j: int) -> list[float]:
    """Replace companies i < j by one of cap X_i + X_j (appended)."""
    n = len(caps)
    if not 0 <= i < j < n:
        raise ValueError(f"bad merger pair ({i}, {j}) for N={n}")
    return [*caps[:i], *caps[i + 1 : j], *caps[j + 1 :], caps[i] + caps[j]]

"""Model parameters for split/merger equity markets of rank-interacting diffusions.

The market holds N >= 2 companies with capitalizations X_1..X_N > 0. Between
events, log-capitalizations diffuse with rank-dependent coefficients,

    d log X_i = g(N, k_i) dt + sigma(N, k_i) dW_i,

where k_i is the current rank of company i (rank 1 = largest cap, ties to the
lowest index). Two kinds of events modify the composition:

  * split: when a market weight mu_i = X_i / sum(X) reaches 1 - delta, the
    company is replaced by two pieces of fractions xi and 1 - xi, with xi
    drawn from a distribution F on [1/2, 1 - eps0];
  * merger: an exponential clock of rate lambda_N rings and a uniformly
    chosen pair of non-top companies merges into one.

The coefficient family is constrained by five model assumptions, validated by
:meth:`ModelParams.validate` and cited by name in every rejection message:

  Assumption 1 (rank drift order)   g(N,1) <= min_{2<=k<=N} g(N,k) for all N.
  Assumption 2 (bounded coefficients)  0 < sigma0 <= sigma(N,k) <= sigma_bar
      < inf, sup_{N, k>=2} |g(N,k)| < inf, and delta in (0, 1/6).
  Assumption 3 (split fractions)    F supported on [1/2, 1-eps0], eps0 in
      (0, 1/2).
  Assumption 4 (merger pairs)       the top-ranked company never merges; the
      pair is uniform over the C(N-1, 2) remaining two-element subsets.
  Assumption 5 (clock rates)        lambda_2 = 0 and lambda_N = c * N**alpha
      for N >= 3, with c >= 0 and alpha > 0.

Assumption 4 is structural (implemented by the pair sampler); the others are
properties of the numbers below.

Coefficients come either from the two-parameter family

    coeff(N, k) = a + b * (k - 1) / (N - 1)

or from explicit per-N override rows. Under the parametric family Assumption 1
is equivalent to b >= 0 for the drift table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RankTable",
    "SplitDist",
    "ModelParams",
    "THETA_MODES",
]

THETA_MODES = ("martingale", "growth")

_SPLIT_KINDS = ("uniform", "point", "beta")


@dataclass(frozen=True)
class RankTable:
    """Per-rank coefficient c(N, k) for k = 1..N, for every company count N.

    ``a`` and ``b`` define the parametric family a + b*(k-1)/(N-1); explicit
    rows in ``overrides`` (keyed by N, each a length-N tuple ordered from rank
    1 down) replace the family for that N.
    """

    a: float
    b: float
    overrides: dict[int, tuple[float, ...]] = field(default_factory=dict)

    def row(self, n: int) -> np.ndarray:
        """Coefficients for ranks 1..n as a float64 array (index 0 = rank 1)."""
        if n < 1:
            raise ValueError(f"company count must be >= 1, got {n}")
        if n in self.overrides:
            r = np.asarray(self.overrides[n], dtype=np.float64)
            if r.shape != (n,):
                raise ValueError(f"override row for N={n} has length {r.size}")
            return r
        k = np.arange(n, dtype=np.float64)
        return self.a + self.b * (k / max(n - 1, 1))

    def padded(self, n_max: int) -> np.ndarray:
        """Dense (n_max+1, n_max+2) lookup with zeros outside valid cells.

        Table[n, k+1] = c(n, k) for 0-based rank k < n; row 0..1 col 0 and all
        padding cells are exactly 0.0 so gathers through padded rank indices
        contribute nothing to any update.
        """
        tab = np.zeros((n_max + 1, n_max + 2), dtype=np.float64)
        for n in range(2, n_max + 1):
            tab[n, 1 : n + 1] = self.row(n)
        return tab

    def extremes(self, n_max: int) -> tuple[float, float]:
        """(min, max) over all table cells with N = 2..n_max."""
        lo = math.inf
        hi = -math.inf
        for n in range(2, n_max + 1):
            r = self.row(n)
            lo = min(lo, float(r.min()))
            hi = max(hi, float(r.max()))
        return lo, hi


@dataclass(frozen=True)
class SplitDist:
    """Distribution F of the split fraction xi on [1/2, 1 - eps0].

    Kinds: ``uniform`` on the full support (default), ``point`` mass at 1/2,
    ``beta`` = Beta(beta_a, beta_b) conditioned on the support (sampled by
    rejection).
    """

    kind: str = "uniform"
    beta_a: float = 2.0
    beta_b: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in _SPLIT_KINDS:
            raise ValueError(f"unknown split distribution {self.kind!r}")
        if self.kind == "beta" and (self.beta_a <= 0 or self.beta_b <= 0):
            raise ValueError("beta split distribution needs positive shape parameters")

    def sample(self, rng: np.random.Generator, eps0: float) -> float:
        hi = 1.0 - eps0
        if self.kind == "point":
            return 0.5
        if self.kind == "uniform":
            return float(rng.uniform(0.5, hi))
        # truncated Beta: rejection against the support window
        for _ in range(100_000):
            x = float(rng.beta(self.beta_a, self.beta_b))
            if 0.5 <= x <= hi:
                return x
        raise RuntimeError(
            f"Beta({self.beta_a}, {self.beta_b}) puts too little mass on "
            f"[0.5, {hi}]; rejection sampling gave up"
        )


@dataclass(frozen=True)
class ModelParams:
    """Full coefficient set for one market model. See the module docstring."""

    drift: RankTable
    vol: RankTable
    delta: float = 0.1
    eps0: float = 0.3
    split_dist: SplitDist = field(default_factory=SplitDist)
    clock_c: float = 1.0
    clock_alpha: float = 2.0
    n_max: int = 64
    dt: float = 1e-3
    theta_mode: str = "martingale"

    @property
    def delta0(self) -> float:
        """1 - (1-delta)(1-eps0): the largest possible market weight
        immediately after a split at the exact boundary is 1 - delta0
        (a child holds at most (1-eps0)(1-delta))."""
        return 1.0 - (1.0 - self.delta) * (1.0 - self.eps0)

    def sigma_range(self) -> tuple[float, float]:
        """(sigma0, sigma_bar) over the whole volatility table."""
        return self.vol.extremes(self.n_max)

    def validate(self) -> list[str]:
        """All assumption violations (empty list when the model is valid)."""
        problems: list[str] = []
        # Assumption 1: top rank has the smallest drift, for every N
        for n in range(2, self.n_max + 1):
            g = self.drift.row(n)
            if not np.all(np.isfinite(g)):
                problems.append(
                    f"Assumption 2 violated: drift table has non-finite entries at N={n}"
                )
                break
            if g[0] > g[1:].min() + 0.0:
                problems.append(
                    "Assumption 1 violated: g(N,1) <= min over k>=2 of g(N,k) "
                    f"fails at N={n} (g(N,1)={g[0]:g}, min rest={g[1:].min():g})"
                )
                break
        s0, sbar = self.vol.extremes(self.n_max)
        if not (math.isfinite(s0) and math.isfinite(sbar)) or s0 <= 0.0:
            problems.append(
                "Assumption 2 violated: volatilities must satisfy "
                f"0 < sigma0 <= sigma_bar < inf (table range [{s0:g}, {sbar:g}])"
            )
        if not 0.0 < self.delta < 1.0 / 6.0:
            problems.append(
                f"Assumption 2 violated: delta in (0, 1/6), got {self.delta:g}"
            )
        if not 0.0 < self.eps0 < 0.5:
            problems.append(
                f"Assumption 3 violated: eps0 in (0, 1/2), got {self.eps0:g}"
            )
        if self.clock_c < 0.0:
            problems.append(
                f"Assumption 5 violated: clock constant c >= 0, got {self.clock_c:g}"
            )
        if self.clock_alpha <= 0.0:
            problems.append(
                f"Assumption 5 violated: clock exponent alpha > 0, got {self.clock_alpha:g}"
            )
        if self.n_max < 3:
            problems.append(f"company cap n_max must be >= 3, got {self.n_max}")
        if not self.dt > 0.0:
            problems.append(f"time step dt must be > 0, got {self.dt:g}")
        if self.theta_mode not in THETA_MODES:
            problems.append(
                f"theta_mode must be one of {THETA_MODES}, got {self.theta_mode!r}"
            )
        return problems

    def require_valid(self) -> "ModelParams":
        problems = self.validate()
        if problems:
            raise ValueError("invalid model parameters:\n  " + "\n  ".join(problems))
        return self

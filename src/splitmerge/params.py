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

# largest company cap: the five step tables grow as n_max**2 (42 MB at the cap)
N_MAX_LIMIT = 1024

_SPLIT_KINDS = ("uniform", "point", "beta")

# draws the beta sampler makes before it gives up.  validate requires the
# law to put at least 100 / MAX_DRAWS on the support, so the sampler gives
# up at one split with probability (1 - 100/MAX_DRAWS)**MAX_DRAWS < e**-100
MAX_DRAWS = 100_000


def _beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b), by the continued fraction of
    Numerical Recipes, evaluated on the side where it converges fast."""
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _beta_cf(1.0 - x, b, a)
    return _beta_cf(x, a, b)


def _beta_cf(x: float, a: float, b: float) -> float:
    """I_x(a, b) as x**a (1-x)**b / (a B(a, b)) times its continued
    fraction, summed by the modified Lentz method."""
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    tiny = 1e-300

    def _inv(v: float) -> float:
        return 1.0 / (v if abs(v) >= tiny else tiny)

    c = 1.0
    d = _inv(1.0 - (a + b) * x / (a + 1.0))
    h = d
    # about sqrt(max(a, b)) terms on this side
    for m in range(1, 10_000):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        for coef in (even, odd):
            d = _inv(1.0 + coef * d)
            c = 1.0 + coef / c
            c = c if abs(c) >= tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return math.exp(log_front) * h / a


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
        """(min, max) over all table cells with N = 2..n_max; nan when any
        cell is nan."""
        lo = math.inf
        hi = -math.inf
        for n in range(2, n_max + 1):
            r = self.row(n)
            lo = np.minimum(lo, r.min())
            hi = np.maximum(hi, r.max())
        return float(lo), float(hi)


@dataclass(frozen=True)
class SplitDist:
    """Distribution F of the split fraction xi on [1/2, 1 - eps0].

    Kinds: ``uniform`` on the full support (default), ``point`` mass at 1/2,
    ``beta`` = Beta(beta_a, beta_b) conditioned on the support (sampled by
    rejection, at most :data:`MAX_DRAWS` draws).
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
        for _ in range(MAX_DRAWS):
            x = float(rng.beta(self.beta_a, self.beta_b))
            if 0.5 <= x <= hi:
                return x
        raise RuntimeError(
            f"Beta({self.beta_a}, {self.beta_b}) puts too little mass on "
            f"[0.5, {hi}]; rejection sampling gave up"
        )

    def support_mass(self, eps0: float) -> float:
        """Mass the law puts on [1/2, 1 - eps0], eps0 in (0, 1/2), before
        conditioning (1 for the uniform and point laws, which live there)."""
        if self.kind != "beta":
            return 1.0
        a, b = self.beta_a, self.beta_b
        return _beta_cdf(1.0 - eps0, a, b) - _beta_cdf(0.5, a, b)


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
        if 3 <= self.n_max <= N_MAX_LIMIT:
            problems = self._table_problems()
        else:  # n_max sizes every table, so none is read
            problems = [
                f"company cap n_max must lie in [3, {N_MAX_LIMIT}], got {self.n_max}"
            ]
        if not 0.0 < self.delta < 1.0 / 6.0:
            problems.append(
                f"Assumption 2 violated: delta in (0, 1/6), got {self.delta:g}"
            )
        if not 0.0 < self.eps0 < 0.5:
            problems.append(
                f"Assumption 3 violated: eps0 in (0, 1/2), got {self.eps0:g}"
            )
        elif not (mass := self.split_dist.support_mass(self.eps0)) >= 100 / MAX_DRAWS:
            d = self.split_dist
            problems.append(
                f"Assumption 3 violated: Beta({d.beta_a:g}, {d.beta_b:g}) puts "
                f"mass {mass:.3g} on [1/2, 1 - eps0] = [0.5, {1.0 - self.eps0:g}], "
                f"below the {100 / MAX_DRAWS:g} its rejection sampler needs"
            )
        # written so that nan fails them
        if not self.clock_c >= 0.0:
            problems.append(
                f"Assumption 5 violated: clock constant c >= 0, got {self.clock_c:g}"
            )
        if not self.clock_alpha > 0.0:
            problems.append(
                f"Assumption 5 violated: clock exponent alpha > 0, got {self.clock_alpha:g}"
            )
        elif self.clock_c > 0.0 and 3 <= self.n_max <= N_MAX_LIMIT and not (
            # c * N**alpha, and N**alpha alone, finite up to n_max, in logs
            max(math.log(self.clock_c), 0.0) + self.clock_alpha * math.log(self.n_max)
            < math.log(np.finfo(np.float64).max)
        ):
            problems.append(
                "Assumption 5 violated: clock rate c * N**alpha overflows at "
                f"N = n_max = {self.n_max} (clock_c = {self.clock_c:g}, "
                f"clock_alpha = {self.clock_alpha:g})"
            )
        if not 0.0 < self.dt < math.inf:
            problems.append(f"time step dt must be > 0 and finite, got {self.dt:g}")
        if self.theta_mode not in THETA_MODES:
            problems.append(
                f"theta_mode must be one of {THETA_MODES}, got {self.theta_mode!r}"
            )
        return problems

    def _table_problems(self) -> list[str]:
        problems: list[str] = []
        # override rows that do not fit a table are listed, not read
        for name, table in (("drift", self.drift), ("vol", self.vol)):
            for n, row in table.overrides.items():
                where = f"{name} override row for N={n}"
                if not 2 <= n <= self.n_max:
                    problems.append(f"{where} lies outside 2..n_max = 2..{self.n_max}")
                elif np.shape(row) != (n,):
                    problems.append(f"{where} has length {np.size(row)}, not {n}")
        if problems:
            return problems
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
        if not (math.isfinite(s0) and math.isfinite(sbar)):
            rows = range(2, self.n_max + 1)
            n = next(n for n in rows if not np.all(np.isfinite(self.vol.row(n))))
            problems.append(
                "Assumption 2 violated: volatilities must be finite; vol table "
                f"has non-finite entries at N={n}"
            )
        elif s0 <= 0.0:
            problems.append(
                "Assumption 2 violated: volatilities must satisfy "
                f"0 < sigma0 <= sigma_bar < inf (table range [{s0:g}, {sbar:g}])"
            )
        return problems

    def require_valid(self) -> "ModelParams":
        problems = self.validate()
        if problems:
            raise ValueError("invalid model parameters:\n  " + "\n  ".join(problems))
        return self

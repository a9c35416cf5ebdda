"""INI configuration for simulation runs.

A config file has three sections; every key has a default, so the
minimal valid file is empty::

    [model]
    drift_a = 0.0      ; g(N, k) = drift_a + drift_b * (k-1)/(N-1)
    drift_b = 0.0
    vol_a = 1.0        ; sigma(N, k) = vol_a + vol_b * (k-1)/(N-1)
    vol_b = 0.0
    delta = 0.1
    eps0 = 0.3
    split_dist = uniform   ; uniform | point | beta
    beta_a = 2.0
    beta_b = 2.0
    clock_c = 1.0
    clock_alpha = 2.0
    n_max = 64
    dt = 0.001
    theta_mode = martingale   ; martingale | growth

    [initial]
    caps = 1, 1, 1         ; or: n = 3 (that many unit caps)

    [run]
    horizon = 1.0          ; a whole number of steps of dt
    paths = 1000
    seed = 7
    workers = 1
    stride = 0             ; 0 = no CSV series
    portfolio = market     ; cash | market | equal | rank:K | name:K (1-based)

A section or key not listed above is an error, so a misspelt key is
reported rather than silently left at its default.  All problems are
collected and reported together in a single :class:`ConfigError`
rather than one at a time.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

import numpy as np

from .params import ModelParams, RankTable, SplitDist
from .portfolio import RULE_KINDS, PortfolioRule

# the keys each section accepts; any other section or key is a problem
KEYS = {
    "model": (
        "drift_a", "drift_b", "vol_a", "vol_b", "delta", "eps0",
        "split_dist", "beta_a", "beta_b", "clock_c", "clock_alpha",
        "n_max", "dt", "theta_mode",
    ),
    "initial": ("caps", "n"),
    "run": ("horizon", "paths", "seed", "workers", "stride", "portfolio"),
}


class ConfigError(ValueError):
    """Raised with every config problem listed, one per line."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid configuration:\n  " + "\n  ".join(problems))


@dataclass(frozen=True)
class RunSettings:
    horizon: float = 1.0
    paths: int = 1000
    seed: int = 7
    workers: int = 1
    stride: int = 0
    portfolio: PortfolioRule = PortfolioRule("market")


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    initial_caps: np.ndarray
    run: RunSettings


def parse_rule(text: str) -> PortfolioRule:
    """Parse a portfolio string: ``cash``, ``market``, ``equal``,
    ``rank:K`` or ``name:K`` with K a 1-based index."""
    text = text.strip().lower()
    if ":" in text:
        kind, _, num = text.partition(":")
        kind = kind.strip()
        if kind not in ("rank", "name"):
            raise ValueError(f"unknown portfolio rule {text!r}")
        try:
            k = int(num.strip())
        except ValueError:
            raise ValueError(f"portfolio index in {text!r} is not an integer")
        if k < 1:
            raise ValueError(f"portfolio index in {text!r} must be >= 1")
        return PortfolioRule(kind, k - 1)
    if text in ("rank", "name"):
        raise ValueError(f"rule {text!r} needs an index, e.g. {text}:1")
    if text not in RULE_KINDS:
        raise ValueError(f"unknown portfolio rule {text!r}")
    return PortfolioRule(text)


def _get(cp, section, key, conv, default, problems):
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key)
    try:
        return conv(raw)
    except ValueError as exc:
        problems.append(f"[{section}] {key} = {raw!r}: {exc}")
        return default


def _to_float(raw: str) -> float:
    return float(raw)


def _to_int(raw: str) -> int:
    return int(raw)


def _to_caps(raw: str) -> np.ndarray:
    vals = [float(tok) for tok in raw.replace(";", ",").split(",") if tok.strip()]
    if len(vals) < 2:
        raise ValueError("need at least two capitalizations")
    return np.asarray(vals, dtype=np.float64)


def parse_config(cp: configparser.ConfigParser) -> RunConfig:
    problems: list[str] = []
    for section in cp.sections():
        if section not in KEYS:
            problems.append(f"unknown section [{section}]")
            continue
        for key in cp.options(section):
            if key not in KEYS[section]:
                problems.append(f"[{section}] {key}: unknown key")

    g = lambda *a: _get(cp, "model", *a, problems=problems)
    drift = RankTable(
        a=g("drift_a", _to_float, 0.0), b=g("drift_b", _to_float, 0.0)
    )
    vol = RankTable(a=g("vol_a", _to_float, 1.0), b=g("vol_b", _to_float, 0.0))
    split_kind = g("split_dist", str.strip, "uniform")
    if split_kind not in ("uniform", "point", "beta"):
        problems.append(f"[model] split_dist = {split_kind!r}: must be "
                        "uniform, point or beta")
        split_kind = "uniform"
    split = SplitDist(
        kind=split_kind,
        beta_a=g("beta_a", _to_float, 2.0),
        beta_b=g("beta_b", _to_float, 2.0),
    )
    params = ModelParams(
        drift=drift,
        vol=vol,
        delta=g("delta", _to_float, 0.1),
        eps0=g("eps0", _to_float, 0.3),
        split_dist=split,
        clock_c=g("clock_c", _to_float, 1.0),
        clock_alpha=g("clock_alpha", _to_float, 2.0),
        n_max=g("n_max", _to_int, 64),
        dt=g("dt", _to_float, 1e-3),
        theta_mode=g("theta_mode", str.strip, "martingale"),
    )
    problems.extend(params.validate())

    caps = None
    if cp.has_option("initial", "caps") and cp.has_option("initial", "n"):
        problems.append("[initial] give either caps or n, not both")
    if cp.has_option("initial", "caps"):
        caps = _get(cp, "initial", "caps", _to_caps, None, problems)
    elif cp.has_option("initial", "n"):
        n = _get(cp, "initial", "n", _to_int, 0, problems)
        if n < 2:
            problems.append("[initial] n must be at least 2")
        else:
            caps = np.ones(n)
    if caps is None:
        caps = np.ones(3)
    else:
        if np.any(~np.isfinite(caps)) or np.any(caps <= 0.0):
            problems.append("[initial] caps must be positive and finite")
            caps = np.ones(3)
    if len(caps) >= params.n_max:
        problems.append(
            f"[initial] {len(caps)} companies but n_max = {params.n_max}"
        )

    gr = lambda *a: _get(cp, "run", *a, problems=problems)
    rule = PortfolioRule("market")
    if cp.has_option("run", "portfolio"):
        try:
            rule = parse_rule(cp.get("run", "portfolio"))
        except ValueError as exc:
            problems.append(f"[run] portfolio: {exc}")
    run = RunSettings(
        horizon=gr("horizon", _to_float, 1.0),
        paths=gr("paths", _to_int, 1000),
        seed=gr("seed", _to_int, 7),
        workers=gr("workers", _to_int, 1),
        stride=gr("stride", _to_int, 0),
        portfolio=rule,
    )
    if not run.horizon > 0.0:
        problems.append("[run] horizon must be positive")
    elif params.dt > 0.0:
        # the engines run round(horizon / dt) steps; a horizon that is not
        # a whole number of steps would be rounded silently
        ratio = run.horizon / params.dt
        if not math.isfinite(ratio):
            problems.append("[run] horizon must be finite")
        elif round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-9 * ratio:
            problems.append(
                f"[run] horizon = {run.horizon!r} is not a whole number of "
                f"steps of dt = {params.dt!r}; it would round to "
                f"{round(ratio)} steps"
            )
    if run.paths <= 0:
        problems.append("[run] paths must be positive")
    if run.workers < 1:
        problems.append("[run] workers must be at least 1")
    if run.stride < 0:
        problems.append("[run] stride must be nonnegative")
    if run.seed < 0:
        problems.append("[run] seed must be nonnegative")
    if rule.kind in ("rank", "name") and rule.k >= len(caps):
        problems.append(
            f"[run] portfolio {rule.name} targets company {rule.k + 1} "
            f"but only {len(caps)} companies start"
        )

    if problems:
        raise ConfigError(problems)
    return RunConfig(params=params, initial_caps=caps, run=run)


def load_config(
    path: str | None, overrides: dict[str, dict[str, str]] | None = None
) -> RunConfig:
    """Read an INI file (or use every default when path is None).

    ``overrides`` maps section -> key -> text; each value replaces the
    file's before parsing, so it passes the same checks.  A file that
    cannot be opened is a :class:`ConfigError` naming it.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if path is not None:
        try:
            fh = open(path)
        except OSError as exc:
            raise ConfigError(
                [f"cannot read config file {path!r}: {exc.strerror}"]
            ) from exc
        with fh:
            cp.read_file(fh)
    cp.read_dict(overrides or {})
    return parse_config(cp)

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
    n_max = 64         ; 3 .. 1024 (params.N_MAX_LIMIT)
    dt = 0.001
    theta_mode = martingale   ; martingale | growth

    [initial]
    caps = 1, 1, 1         ; or: n = 3 (that many unit caps)

    [run]
    horizon = 1.0          ; a whole number of steps of dt
    paths = 1000
    seed = 7
    workers = 1
    stride = 0             ; 0 = a series.csv of the header alone
    portfolio = market     ; cash | market | equal | rank:K | name:K (1-based)

The file is UTF-8 INI.  Values are literal, with no ``%`` interpolation,
so a ``%`` fails its key's own check.  A section or key not listed above
is an error, so a misspelt key is reported rather than silently left at
its default.  All problems are collected and reported together in a
single :class:`ConfigError` rather than one at a time.

This module only parses.  A key left out takes the default of the
dataclass it fills (:class:`~splitmerge.params.ModelParams`,
:class:`~splitmerge.params.SplitDist`, :class:`RunSettings`); only the
rank-table coefficients, which :class:`~splitmerge.params.RankTable`
gives no default, have theirs here.  Whether the parsed values make a
valid run is decided by :meth:`splitmerge.engine.EngineRun.validate`,
the same check ``run_paths`` and ``reference_path`` apply, so a config
file is rejected exactly when the engines would reject its run.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace

import numpy as np

from .engine import EngineRun
from .params import ModelParams, RankTable, SplitDist
from .portfolio import RULE_KINDS, PortfolioRule


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

    def engine_run(self, collect_events: bool = False) -> EngineRun:
        """The run ``simulate`` makes: rules market and then portfolio (once
        if it is the market), the series showing the first and the last."""
        run = self.run
        rules = tuple(dict.fromkeys((PortfolioRule("market"), run.portfolio)))
        return EngineRun(
            params=self.params, initial_caps=self.initial_caps,
            horizon=run.horizon, n_paths=run.paths, seed=run.seed, rules=rules,
            workers=run.workers, stride=run.stride,
            series_cols=(0, len(rules) - 1) if run.stride > 0 else None,
            collect_events=collect_events,
        )


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


def _to_caps(raw: str) -> np.ndarray:
    return np.asarray(
        [float(tok) for tok in raw.replace(";", ",").split(",") if tok.strip()],
        dtype=np.float64,
    )


def _to_count(raw: str) -> np.ndarray:
    # n unit caps as a read-only view that allocates nothing (a negative n
    # is an empty market), so the run's checks see a huge count before
    # parse_config builds the vector
    return np.broadcast_to(1.0, (max(int(raw), 0),))


# section -> key -> converter; any other section or key is a problem
KEYS = {
    "model": {
        "drift_a": float, "drift_b": float, "vol_a": float, "vol_b": float,
        "delta": float, "eps0": float, "split_dist": str.strip,
        "beta_a": float, "beta_b": float, "clock_c": float,
        "clock_alpha": float, "n_max": int, "dt": float,
        "theta_mode": str.strip,
    },
    "initial": {"caps": _to_caps, "n": _to_count},
    "run": {
        "horizon": float, "paths": int, "seed": int, "workers": int,
        "stride": int, "portfolio": parse_rule,
    },
}


def parse_config(cp: configparser.ConfigParser) -> RunConfig:
    problems: list[str] = []
    vals: dict[str, dict] = {section: {} for section in KEYS}
    for section in cp.sections():
        if section not in KEYS:
            problems.append(f"unknown section [{section}]")
            continue
        for key in cp.options(section):
            conv = KEYS[section].get(key)
            if conv is None:
                problems.append(f"[{section}] {key}: unknown key")
                continue
            raw = cp.get(section, key)
            try:
                vals[section][key] = conv(raw)
            except ValueError as exc:
                problems.append(f"[{section}] {key} = {raw!r}: {exc}")

    # every default is the dataclass's own, except the rank tables',
    # which have none
    model = vals["model"]
    drift = RankTable(model.pop("drift_a", 0.0), model.pop("drift_b", 0.0))
    vol = RankTable(model.pop("vol_a", 1.0), model.pop("vol_b", 0.0))
    split_args = {key: model.pop(key) for key in ("beta_a", "beta_b") if key in model}
    if "split_dist" in model:
        split_args["kind"] = model.pop("split_dist")
    try:
        split = SplitDist(**split_args)
    except ValueError as exc:
        problems.append(f"[model] split_dist: {exc}")
        split = SplitDist()
    params = ModelParams(drift=drift, vol=vol, split_dist=split, **model)

    # caps and n each convert to the cap vector; one of them, or three unit caps
    initial = vals["initial"]
    if len(initial) > 1:
        problems.append("[initial] give either caps or n, not both")
    caps = next(iter(initial.values()), np.ones(3))
    cfg = RunConfig(params=params, initial_caps=caps, run=RunSettings(**vals["run"]))
    problems.extend(cfg.engine_run().validate())
    if problems:
        raise ConfigError(problems)
    return replace(cfg, initial_caps=np.array(caps))


def load_config(
    path: str | None, overrides: dict[str, dict[str, str]] | None = None
) -> RunConfig:
    """Read an INI file (or use every default when path is None).

    ``overrides`` maps section -> key -> text; each value replaces the
    file's before parsing, so it passes the same checks.  A file that
    cannot be opened, or parsed as UTF-8 INI, is a :class:`ConfigError`
    naming it.
    """
    # no one-line header names the default section, so [DEFAULT] is unknown
    cp = configparser.ConfigParser(
        inline_comment_prefixes=(";", "#"), interpolation=None, default_section="\n"
    )
    if path is not None:
        try:
            fh = open(path, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(
                [f"cannot read config file {path!r}: {exc.strerror}"]
            ) from exc
        with fh:
            try:
                cp.read_file(fh)
            except (configparser.Error, UnicodeDecodeError) as exc:
                detail = " ".join(line.strip() for line in str(exc).splitlines())
                raise ConfigError(
                    [f"cannot parse config file {path!r}: {detail}"]
                ) from exc
    cp.read_dict(overrides or {})
    return parse_config(cp)

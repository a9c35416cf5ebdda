"""Command line front end.

Subcommands:

    simulate     run the configured market and write series/event files
    verify       run the verification checks (exit 0 iff all pass)
    bound-check  evaluate the closed-form bounds and their identities

``simulate`` and ``bound-check`` read ``--config PATH`` (INI file, see
:mod:`splitmerge.config`).  Their other run flags override keys of that
file: each value is written into the file's text before it is parsed,
so it passes exactly the checks a value in the file passes.  ``verify``
builds its own configurations and takes no config file.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from .config import ConfigError, RunConfig, load_config
from .events import clock_rate
from .harness import ALL_CHECKS, select_checks, simulate_run, verify_all
from .streams import SEED_LIMIT


# flags that override a config key: flag name -> (section, key)
OVERRIDES = {
    "seed": ("run", "seed"),
    "paths": ("run", "paths"),
    "horizon": ("run", "horizon"),
    "dt": ("model", "dt"),
    "workers": ("run", "workers"),
}


def _add_config(p: argparse.ArgumentParser, *flags: str) -> None:
    p.add_argument("--config", help="INI configuration file")
    for flag in flags:
        section, key = OVERRIDES[flag]
        p.add_argument(f"--{flag}", help=f"override [{section}] {key}")


def _load(args) -> RunConfig:
    overrides: dict[str, dict[str, str]] = {}
    for flag, (section, key) in OVERRIDES.items():
        value = getattr(args, flag, None)
        if value is not None:
            overrides.setdefault(section, {})[key] = value
    return load_config(args.config, overrides)


def _output_error(path: str, exc: OSError) -> int:
    print(
        f"cannot write output {exc.filename or path!r}: {exc.strerror or exc}",
        file=sys.stderr,
    )
    return 2


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    try:
        _, summary = simulate_run(cfg, out_dir=args.out)
    except OSError as exc:
        if args.out is None:
            raise
        return _output_error(args.out, exc)
    for key in sorted(summary):
        print(f"{key}: {summary[key]}")
    if args.out:
        print(f"output written to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    # an empty --only, or one of commas, selects no check
    checks = ALL_CHECKS if args.only is None else [
        name for s in args.only.split(",") if (name := s.strip())]
    try:
        if args.seed < 0 or args.workers < 1 or not 0.0 < args.scale < math.inf:
            raise ValueError(
                "--seed must be nonnegative, --workers at least 1 and --scale "
                "a positive finite number"
            )
        # a check draws from seeds up to its offset + 1 past the base seed
        top = max(c.seed_offset for c in select_checks(checks)) + 1
        if args.seed + top >= SEED_LIMIT:
            raise ValueError(
                f"--seed must be below 2**64 - {top} for the selected checks, "
                f"got {args.seed}"
            )
        if args.out:
            # made before the run, so a path that cannot be written fails
            # before any check runs
            open(args.out, "w").close()
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    except OSError as exc:
        return _output_error(args.out, exc)
    report = verify_all(args.seed, args.scale, args.workers, checks)
    text = report.render()
    print(text)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _output_error(args.out, exc)
    return 0 if report.all_passed else 1


def _cmd_bound_check(args) -> int:
    # imported here so that simulate, which never reads the closed-form
    # bounds, does not load them
    from .bounds import (
        double_jump_alpha1,
        double_jump_bound,
        double_jump_bound_ratio_form,
        explosion_bound_terms,
        rate_function,
        split_before_clock_bound,
    )
    cfg = _load(args)
    params = cfg.params
    sig = params.sigma_range()[1]
    horizon = cfg.run.horizon
    lines = []
    ok = True

    lines.append("split-before-clock bound, top weight 1/2:")
    for n in range(3, 9):
        lam = clock_rate(n, params)
        b = split_before_clock_bound(0.5, params.delta, sig, lam)
        lines.append(f"  N={n} lam={lam:g}: {b:.6f}")
        # nan or a negative bound fails; a fast clock underflows a bound to
        # 0.0, which is still a valid one
        ok = ok and 0.0 <= b <= 2.0

    lines.append("consecutive-split bound p_N (both forms):")
    for n in range(3, 9):
        lam = clock_rate(n, params)
        b1 = double_jump_bound(params.delta, params.delta0, sig, lam)
        b2 = double_jump_bound_ratio_form(params.delta, params.delta0, sig, lam)
        agree = abs(b1 - b2) <= 1e-12 * max(1.0, b1)
        ok = ok and agree and 0.0 <= b1 <= 2.0
        lines.append(f"  N={n} lam={lam:g}: {b1:.6f} (forms agree: {agree})")
    a1 = double_jump_alpha1(params.delta, params.delta0, sig)
    lines.append(f"  alpha_1 = {a1:.6f}")

    h1 = rate_function(1.0)
    ok = ok and h1 == 0.0
    lines.append(f"rate function H(1) = {h1:g}")

    lines.append(f"explosion bound over [0, {horizon:g}] (formula cap lifted):")
    grid = (10, 20, 40)
    # evaluating the closed form needs room up to 2L; the widened cap
    # changes no rates and no exponents, only the feasibility check
    eval_params = dataclasses.replace(
        params, n_max=max(params.n_max, 2 * grid[-1])
    )
    # a clock rate valid at the config's n_max can overflow at the wider cap
    problems = eval_params.validate()
    if problems:
        where = f"bound-check evaluates at n_max = {eval_params.n_max}"
        raise ConfigError([f"{where}: {p}" for p in problems])
    totals = []
    silent = True
    for L in grid:
        lam_high = max(clock_rate(n, eval_params) for n in range(3, 2 * L))
        silent = silent and lam_high == 0.0
        exp_pow = max(eval_params.clock_alpha, 1.0)
        try:
            u = max(8.0 * L**exp_pow, 2.0 * math.ceil(horizon * lam_high))
        except OverflowError:
            u = math.inf
        if not math.isfinite(u):
            # each factor is finite, but L**alpha (of a silent clock, whose
            # alpha validation leaves free), horizon * lambda or twice
            # either is not: it overflows to inf or raises on the way
            raise ConfigError([
                f"bound-check at L = {L}: the event count u = max(8 L**alpha, "
                f"2 ceil(horizon * lambda)) overflows, with alpha = {exp_pow:g} "
                f"and horizon * lambda = {horizon:g} * {lam_high:g}"
            ]) from None
        term = explosion_bound_terms(L, u, horizon, eval_params)
        lines.append(
            f"  L={L} u={u:g}: log sigma1={term.log_sigma1:.2f} "
            f"log sigma2={term.log_sigma2:.2f} log total={term.log_total:.2f}"
        )
        totals.append(term.log_total)
    if silent:
        # without a clock the double-jump factor costs nothing, so the
        # bound grows with L; tightening is a property of a running clock
        lines.append(
            "  silent clock: the check that the bound tightens with L "
            "does not apply"
        )
    else:
        # the bound must tighten as the doubling window L grows
        ok = ok and all(b < a for a, b in zip(totals, totals[1:]))

    print("\n".join(lines))
    print("identities hold" if ok else "identity check FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="splitmerge",
        description="simulator and verification harness for split/merge "
        "equity markets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the configured market")
    _add_config(p, "seed", "paths", "horizon", "dt", "workers")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the verification checks")
    p.add_argument("--seed", type=int, default=11, help="base seed (default 11)")
    p.add_argument(
        "--workers", type=int, default=1, help="process count (default 1)"
    )
    p.add_argument("--out", help="report file")
    p.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiply check path counts (smoke runs; default 1.0)",
    )
    p.add_argument(
        "--only",
        help="comma separated subset of checks: " + ", ".join(ALL_CHECKS),
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bound-check", help="evaluate the closed-form bounds")
    _add_config(p, "horizon")
    p.set_defaults(func=_cmd_bound_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

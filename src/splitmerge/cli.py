"""Command line front end.

Subcommands:

    simulate     run the configured market and write series/event files
    verify       run the verification checks (exit 0 iff all pass)
    bound-check  evaluate the closed-form bounds and their identities
    martingale   run the change-of-measure checks only
    tail         estimate the tail of the running company count

Every subcommand accepts ``--config PATH`` (INI file, see
:mod:`splitmerge.config`); command line flags override the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from .bounds import (
    double_jump_alpha1,
    double_jump_bound,
    double_jump_bound_ratio_form,
    explosion_bound_terms,
    rate_function,
    split_before_clock_bound,
)
from .config import ConfigError, load_config
from .events import clock_rate
from .harness import (
    ALL_CHECKS,
    check_martingale,
    check_tail_monotone,
    simulate_run,
    verify_all,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI configuration file")
    p.add_argument("--seed", type=int, help="base seed override")
    p.add_argument("--paths", type=int, help="path count override")
    p.add_argument("--horizon", type=float, help="time horizon override")
    p.add_argument("--dt", type=float, help="step size override")
    p.add_argument("--workers", type=int, help="process count override")
    p.add_argument("--out", help="output directory (or report file)")


def _load(args) -> "RunConfig":
    cfg = load_config(args.config)
    run = cfg.run
    params = cfg.params
    if args.seed is not None:
        run = dataclasses.replace(run, seed=args.seed)
    if args.paths is not None:
        run = dataclasses.replace(run, paths=args.paths)
    if args.horizon is not None:
        run = dataclasses.replace(run, horizon=args.horizon)
    if args.workers is not None:
        run = dataclasses.replace(run, workers=args.workers)
    if args.dt is not None:
        params = dataclasses.replace(params, dt=args.dt)
    return dataclasses.replace(cfg, params=params, run=run)


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    _, summary = simulate_run(cfg, out_dir=args.out)
    for key in sorted(summary):
        print(f"{key}: {summary[key]}")
    if args.out:
        print(f"output written to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else 11
    workers = args.workers if args.workers is not None else 1
    wanted = [s.strip() for s in args.only.split(",")] if args.only else []
    for name in wanted:
        if name not in ALL_CHECKS:
            print(f"unknown check {name!r}; choices: {', '.join(ALL_CHECKS)}")
            return 2
    report = verify_all(
        seed=seed, scale=args.scale, workers=workers, checks=wanted or ALL_CHECKS
    )
    text = report.render()
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0 if report.all_passed else 1


def _cmd_bound_check(args) -> int:
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
        ok = ok and 0.0 < b <= 2.0

    lines.append("consecutive-split bound p_N (both forms):")
    for n in range(3, 9):
        lam = clock_rate(n, params)
        b1 = double_jump_bound(params.delta, params.delta0, sig, lam)
        b2 = double_jump_bound_ratio_form(params.delta, params.delta0, sig, lam)
        agree = abs(b1 - b2) <= 1e-12 * max(1.0, b1)
        ok = ok and agree and 0.0 < b1 <= 2.0
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
    prev = None
    for L in grid:
        lam_high = max(clock_rate(n, eval_params) for n in range(3, 2 * L))
        exp_pow = max(eval_params.clock_alpha, 1.0)
        u = max(8.0 * L**exp_pow, 2.0 * math.ceil(horizon * lam_high))
        term = explosion_bound_terms(L, u, horizon, eval_params)
        lines.append(
            f"  L={L} u={u:g}: log sigma1={term.log_sigma1:.2f} "
            f"log sigma2={term.log_sigma2:.2f} log total={term.log_total:.2f}"
        )
        if prev is not None:
            # the bound must tighten as the doubling window L grows
            ok = ok and term.log_total < prev
        prev = term.log_total

    print("\n".join(lines))
    print("identities hold" if ok else "identity check FAILED")
    return 0 if ok else 1


def _cmd_martingale(args) -> int:
    seed = args.seed if args.seed is not None else 29
    paths = args.paths if args.paths is not None else 100_000
    row = check_martingale(seed=seed, paths=paths)
    print(row.render())
    return 0 if row.passed else 1


def _cmd_tail(args) -> int:
    seed = args.seed if args.seed is not None else 23
    paths = args.paths if args.paths is not None else 100_000
    workers = args.workers if args.workers is not None else 1
    row = check_tail_monotone(seed=seed, paths=paths, workers=workers)
    print(row.render())
    return 0 if row.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="splitmerge",
        description="simulator and verification harness for split/merge "
        "equity markets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the configured market")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the verification checks")
    _add_common(p)
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
    _add_common(p)
    p.set_defaults(func=_cmd_bound_check)

    p = sub.add_parser("martingale", help="change-of-measure checks")
    _add_common(p)
    p.set_defaults(func=_cmd_martingale)

    p = sub.add_parser("tail", help="tail of the running company count")
    _add_common(p)
    p.set_defaults(func=_cmd_tail)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

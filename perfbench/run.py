"""splitmerge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one workload, or ``all`` to run the four in turn, each in its
own process.  Run from anywhere; the checkout is the parent of this
directory and its ``src/`` is imported directly, so nothing needs
installing.  With ``--trace 0`` it repeats the workload's timed call
for ``S`` seconds and reports the end-to-end metrics of
``BENCHMARK.json`` (medians over the reps, times in reference seconds:
see ``calibrate.py``); with ``--trace 1`` it reports the per-layer
metrics from a traced run.  Human-readable lines come first; the last
line is one JSON object.  Exit status 1 means the correctness gate
failed, 2 that the checkout holds no ``src/splitmerge``.  See
``README.md`` here.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from calibrate import REF_S, Calibrator

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_REPEATS = 7
MIN_REPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="a workload name, or all to run each in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes; the figures mean nothing")
    return p.parse_args(argv)


def timed_reps(w, seconds, min_reps, level=None, workers=None, calib=None):
    """Repeat the workload's call until ``seconds`` have been measured.

    Returns ``(walls, digests, last output, tracers)``; with ``level``
    each rep runs under a fresh tracer whose root span is the call.
    With a ``calib``, a kernel pass runs before the first call and
    after each call.
    """
    from tracing import Tracer

    walls, digests, tracers = [], [], []
    out = None
    spent = 0.0
    if calib:
        calib.mark()
    while len(walls) < min_reps or spent < seconds:
        w.before_call()
        tr = Tracer() if level else None
        with tr.installed(level) if tr else contextlib.nullcontext():
            t0 = time.perf_counter()
            if tr:
                out = tr.wrap("bench.rep", w.call)(workers)
            else:
                out = w.call(workers)
            wall = time.perf_counter() - t0
        spent += wall
        walls.append(wall)
        digests.append(w.digest(out))
        if tr:
            tracers.append(tr)
        if calib:
            calib.mark()
    return walls, digests, out, tracers


def setup_times(n, calib):
    """Set-up phases of ``n`` fresh interpreters, one after another.

    With a ``calib``, a kernel pass runs before the first interpreter and
    after each one, as in :func:`timed_reps`.  Returns one dict of phase
    seconds per interpreter.
    """
    probe = os.path.join(HERE, "setup_probe.py")
    runs = []
    if calib:
        calib.mark()
    for _ in range(n):
        done = subprocess.run(
            [sys.executable, probe, ROOT], capture_output=True, text=True,
            timeout=120, check=True,
        )
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        if calib:
            calib.mark()
    return runs


def reference_seconds(measured, passes):
    """Median of ``measured`` in reference seconds.

    ``passes`` ends with one kernel pass before ``measured[0]`` and one
    after each ``measured[i]``; the mean of the passes around a time
    stands for the host's speed during it.
    """
    cal = passes[-len(measured) - 1:]
    return statistics.median(
        m * REF_S / (0.5 * (a + b)) for m, a, b in zip(measured, cal, cal[1:])
    )


def peak_rss_mb():
    """Peak resident memory of this process and of its reaped children
    (the pool workers), whichever is larger."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def layer_metrics(tr, out_counts):
    """Per-layer metrics of one fully traced rep."""
    t = tr.totals()

    def calls(name):
        return t[name][0] if name in t else 0

    def total(name):
        return t[name][1] if name in t else 0.0

    def self_s(name):
        return t[name][2] if name in t else 0.0

    def per_call(name):
        return total(name) / calls(name) if calls(name) else 0.0

    boundaries = calls("events.resolve")
    m = {
        "streams.generators": calls("streams.path_generator"),
        "streams.generator_s": total("streams.path_generator"),
        "engine.chunks": calls("engine.run_chunk"),
        "engine.chunk_s": total("engine.run_chunk"),
        "engine.step_self_s": self_s("engine.run_chunk"),
        "events.boundaries": boundaries,
        "events.resolve_s": total("events.resolve"),
        "events.resolve_self_s": self_s("events.resolve"),
        "events.draw_s": total("events.draw"),
        "events.useful_ratio": tr.useful / boundaries if boundaries else 0.0,
        "portfolio.weights_calls": calls("portfolio.weights"),
        "portfolio.weights_s": total("portfolio.weights"),
        "portfolio.transfers": calls("portfolio.transfer"),
        "portfolio.transfer_s": total("portfolio.transfer"),
        "engine.audit_s": total("engine.audit"),
        "harness.write_series_s": total("harness.write_series"),
        "harness.write_events_s": total("harness.write_events"),
        "bounds.race_s": per_call("bounds.race"),
        "bounds.rbm_s": per_call("bounds.rbm"),
        "dynamics.weights_s": total("dynamics.market_weights"),
        "girsanov.theta_row_s": total("girsanov.theta_row"),
        "trace.self_sum_s": sum(e[2] for e in t.values()),
        "events.splits": 0,
        "events.mergers": 0,
        "events.suppressed": 0,
        "harness.event_records": 0,
        "harness.bytes_written": 0,
    }
    m.update(out_counts)
    return m


def run_traced(w, name, seconds):
    """Coarse reps (the untraced baseline), then fully traced reps."""
    # a traced call must run in this process: spans made in pool
    # workers never reach the parent, so a pooled workload is traced at
    # 1 worker and its run_paths wall at full width comes from a coarse rep
    coarse_walls, digests, _, coarse = timed_reps(w, seconds / 2, 1, "coarse", 1)
    at_workers = coarse
    if w.workers > 1:
        _, more, _, at_workers = timed_reps(w, 0, 1, "coarse", w.workers)
        digests += more
    full_walls, more, out, full = timed_reps(w, seconds / 2, 1, "full", 1)
    digests += more

    def med_total(tracers, span):
        return statistics.median(
            tr.totals().get(span, (0, 0.0))[1] for tr in tracers
        )

    counts = w.counts(out)
    per_rep = [layer_metrics(tr, counts) for tr in full]
    metrics = {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}
    run_paths_s = med_total(at_workers, "engine.run_paths")
    metrics["engine.run_paths_s"] = run_paths_s
    metrics["engine.worker_util"] = (
        med_total(coarse, "engine.run_chunk") / (w.workers * run_paths_s)
        if run_paths_s else 0.0
    )
    metrics["trace.wall_s"] = statistics.median(full_walls)
    metrics["trace.overhead_s"] = (
        statistics.median(full_walls) - statistics.median(coarse_walls)
    )
    os.makedirs(SCRATCH, exist_ok=True)
    spans_path = os.path.join(SCRATCH, f"spans-{name}.csv")
    full[-1].write(spans_path)
    notes = [
        f"coarse reps {len(coarse_walls)}, fully traced reps {len(full_walls)}",
        f"spans of the last traced rep: {spans_path}",
        f"layers traced: {' '.join(sorted(full[-1].layers() - {'bench'}))}",
    ]
    if w.workers > 1:
        notes.append(
            f"{name} traced at 1 worker: spans made in pool workers never "
            f"reach the parent; engine.run_paths_s is the {w.workers}-worker wall"
        )
    return metrics, digests, out, notes


def run_all(args, names) -> int:
    """Every workload, each in its own process, one after another.

    Prints each workload's lines, then one JSON object whose metric
    names are prefixed with the workload.
    """
    status = 0
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(argv, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        sys.stderr.write(done.stderr)
        status = max(status, done.returncode)
        if done.returncode not in (0, 1):
            print("\n".join(lines))
            merged["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "splitmerge", "__init__.py")):
        print(f"no splitmerge package under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    if args.workload == "all":
        return run_all(args, workloads.NAMES)
    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=SCRATCH)
    calib = None if args.trace else Calibrator()
    try:
        w = workloads.build(
            args.workload, ROOT, args.seed, args.tiny, os.path.join(tmp, "out")
        )
        w.warmup()
        if args.trace:
            metrics, digests, out, notes = run_traced(
                w, args.workload, args.seconds
            )
            reps = len(digests)
        else:
            walls, digests, out, _ = timed_reps(
                w, args.seconds, MIN_REPS, calib=calib
            )
            wall = reference_seconds(walls, calib.passes)
            rss = peak_rss_mb()
            reps = len(walls)
            notes = [f"reps {reps}, walls {' '.join(f'{x:.3f}' for x in walls)} s"]
        problems = w.check(out)
        if len(set(digests)) > 1:
            problems.append("reps with the same inputs gave different outputs")
        attempted, failed = w.outcome(out)
        setup = setup_times(SETUP_REPEATS, calib)
    finally:
        if calib:
            calib.close()
        shutil.rmtree(tmp, ignore_errors=True)

    def median_of(key):
        return statistics.median(r[key] for r in setup)

    if args.trace:
        metrics["engine.tables_build_s"] = median_of("build_s")
        metrics["config.load_s"] = median_of("load_s")
        metrics["params.validate_s"] = median_of("validate_s")
        metrics["setup.import_s"] = median_of("import_s")
    else:
        # times in reference seconds; see calibrate.py
        setup_s = reference_seconds([r["total_s"] for r in setup], calib.passes)
        metrics = {
            "paths_per_s": w.paths_per_call / wall,
            "wall_s": wall,
            "setup_s": setup_s,
            "peak_rss_mb": rss,
        }
        notes.append(
            f"measured medians: wall_s {statistics.median(walls):.6g} s, "
            f"setup_s {median_of('total_s'):.6g} s; calibration kernel "
            f"{statistics.median(calib.passes):.6g} s (reference {REF_S} s)"
        )
    units = {
        m["name"]: m["unit"]
        for key in ("end_to_end", "per_layer")
        for m in _benchmark_spec()[key]
    }
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{w.paths} paths per call  trace {args.trace}")
    for line in notes:
        print(f"  {line}")
    for k in sorted(metrics):
        print(f"  {k:24s} {metrics[k]:.6g} {units[k]}")
    if not args.trace:
        if w.path_steps:
            print(f"  {'path_steps_per_s':24s} {w.path_steps / wall:.6g} path-steps/s")
        else:
            print(f"  {'probe_paths_per_s':24s} {w.paths_per_call / wall:.6g} paths/s")
    print(f"  {'failed_frac':24s} {failed / attempted:.6g} ({failed}/{attempted})")
    print("gate: " + ("PASS" if not problems else "FAIL: " + "; ".join(problems)))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted * reps,
        "failed": failed * reps,
        "metrics": {
            k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())
        },
    }))
    return 1 if problems else 0


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())

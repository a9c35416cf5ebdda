"""Span tracer for the benchmark's traced runs.

Spans are recorded only from this file: tracing rebinds the
module-level names that ``splitmerge.engine``, ``splitmerge.harness``,
``splitmerge.bounds`` and ``splitmerge.cli`` call (plus a few class
attributes such as ``PortfolioRule.weights``) to wrappers that time
the call, and puts the originals back afterwards.  The package's own
source is never edited.

A span is ``[name, start, end, parent]``; ``parent`` is the index of
the enclosing span or -1.  Spans stay in memory and are written once,
when the run ends.  The part of a span's name before the first dot is
the layer (the package module it belongs to).

Two levels:

``coarse``
    only boundaries crossed a handful of times per timed call
    (``run_paths``, ``_run_chunk``, the CLI entry, file writers, the
    estimators).  Its cost is negligible, so coarse reps stand in for
    untraced ones when the tracing overhead is computed.
``full``
    also every per-path and per-event boundary: stream construction,
    event resolution and draws, portfolio weights and transfers,
    conservation audits, table building and parameter validation.
"""

from __future__ import annotations

import contextlib
import csv
import time

from splitmerge import bounds, cli, engine, harness
from splitmerge.engine import StepTables
from splitmerge.params import ModelParams
from splitmerge.portfolio import PortfolioRule

# (owner, attribute, span name)
COARSE = (
    (engine, "run_paths", "engine.run_paths"),
    (harness, "run_paths", "engine.run_paths"),
    (engine, "_run_chunk", "engine.run_chunk"),
    (cli, "main", "cli.main"),
    (cli, "load_config", "config.load"),
    (cli, "simulate_run", "harness.simulate_run"),
    (harness, "write_series_csv", "harness.write_series"),
    (harness, "write_events_jsonl", "harness.write_events"),
    (bounds, "estimate_split_before_clock", "bounds.race"),
    (bounds, "simulate_rbm_hit", "bounds.rbm"),
)

FULL = COARSE + (
    (engine, "path_generator", "streams.path_generator"),
    (bounds, "path_generator", "streams.path_generator"),
    (engine, "market_weights", "dynamics.market_weights"),
    (engine, "_resolve_boundary", "events.resolve"),
    (engine, "draw_split_fraction", "events.draw"),
    (engine, "sample_merger_pair", "events.draw"),
    (engine, "transfer_on_split", "portfolio.transfer"),
    (engine, "transfer_on_merger", "portfolio.transfer"),
    (engine, "_conservation_err", "engine.audit"),
    (engine, "_transfer_err", "engine.audit"),
    (engine, "theta_row", "girsanov.theta_row"),
    (PortfolioRule, "weights", "portfolio.weights"),
    (ModelParams, "validate", "params.validate"),
    (StepTables, "build", "engine.tables_build"),
)

LEVELS = {"coarse": COARSE, "full": FULL}

# every layer the full trace must reach across the four workloads
LAYERS = (
    "streams", "dynamics", "events", "portfolio", "girsanov", "params",
    "config", "engine", "bounds", "harness", "cli",
)


class Tracer:
    """In-memory span recorder for one timed call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.useful = 0  # event boundaries at which an event happened
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        note_useful = name == "events.resolve"

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if note_useful and out[2]:
                self.useful += 1
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, level: str):
        """Rebind the traced names for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in LEVELS[level]:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw)
                setattr(owner, attr, new)
                saved.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def totals(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds].

        Self time is the span's duration minus the time its child spans
        cover; children of one span run one after another on one
        thread, so the time they cover is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list] = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            e = out.setdefault(name, [0, 0.0, 0.0])
            e[0] += 1
            e[1] += t1 - t0
            e[2] += t1 - t0 - child[i]
        return out

    def layers(self) -> set[str]:
        return {name.split(".", 1)[0] for name, *_ in self.spans}

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start", "end", "parent"))
            out.writerows(self.spans)


"""Tiny-size smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at smoke-test sizes (``--tiny``) with and without
tracing, and checks the output contract: every metric named in
``BENCHMARK.json`` is printed with its unit, the traced spans reach
every layer of the package, the gate catches a wrong path, and a
directory without the package makes the benchmark fail.
"""

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from tracing import LAYERS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT, run_py=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, run_py, *args], cwd=cwd, capture_output=True,
        text=True, timeout=600,
    )


@functools.cache
def tiny_run(workload: str, trace: int):
    done = _bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                  "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    text, res = tiny_run(workload, trace)
    assert res["correct"] is True
    assert res["attempted"] >= 1 and res["failed"] == 0
    want = {
        m["name"]: m["unit"]
        for m in SPEC["per_layer" if trace else "end_to_end"]
    }
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    lines = text.splitlines()
    for name, unit in want.items():
        assert any(
            ln.split()[:1] == [name] and ln.split()[-1] == unit for ln in lines
        ), name
    assert "failed_frac" in text


def test_all_runs_every_workload():
    done = _bench("--workload", "all", "--seed", "5", "--seconds", "0.2",
                  "--trace", "0", "--tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    res = json.loads(done.stdout.splitlines()[-1])
    assert res["correct"] is True
    assert set(res["metrics"]) == {
        f"{w}.{m['name']}" for w in WORKLOADS for m in SPEC["end_to_end"]
    }


def test_traced_spans_cover_every_layer():
    seen = set()
    for workload in WORKLOADS:
        text, _ = tiny_run(workload, 1)
        (line,) = [ln for ln in text.splitlines() if "layers traced:" in ln]
        seen.update(line.split(":", 1)[1].split())
    assert seen >= set(LAYERS)


def test_quiet_wide_has_no_event_work():
    _, res = tiny_run("quiet_wide", 1)
    events = {k: v["value"] for k, v in res["metrics"].items()
              if k.startswith("events.")}
    assert events and all(v == 0 for v in events.values())


def test_gate_catches_a_wrong_path():
    w = workloads.build("event_heavy", ROOT, 5, True, "")
    res = w.call()
    assert w.check(res) == []
    p = workloads._gate_paths(5, w.paths)[0]
    res.final_log_z[p] += 1e-12
    assert w.check(res) == [f"path {p} differs from reference_path"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "event_heavy", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path,
                  run_py=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert not done.stdout.strip()

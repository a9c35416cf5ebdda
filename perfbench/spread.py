"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py WORKLOAD SEEDS [SECONDS]

Runs ``run.py --trace 0`` once per seed (SEEDS is a comma-separated
list, SECONDS defaults to BENCHMARK.json's ``run_seconds``) one after
another, then prints for each end-to-end metric its median and the
distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to a third of the metric's bound.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    workload, seeds = sys.argv[1], sys.argv[2].split(",")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = sys.argv[3] if len(sys.argv) > 3 else str(spec["run_seconds"])
    values: dict[str, list[float]] = {}
    for seed in seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", seed, "--seconds", seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if done.returncode:
            print(done.stdout + done.stderr)
            return 1
        res = json.loads(done.stdout.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in res["metrics"].items()}
        print(f"seed {seed}: failed {res['failed']}/{res['attempted']}  "
              + "  ".join(f"{k} {v:.4g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print(f"{workload} {m['name']}: median {med:.4g} {m['unit']}, "
              f"spread {(q3 - q1) / med:.3f} (bound/3 {m['bound'] / 3:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

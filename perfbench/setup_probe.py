"""Time the set-up one fresh interpreter pays before its first path.

Run as ``python3 perfbench/setup_probe.py ROOT`` where ROOT is the
checkout.  Prints one JSON object: seconds spent importing
``splitmerge`` (numpy included), loading ``configs/default.cfg``,
validating the model parameters and building the step tables, and
their total.
"""

import json
import os
import sys
import time


def main() -> int:
    root = sys.argv[1]
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(root, "src"))
    from splitmerge.config import load_config
    from splitmerge.engine import StepTables

    t1 = time.perf_counter()
    cfg = load_config(os.path.join(root, "configs", "default.cfg"))
    t2 = time.perf_counter()
    cfg.params.require_valid()
    t3 = time.perf_counter()
    StepTables.build(cfg.params)
    t4 = time.perf_counter()
    print(json.dumps({
        "import_s": t1 - t0,
        "load_s": t2 - t1,
        "validate_s": t3 - t2,
        "build_s": t4 - t3,
        "total_s": t4 - t0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

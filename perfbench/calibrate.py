"""Host-speed calibration for the end-to-end times.

The benchmark shares a small virtual machine with other tenants, and
its speed drifts by tens of percent over seconds to minutes.  A fixed
kernel that does not touch ``splitmerge`` runs between the timed calls
and between the set-up interpreters.  Each measured time is converted
to reference seconds, ``measured * REF_S / mean of the kernel passes
just before and after it``, and the runner reports the median, so a
drift that slows the kernel and the workload alike cancels.  The kernel
mixes the three kinds of work the workloads do: interpreter loops,
numpy calls on small arrays, and gathers from an 8 MB buffer.

The kernel runs in a helper process (this file run as a script), so its
memory never counts in the peak memory reported for a workload.
"""

import subprocess
import sys
import time

import numpy as np

# median kernel time on the reference box (2-core Xeon VM, Python 3.11,
# numpy 2.4); fixed, so reference seconds mean the same in every run
REF_S = 0.08

_SMALL = np.random.default_rng(0).random((256, 20))
_ROWS = np.arange(1024)[:, None]
_COLS = np.arange(20)[None, :]


def kernel() -> float:
    """Seconds one pass of the fixed kernel takes now."""
    t0 = time.perf_counter()
    acc, seen = 0, {}
    for i in range(200_000):
        acc += i * i
        seen[i & 255] = (acc, i)
    for _ in range(150):
        np.argsort(-_SMALL, axis=1, kind="stable")
        b = _SMALL * np.exp(_SMALL)
        np.where(b > 0.5, b, 0.0).sum(axis=1)
    big = np.arange(1024 * 1024, dtype=np.float64).reshape(1024, 1024)
    pos = np.zeros(1024, dtype=np.int64)
    for _ in range(150):
        big[_ROWS, (pos[:, None] + _COLS) % 1024].sum()
        pos += 20
    return time.perf_counter() - t0


class Calibrator:
    """Kernel passes on request, in a helper process.

    ``passes`` holds the seconds of every pass so far.  Read the
    workload's peak memory before ``close``: the helper is not a reaped
    child until then, so it is not counted in ``RUSAGE_CHILDREN``.
    """

    def __init__(self) -> None:
        self.passes: list[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )

    def mark(self) -> None:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        self.passes.append(float(self._proc.stdout.readline()))

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)


if __name__ == "__main__":
    for _ in sys.stdin:
        print(kernel(), flush=True)

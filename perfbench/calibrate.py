"""A fixed reference kernel for stating times at a reference CPU speed.

    python3 perfbench/calibrate.py     # prints the kernel's term count

The benchmark runs on shared hosts whose CPU speed drifts, by up to 2x over
minutes, with the load of other tenants; CPU time drifts with wall time, so
it is the speed of the cores, not scheduling.  The runner therefore times
this kernel between jobs throughout a run and rescales the run's times by
``REFERENCE_KERNEL_S / mean(kernel times)``: a time then reads as it would
on a host where the kernel takes ``REFERENCE_KERNEL_S``.

The kernel runs as a process of its own, timed from spawn to exit like a
CLI job: it starts an interpreter, as every job does, and lands on a core
the way a job does.  (Timed inside the long-lived runner instead, it drifted
1.6x over a few minutes while the jobs drifted 1.25x to 1.5x.)  It is
plain Python and imports nothing from ``quotvol``, so a change to the
program moves the job times and never the kernel.  Its loop does what the
program's hot loops do: products of sparse truncated series with
``Fraction`` coefficients, keyed by integer tuples in a dict.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

REFERENCE_KERNEL_S = 0.15  # about the kernel's time on a 2 GHz Xeon vCPU
_SIZE = 10
_CAP = 18
_TERMS = 405  # what the kernel returns; a different count means it changed


def kernel() -> int:
    """One truncated product of a 4-variate series with itself; the number
    of terms of the product."""
    a = {}
    for i in range(_SIZE):
        for j in range(_SIZE):
            a[(i, j, i % 3, j % 2)] = Fraction((i * 31 + j * 17) % 23 + 1, (i + 2 * j) % 7 + 1)
    out: dict[tuple[int, ...], Fraction] = {}
    for ka, va in a.items():
        for kb, vb in a.items():
            key = tuple(ka[t] + kb[t] for t in range(4))
            if key[0] + key[1] > _CAP:
                continue
            s = out.get(key, Fraction(0)) + va * vb
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return len(out)


def time_kernel(env: dict) -> float:
    """Seconds one kernel process takes, from spawn to exit."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve())], env=env,
                          capture_output=True, timeout=60)
    seconds = time.perf_counter() - start
    if proc.returncode != 0 or proc.stdout.strip() != str(_TERMS).encode():
        raise RuntimeError(f"calibration kernel failed: exit {proc.returncode}, "
                           f"stdout {proc.stdout[:80]!r}, want {_TERMS} terms")
    return seconds


if __name__ == "__main__":
    print(kernel())

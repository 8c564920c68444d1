"""Reference kernel that measures how fast the current CPU runs right now.

On a small shared host a core's speed moves by up to 2x, from second to
second and for minutes at a time, as neighbours come and go.  The benchmark
times this fixed kernel next to every timed piece of work and scales the
work's time by REFERENCE_S over the kernel's time, which gives the seconds
the work would take on a machine that runs the kernel in REFERENCE_S.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median CPU time of reference_kernel on a quiet 2-vCPU x86-64 KVM guest
# (Xeon, Python 3.11, numpy 2.4 with OpenBLAS on one thread).
REFERENCE_S = 0.018
# Kernel calls per speed sample, unless a workload sets its own
# (workloads.KERNEL_REPS).  One call's time moves by 15-20% from sample to
# sample, and now and then the host takes a few milliseconds of wall time
# in the middle of one; the median of four calls in a row halves the first
# noise and drops the second.
KERNEL_REPS = 4

_RNG = np.random.default_rng(12345)
_SMALL = _RNG.standard_normal((6, 6)) + 1j * _RNG.standard_normal((6, 6))
_DENSE = _RNG.standard_normal((400, 400)) + 1j * _RNG.standard_normal((400, 400))


def reference_kernel() -> float:
    """Fixed work of the kinds blockade does: Python loops around small
    complex solves (amplitude, model, optimize) and dense complex LU
    solves (lindblad).  It calls no blockade code."""
    eye, rhs, acc = np.eye(6), _SMALL[:, 0], 0.0
    for i in range(300):
        x = np.linalg.solve(_SMALL + (1e-3 * i) * eye, rhs)
        acc += abs(complex(x[0]))
    for _ in range(2):
        acc += abs(np.linalg.solve(_DENSE, _DENSE[:, 0])[0])
    return acc


def timed_kernel(reps: int = KERNEL_REPS) -> tuple[float, float]:
    """Median wall and CPU seconds of reps reference_kernel calls."""
    walls, cpu_times = [], []
    for _ in range(reps):
        c0, t0 = time.process_time(), time.perf_counter()
        reference_kernel()
        walls.append(time.perf_counter() - t0)
        cpu_times.append(time.process_time() - c0)
    return statistics.median(walls), statistics.median(cpu_times)

"""Fixed calibration kernels: how fast this process runs right now.

On a shared machine the speed of the same code drifts by tens of percent over
minutes, which swamps the differences the benchmark must show. A kernel is
fixed code that imports nothing from the package, so no change to the program
can move it. worker.py times one right before and right after the CLI call,
in the same process, and run.py divides the run's wall time by the mean of
the two.

The drift is not the same for all code: interpreter-bound Python and
array-bound numpy slow down at different times. So there are two kernels,
and each workload uses the one that matches where its time goes.
"""

from time import perf_counter

import numpy as np


def _python():
    acc = 0
    table = {}
    for i in range(1_000_000):
        acc += (i * i) % 7
        table[i & 255] = acc


def _numpy():
    # A Lax-Friedrichs sweep of Burgers' flux on 16522 cells, ratio 0.01.
    u = 1.0 + 0.1 * np.sin(np.linspace(0.0, 6.0, 16522))
    for _ in range(2400):
        g = np.concatenate((u[:1], u[:1], u, u[-1:], u[-1:]))
        f = 0.5 * g * g
        u = (0.5 * (g[2:] + g[:-2]) - 0.01 * (f[2:] - f[:-2]))[1:-1]


KERNELS = {"python": _python, "numpy": _numpy}


def calibrate(kernel):
    """Seconds the named kernel takes now (about 0.2 s on a 2-core Xeon VM)."""
    start = perf_counter()
    KERNELS[kernel]()
    return perf_counter() - start

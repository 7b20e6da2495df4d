"""A fixed reference kernel that measures the machine's speed of the moment.

On a small shared machine the neighbours' load slows every instruction of
this process by up to 2x, in phases that last from a second to minutes, so
a pass's wall time says as much about when it ran as about the program.
The worker runs this kernel between passes; a pass's time divided by the
mean of the kernel times just before and after it is the pass's cost in
reference units, and that ratio moves when volmin's work changes, not when
the machine's speed does.

The kernel does what a volmin step and a CSV write do, without volmin:
small numpy products, a softmax, a 3x3 log-determinant and inverse, and
float formatting, in a Python loop. It never changes with volmin, so a
change to the program shows in full in the ratio.
"""

from __future__ import annotations

import time

import numpy as np

STEPS = 1500


def run_kernel() -> float:
    """Run the kernel once; return its wall time in seconds."""
    rng = np.random.default_rng(20210204)
    x = rng.standard_normal((128, 8))
    w = 0.1 * rng.standard_normal((8, 3))
    y = np.eye(3)[rng.integers(0, 3, 128)]
    t = 0.7 * np.eye(3) + 0.1
    rows = []
    start = time.perf_counter()
    for i in range(STEPS):
        z = x @ w
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        w -= 1e-2 * (x.T @ (p @ t.T - y)) / 128
        _, logdet = np.linalg.slogdet(t)
        t = t + 1e-4 * (np.linalg.inv(t).T + logdet)
        t /= t.sum(axis=0, keepdims=True)
        rows.append(",".join(f"{v:.17g}" for v in p[i % 128]))
    "\n".join(rows).encode("utf-8")
    return time.perf_counter() - start

"""Calibration kernels: fixed work that measures how fast the host runs now.

The 2-core VM this benchmark was built on shares its cores with other
tenants. Their load slows this process for seconds to minutes at a
time, interpreted Python by up to 1.9x and bulk array arithmetic by
about 1.3x, and CPU time slows as much as wall time. Raw job times of
unchanged code therefore spread by 10-44% (quartile distance over
median) between 25-second windows. A kernel of the same code type,
timed right before and after each job, slows with the job. Dividing by
it cut that spread to 2-6% in the same windows (README, "Timing on a
shared host").

A kernel does the same work in every run and shares no code with
spinscan, so no change to the program can change it. ``REF_S`` is each
kernel's fastest time on that VM at rest (Xeon at 2.1 GHz, Python
3.11, numpy 2.4). It only fixes the scale: a wall time divided by the
mean of its two calibration times and multiplied by ``REF_S`` reads as
seconds on that host at rest.
"""

from __future__ import annotations

import time

import numpy as np

_X = np.linspace(-1.0, 1.0, 201)


def _interp() -> float:
    """Per-element Python with small numpy calls, like per-pixel fitting."""
    acc = 0.0
    for k in range(1600):
        u = (_X - 1e-3 * k) / 0.05
        y = 1.0 / (1.0 + u * u)
        jac = np.column_stack([y, u * y * y, np.ones_like(y)])
        acc += np.linalg.solve(jac.T @ jac + 1e-3 * np.eye(3), jac.T @ y)[0]
        gen = np.random.Generator(np.random.Philox(key=np.array([k, 7], dtype=np.uint64)))
        acc += gen.poisson(1e5)
        for i in range(300):
            acc += i * i
    return acc


def _array() -> float:
    """Elementwise arithmetic and reductions on arrays of pixel x site shape."""
    # About 6 MB, past the private caches but small next to the peak of
    # every workload that uses this kernel, so it never sets peak_rss_mb.
    b = np.random.default_rng(0).random((4000, 64, 3))
    acc = 0.0
    for _ in range(11):
        r = np.sqrt(np.sum(b * b, axis=2))
        acc += float(np.sum(np.exp(-2.0 * r) * r**2.5))
    return acc


KERNELS = {"interp": _interp, "array": _array}
REF_S = {"interp": 0.093, "array": 0.085}


def calibrate(kind: str) -> float:
    """Seconds the kernel of this kind takes now."""
    start = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - start

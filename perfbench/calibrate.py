"""Machine-speed calibration for a shared, noisy host.

Other tenants of a small shared machine slow a single-threaded process by
up to ~60% for seconds at a time: a fixed pure-Python loop timed once a
second over 40 s ran between 1.07x and 1.68x its best time, and the same
300 corpus modules took 12.5 s and 18.7 s of wall time in back-to-back
runs.  So the benchmark runs a fixed calibration kernel between items and
rescales each item's wall time by the kernel's local speed:

    latency = wall time * K_REF_S / (median kernel time around the item)

i.e. the item's time in kernel units, converted to seconds at the speed
where the kernel takes K_REF_S.  The kernel mixes the operations homlab's
inner loops are made of (dict and tuple arithmetic on exponent vectors,
int64 row operations mod p), so both slow down together.  Over the same
300 modules, four runs' wall-time sums spread over 11% (17.5-19.5 s) and
their rescaled sums over 2%.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's time on this CPU with no competing tenant (Intel Xeon, 2
# vCPUs, Python 3.11, numpy 2.4); it only sets the scale of the results.
K_REF_S = 0.003
_P = 32003
_MATRIX = np.arange(48 * 48, dtype=np.int64).reshape(48, 48) % _P


def _kernel():
    acc = {}
    for i in range(2500):
        mono = tuple(a + b for a, b in zip((i % 7, i % 11, i % 13), (1, 2, 3)))
        acc[mono] = (acc.get(mono, 0) + i * 31) % _P
    a = _MATRIX.copy()
    for r in range(24):
        a[r + 1:] = (a[r + 1:] - np.outer(a[r + 1:, r], a[r])) % _P
    return len(acc)


def kernel_seconds():
    """Wall time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scales(samples, n_items):
    """Per-item factor K_REF_S / local kernel time.

    Item i ran between samples[i] and samples[i + 1]; its local kernel time
    is the median of the three samples before and the three after it.
    """
    return [K_REF_S / statistics.median(samples[max(0, i - 2):i + 4])
            for i in range(n_items)]

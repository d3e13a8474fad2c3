"""Host-speed calibration: a fixed reference computation timed beside the program.

The benchmark's host is a share of a larger machine whose speed drifts for
minutes at a time.  The same items on the same seed ran at 2.7 and 4.0
items/s in runs a few minutes apart, and a process's CPU time slows just as
its wall time does, so there is no stolen time to subtract.  The benchmark
therefore times a short, fixed computation that does not touch ``mpsys``
next to every timed stretch of the program, in the same process, and
divides that stretch's time by the host's speed factor, chunk time over
``REFERENCE_S``: for an item, the mean of the chunks right before and
after it; for set-up, the median of the chunks each probe interpreter runs
once it is ready.  Every time the benchmark reports is
thus in seconds at the reference speed; the raw seconds go to the info
line.  A change to the program moves the reported times as it moves the raw
ones; only the host's drift, which slows the chunk too, cancels.

The chunk is the program's kind of work: small complex matrix products,
Kronecker products, solves and spectral norms under a Python loop.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds one chunk takes at the reference speed: about the median of 2000
# chunks on the baseline host.  It only sets the scale of reported times.
REFERENCE_S = 0.0100
ROUNDS = 100
WARM_UP_CHUNKS = 3

_rng = np.random.default_rng(20260)
_MATS = [0.3 * (_rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6)))
         for _ in range(4)]
_RHS = _rng.standard_normal((6, 2)) + 0j
_EYE = np.eye(6)


def chunk() -> float:
    """Run the reference computation once and return its seconds."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(ROUNDS):
        a, b = _MATS[i % 4], _MATS[(i + 1) % 4]
        acc += float(np.linalg.norm(np.kron(a[:3, :3], b[:2, :2]), 2))
        acc += float(np.linalg.norm(np.linalg.solve(_EYE - a @ b, _RHS)))
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise ArithmeticError("reference computation is not finite")
    return elapsed


def warm_up() -> None:
    """Run a few chunks so that the first timed one is not a cold start."""
    for _ in range(WARM_UP_CHUNKS):
        chunk()

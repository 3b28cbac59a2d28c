"""The speed probe: a fixed piece of work whose time tells how fast the
shared machine runs at the moment.  It imports nothing from the package."""

from __future__ import annotations

import time

import numpy as np

MATRIX = np.random.default_rng(0).random((96, 96)) < 0.1


def speed_probe() -> float:
    """Seconds taken by a fixed piece of work: the machine's speed now.

    Other tenants of a shared machine slow it down by up to half for
    seconds at a time; the benchmark divides timings by this probe's
    readings around them (see run.py).  The work mixes what the program
    spends its time on, interpreted Python over dicts and strings and small
    numpy matrix products, and calls no package code, so a change to the
    program cannot move it."""
    t = time.perf_counter()
    d = {}
    for k in range(3000):
        d[k] = (k, str(k))
    m = MATRIX
    for _ in range(4):
        m = m | ((m.astype(np.uint8) @ m.astype(np.uint8)) > 0)
    np.argwhere(m)
    for k in range(3000):
        d.get(k)
    return time.perf_counter() - t

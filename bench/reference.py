"""A fixed pure-Python reference task that measures the machine's pace.

The machine the benchmark runs on is shared, and its speed drifts by up to
2x over tens of seconds.  Every benchmark process therefore times this task
next to its checks, and bench/run.py scales each measured time by
NOMINAL_S / (the reference time).  A scaled time is what the check would
take on a machine that runs `reference()` in NOMINAL_S seconds.

The task is the same kind of work engelkit does, and it imports nothing
from engelkit: products of sparse polynomials with rational coefficients,
keyed by exponent tuples, then sorted.  Changing this file changes every
scaled figure, so leave it alone once a baseline is recorded.
"""

import statistics
import time
from fractions import Fraction

# seconds one reference() call takes on the nominal machine
NOMINAL_S = 0.001


def _poly(shift):
    return {(i % 3, i * 7 % 5, i * 11 % 4): Fraction(i + shift, 2 * i + 3)
            for i in range(12)}


def reference():
    """The fixed task: one product of two sparse polynomials over Q."""
    a, b = _poly(1), _poly(2)
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return sorted((e, c) for e, c in out.items() if c)


def pace(calls):
    """Median seconds of one reference() call over `calls` calls."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        reference()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(seconds, ref_s):
    """`seconds`, measured where reference() took ref_s, at nominal pace."""
    return seconds * NOMINAL_S / ref_s

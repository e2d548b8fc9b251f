"""The box's current speed, from a fixed reference kernel.

The reference box (2-core x86 VM) drifts: the same code runs up to ~1.75x
slower for seconds or whole minutes, in wall and in CPU time alike, so a
plain wall time measures the neighbours as much as the program.  A
*sample* times a fixed kernel of pure-Python and small-array numpy work
(the kinds of work dmajor does) that never touches dmajor.  Every op time
of the library workloads is rescaled by ``REF_SAMPLE_S / sample`` taken
next to it, that is, reported as it would read at the reference speed.
(Fresh interpreters do not follow this kernel; run.py samples them with a
fresh interpreter instead.)  A change to
dmajor moves the op times and not the kernel, so it moves the rescaled
times by the same factor.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# About the median sample on the reference box (Python 3.11, numpy 2.4, one
# BLAS thread), whose samples fall near 0.75 ms or near 1.3 ms depending on
# its state.  Any constant would do; this one keeps rescaled times close to
# the wall times of a typical moment.
REF_SAMPLE_S = 0.9e-3
KERNEL_REPEATS = 3

_RNG = np.random.default_rng(0)
_MATS = [_RNG.standard_normal((k, k)) for k in (3, 5, 8)]
_TABLEAU = np.abs(_RNG.standard_normal((12, 40))) + 0.5


def _kernel() -> int:
    """Interpreter loop, small dense linear algebra, and Gauss-Jordan row
    operations on a small tableau (a Python loop of small numpy calls, like
    a pure-Python simplex).  The mix follows measurement: with the row
    operations, rescaled certify, polytope and steer figures spread 1.5-2x
    less over repeated runs of one list than without them."""
    s = 0
    for i in range(2000):
        s += i % 7
    for a in _MATS:
        for _ in range(4):
            np.linalg.eigh(a + a.T)
            np.linalg.solve(a, a[:, 0])
            np.sort(a, axis=None).cumsum()
    for _ in range(2):
        t = _TABLEAU.copy()
        for p in range(len(t)):
            t[p] /= t[p, p]
            for i in range(len(t)):
                if i != p and t[i, p] != 0.0:
                    t[i] -= t[i, p] * t[p]
    return s


def sample() -> float:
    """Seconds of one kernel run: the median of KERNEL_REPEATS runs."""
    clock = time.perf_counter
    times = []
    for _ in range(KERNEL_REPEATS):
        t0 = clock()
        _kernel()
        times.append(clock() - t0)
    return statistics.median(times)


def warm() -> None:
    for _ in range(10):
        _kernel()


def factors(positions: list[int], samples: list[float], count: int,
            reference: float = REF_SAMPLE_S, window: int = 2) -> list[float]:
    """Rescale factor of each of ``count`` ops.  ``positions[k]`` is the index
    of the op that sample k was taken just before (``count`` for a sample
    after the last op), in increasing order.  An op's factor is
    ``reference`` over the median of the ``window`` samples on each side of
    it."""
    out = []
    for i in range(count):
        j = bisect.bisect_right(positions, i)
        near = samples[max(0, j - window):j + window]
        out.append(reference / statistics.median(near))
    return out

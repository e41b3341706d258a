"""A fixed reference computation that tracks how fast this machine runs
Python right now.

On a shared machine the speed of CPU-bound Python drifts by tens of percent
in spells of a minute or two, and every kind of Python work slows together.
The benchmark interleaves short chunks of this computation with its ops and
scales each pass to the speed at which one chunk takes ``CHUNK_S``.  The
chunk uses only the standard library and never exactlab, so no change to
the package can move it.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from time import perf_counter

CHUNK_S = 0.025   # a chunk's time at the reference speed
SHARE = 0.1       # reference time per pass, as a share of the pass's op time


def chunk() -> float:
    """Run one chunk (Fraction arithmetic, sorting and bisecting, text
    formatting, big-integer products) and return its time."""
    start = perf_counter()
    acc = Fraction(0)
    pairs = []
    for i in range(1, 500):
        f = Fraction(i % 97 + 1, 3 ** (i % 9 + 1))
        acc += f * f
        pairs.append((f, i))
    pairs.sort()
    keys = [f for f, _ in pairs]
    for i in range(2000):
        bisect.bisect_left(keys, Fraction(i, 2001))
    ",".join(str(f) for f in keys[:200])
    n, m = 3 ** 300 + 1, 10 ** 150 + 7
    for _ in range(1500):
        n = n * n % m
    return perf_counter() - start

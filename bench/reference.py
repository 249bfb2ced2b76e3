"""A fixed reference kernel that tracks the speed of the host.

On a shared host the speed of a core changes while a program runs: on the
2-core VM this benchmark was written on, this kernel took either about
1.45 ms or about 2.5 ms, switching every second or so, and whole passes
ran up to 50 % slower for minutes at a time.  The benchmark therefore
times this kernel, which does not use chclab, right before and right after
every timed sample, and scales the sample by ``REFERENCE_S`` over the mean
of the two.  The figures then read as seconds on a host where the kernel
takes ``REFERENCE_S``; the report prints the scale factor beside them.

The kernel does the kind of work chclab does: exact ``Fraction``
arithmetic, tuple sorting and dictionary updates.  The garbage collector
is off while it runs, so that a large heap left by the program under test
cannot slow the kernel and make the program look faster.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REFERENCE_S = 0.0025  # the kernel's time on a quiet run of that VM


def kernel() -> Fraction:
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        table[(i % 97, acc.numerator % 13)] = tuple(sorted((i * 7919) % 1000 + j for j in range(6)))
    return acc


def time_kernel() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()

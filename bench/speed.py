"""How fast the machine runs Python while an operation runs.

The host is shared: a pure-Python loop runs up to twice as slow for
fractions of a second up to minutes at a time, in CPU time as much as in
wall time, so no amount of repetition inside one run makes raw times of two
runs comparable.  The benchmark therefore runs a fixed kernel every
INTERVAL_S while each operation runs and reports the operation's time at the
reference speed:

    time at reference speed = measured time * REFERENCE_S / mean kernel time

The kernel is the benchmark's own code and calls nothing of the program, so
a change to the program moves the measured time only.  It does the kind of
work the program does: exact `Fraction` elimination and integer Gram
products.  The benchmark and its child processes share one CPU (`pin`), so
the kernel runs on the CPU doing the work, and the CPU time the kernel took
is taken out of the operation's time.
"""
from __future__ import annotations

import os
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

from oracles import CANONICAL_GRAM, pair

#: kernel time, in seconds, that reported times are scaled to: a round
#: figure; the kernel took 0.5-0.9 ms during the baseline runs in NOTES.md
REFERENCE_S = 0.001
INTERVAL_S = 0.025

_VECTORS = [tuple((i * 7 + j * 3) % 5 - 2 for j in range(9)) for i in range(4)]


def pin() -> int:
    """Keep this process and the processes it starts on one CPU, the
    highest-numbered one it may use; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def kernel() -> int:
    m = [
        [Fraction(x + 3 * (i == j), 1 + (i + j) % 4) for j, x in enumerate(row)]
        for i, row in enumerate(CANONICAL_GRAM)
    ]
    for c in range(9):
        p = next(r for r in range(c, 9) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        for r in range(c + 1, 9):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return sum(pair(u, v) for u in _VECTORS for v in _VECTORS)


class Meter:
    """Times one block and, when `sample` is set, the kernel before, after
    and every INTERVAL_S during it: a SIGALRM handler runs the kernel between
    the block's byte codes, or while the benchmark waits for a child process.
    Kernel runs are timed in this thread's CPU time, so a child process that
    takes the CPU back in the middle of one does not count."""

    def __init__(self, sample: bool = True) -> None:
        self.sample = sample
        self.kernel_s: list[float] = []
        self.elapsed = 0.0

    def _sample(self, *_) -> None:
        start = time.thread_time()
        kernel()
        self.kernel_s.append(time.thread_time() - start)

    @contextmanager
    def timing(self):
        """Time the block, without the kernel runs inside it."""
        if not self.sample:
            start = time.perf_counter()
            try:
                yield self
            finally:
                self.elapsed = time.perf_counter() - start
            return
        self._sample()
        inside = len(self.kernel_s)
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            yield self
        finally:
            # a tick still pending once the old handler is back is dropped,
            # so every kernel run inside the block is within `elapsed`
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.elapsed = time.perf_counter() - start - sum(self.kernel_s[inside:])
            self._sample()

    def scaled(self) -> float:
        """The block's time at the reference speed."""
        if not self.kernel_s:   # the block never ran
            return self.elapsed
        return self.elapsed * REFERENCE_S / statistics.fmean(self.kernel_s)

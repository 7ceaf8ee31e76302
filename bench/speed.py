"""CPU-speed normalisation of the end-to-end timings.

The virtual CPUs this benchmark was tuned on (2 vCPUs, Python 3.11.7)
switch, for seconds at a time, between speed modes about 40% apart: a
fixed loop of Python code runs in 16-17 ms for a while, then in 23-25 ms.
A pass of several seconds therefore varied by up to ±20% with no change
to the code, and the median of a 30-second run spread by 24% (quartile
distance over median) across runs.

So while a pass runs, a SIGALRM timer interrupts it every INTERVAL_S to
time a fixed reference loop.  If the pass took T seconds (handler time
excluded) and the loop took s_1..s_n, the pass's work in nominal seconds
is T * mean(NOMINAL_S / s_i): the time the pass would take on a CPU on
which the loop takes NOMINAL_S.  Raw times are printed beside the
normalised ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import NamedTuple

NOMINAL_S = 500e-6
INTERVAL_S = 0.025


class _Pair(NamedTuple):
    number: int
    items: tuple


def _shift(x: int, items: tuple) -> tuple:
    return items[:-1] + (x,)


def reference_loop() -> dict:
    """A fixed piece of interpreter work like hopad's: calls, tuple slicing
    and concatenation, named tuples and dict stores.  Of the loops tried,
    this one tracked hopad's speed best: the coefficient of variation of
    normalised pass times was 1-4%, against 8-21% raw."""
    items = (1, 2, 3, 4, 5, 6, 7, 8)
    table: dict = {}
    for i in range(450):
        items = _shift(i, items)
        pair = _Pair(i, items)
        table[(i % 5, pair.number % 3)] = pair
        if isinstance(pair, tuple):
            items = items[-8:] + items[:2]
    return table


def loop_seconds() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def median_loop_seconds(count: int = 25) -> float:
    return statistics.median(loop_seconds() for _ in range(count))


class SpeedSampler:
    """Times the reference loop every INTERVAL_S while the context is open.

    ``spent`` is the time taken by the samples, which the caller subtracts
    from the timings it takes meanwhile.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.samples.append(loop_seconds())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._sample()  # so that even a short pass has a sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Nominal seconds per measured second over the samples."""
        return statistics.fmean(NOMINAL_S / s for s in self.samples)

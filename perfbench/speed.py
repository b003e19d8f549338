"""The machine's speed, to scale the benchmark's times.

On a shared virtual machine (2 vCPUs at 2.0 GHz, where the reference
values below were measured) a fixed pure-Python loop's throughput changes
by a fifth and more from one minute to the next with no steal time, and a
pass's wall time moves with it.  Times are therefore reported scaled to a
reference speed.

* Passes: every ``INTERVAL_S`` a SIGALRM handler times a fixed loop of
  benchmark-owned code (degree-8 tuple products and set inserts, the
  program's own kind of work); the speed is the reference loop time over
  the mean sampled one.  The handler's own time is subtracted from the
  pass, and it runs between bytecodes, so the program is otherwise
  undisturbed.
* Set-up: most of its spread is the speed of starting a process, which
  the loop does not track, so each set-up is scaled by a bare interpreter
  start made next to it, against ``REFERENCE_START_S``.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
# loop time at speed 1.0: its mean on that machine under Python 3.11
REFERENCE_S = 0.0006
# a bare start of the interpreter at speed 1.0, measured the same way
REFERENCE_START_S = 0.06
_STEP = (1, 2, 3, 4, 5, 6, 7, 0)
_SWAP = (1, 0, 2, 3, 4, 5, 6, 7)


def _loop() -> None:
    seen = set()
    x = tuple(range(8))
    for i in range(400):
        x = tuple(map((_SWAP if i % 3 else _STEP).__getitem__, x))
        seen.add(x)


class SpeedSampler:
    """Context manager sampling the loop time while its block runs."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, *_):
        start = time.perf_counter()
        _loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def busy_s(self) -> float:
        """Time the samples took, which the pass did not use."""
        return sum(self.samples)

    def speed(self) -> float:
        """Reference loop time over the mean sampled one."""
        return REFERENCE_S / statistics.fmean(self.samples)

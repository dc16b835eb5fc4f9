"""Machine-speed probe: wall time scaled to the reference speed.

The benchmark's 2-core reference machine is shared, and its speed swings
by a third or more in spells that last from a second to minutes. The
cause is outside the process: CPU time equals wall time through a slow
spell, and a pure-Python loop slows in step with the program (README,
"Noise"). So the probe samples the speed while the program runs. Every
``INTERVAL_S`` of wall time a SIGALRM handler times a fixed pure-Python
kernel, which runs between two bytecodes of the program. An interval of
wall time is then reported at the reference speed: its length less the
probe's own time, times ``REFERENCE_KERNEL_S`` over the mean kernel time
sampled within it. The kernel is the benchmark's own code, so a change to
the program moves the scaled times and not the scale.
"""

from __future__ import annotations

import bisect
import signal
import time

#: wall seconds between two kernel samples
INTERVAL_S = 0.02
#: median kernel time on the reference machine, sampled while the workloads run
REFERENCE_KERNEL_S = 2.3e-4

_clock = time.perf_counter


def _kernel() -> int:
    """About 0.2 ms of dict, integer and string work, the same on every call."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(600):
        counts[i % 61] = counts.get(i % 61, 0) + i
        total += i * i
    return total + len(",".join([format(i * 0.37, ".6g") for i in range(40)]))


class SpeedProbe:
    """Kernel times sampled on a wall-clock timer: (start, seconds) in order."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = _clock()
        _kernel()
        self.seconds.append(_clock() - t0)
        self.starts.append(t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds of the wall interval [t0, t1] at the reference speed.

        An interval too short to hold a sample takes the last sample before it.
        """
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        inside = self.seconds[i:j] or self.seconds[max(i - 1, 0):i]
        if not inside:
            raise RuntimeError("no speed sample taken before this interval")
        own = sum(self.seconds[i:j])
        return (t1 - t0 - own) * REFERENCE_KERNEL_S * len(inside) / sum(inside)

    def kernel_median_s(self) -> float:
        ordered = sorted(self.seconds)
        return ordered[len(ordered) // 2]

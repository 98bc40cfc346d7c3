"""Convert measured seconds to seconds at a fixed reference CPU speed.

The 2-vCPU host this benchmark was written on runs one process at speeds
that differ by up to 2x, in phases lasting from seconds to minutes.  The
same workload's wall time then spreads by 15-40% (IQR over median) from
run to run, wider than any useful regression bound, and taking more or
longer iterations does not help much because the phases are long.

The gauge samples the speed while the program runs: a SIGALRM handler
times a fixed piece of pure-Python work every 50 ms.  An interval's reference time
is its measured time, less the probes inside it, times the mean of
REFERENCE_PROBE_S / probe over the probes in and around it.  On that host
ten runs of each workload then spread by 2-9% instead of 15-40%.  The
probe is benchmark code, so a change to the program moves the reference
time as much as it moves the measured time.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
PROBE_LOOP = 400
WIDE_OPS = 100
_WIDE = ((1 << 16384) - 1) // 3  # alternating bits
REFERENCE_PROBE_S = 400e-6  # reference seconds equal measured seconds at this probe time
MARGIN_S = 0.5  # probes this close to an interval also describe it


class SpeedGauge:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds) of each probe

    def _probe(self, signum, frame) -> None:
        # The kinds of work the program does: small-integer arithmetic, the
        # text handling of MCIRC I/O (formatting, split, int) with list growth,
        # and AND/OR over 16384-bit integers as in bit-parallel evaluation.
        start = time.perf_counter()
        x = 0
        lines = []
        for i in range(PROBE_LOOP):
            x += i
            lines.append(f"G AND {i} {x}")
        for line in lines:
            x ^= int(line.split()[3])
        wide = 0
        for _ in range(WIDE_OPS):
            wide = (wide ^ _WIDE) | (_WIDE >> 1)
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "SpeedGauge":
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_seconds(self, start: float, end: float) -> float:
        """Seconds the interval [start, end] would take at the reference speed."""
        probed = sum(d for t, d in self.samples if start <= t <= end)
        near = [d for t, d in self.samples if start - MARGIN_S <= t <= end + MARGIN_S]
        if not near:
            raise RuntimeError("no speed probe ran near a timed interval")
        return (end - start - probed) * statistics.mean(REFERENCE_PROBE_S / d for d in near)

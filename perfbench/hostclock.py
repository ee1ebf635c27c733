"""Times on a host whose speed drifts, scaled to a reference speed.

The benchmark runs on shared virtual machines whose speed swings by up
to 2x within seconds, in wall time and CPU time alike, so a plain
timer measures the neighbours as much as the program.  While a
HostClock runs, an interval timer interrupts the process every
SAMPLE_EVERY_S seconds and times a fixed piece of work (a sample) in
the signal handler, wherever the program happens to be.  A stretch of
work measured between two perf_counter() readings is then worth

    (its seconds - the samples' seconds inside it)
        * REF_SAMPLE_S / (mean seconds of the samples taken during it)

reference seconds: the time it would have taken on a host that runs the
sample in REF_SAMPLE_S.  Work shorter than MIN_SAMPLES samples borrows
the samples nearest to it.  The slowest eighth of the samples is left
out of the mean: one sample that the kernel happened to preempt would
outweigh many ordinary ones.

A sample does the two kinds of work the package does, for about equal
time: exact Fraction elimination, and building, parsing and formatting
small JSON documents.  A slow host does not slow both kinds alike: on a
2.0 GHz Xeon virtual machine, a mix of both tracked long, arithmetic-
bound questions and millisecond, report-bound questions alike, while
either kind alone tracked only its own.  A sample runs no package code,
so a change of the package moves the reference times and a change of
host speed does not.
"""

from __future__ import annotations

import bisect
import gc
import json
import signal
import statistics
import time
from fractions import Fraction

SAMPLE_EVERY_S = 0.02
MIN_SAMPLES = 8
# One sample on a quiet core of a 2.0 GHz Xeon virtual machine.
REF_SAMPLE_S = 0.0008

_DOCUMENT = {
    "algebra": {"vertices": [f"v{i}" for i in range(6)],
                "arrows": [{"name": f"a{i}", "from": f"v{i}",
                            "to": f"v{i + 1}"} for i in range(5)]},
    "maps": {f"a{i}": [[str(i * j - 3) for j in range(3)]] * 3
             for i in range(5)},
}


def sample_work(n: int = 5, documents: int = 12) -> None:
    """Gauss-Jordan elimination of the n x n Hilbert matrix, then
    `documents` JSON round trips of a small module-like document."""
    rows = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = rows[col][col]
        rows[col] = [x / pivot for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    for _ in range(documents):
        doc = json.loads(json.dumps(_DOCUMENT))
        sorted(doc["maps"].items())
        [f"{key}: {value}" for key, value in doc["algebra"].items()]


class HostClock:
    """Samples host speed while running; see the module docstring."""

    def __init__(self):
        self.starts: list[float] = []     # perf_counter() at each sample
        self.seconds: list[float] = []    # each sample's duration
        self._previous = None

    def _sample(self, signum, frame) -> None:
        # a collection of the program's garbage is no part of a sample
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        sample_work()
        self.seconds.append(time.perf_counter() - start)
        self.starts.append(start)
        if collecting:
            gc.enable()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def __enter__(self) -> "HostClock":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def reference(self, start: float, end: float) -> float:
        """Reference seconds of the work between two perf_counter()
        readings; call it once samples after `end` have been taken."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        busy = (end - start) - sum(self.seconds[lo:hi])
        # widen to the nearest samples until there are MIN_SAMPLES
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            if hi == len(self.starts) or (
                    lo > 0 and start - self.starts[lo - 1]
                    <= self.starts[hi] - end):
                lo -= 1
            else:
                hi += 1
        if lo == hi:
            raise RuntimeError("the host clock took no samples")
        kept = sorted(self.seconds[lo:hi])
        kept = kept[:len(kept) - len(kept) // 8] if len(kept) > 1 else kept
        return busy * REF_SAMPLE_S / statistics.fmean(kept)

    def median_sample_s(self) -> float:
        return statistics.median(self.seconds)

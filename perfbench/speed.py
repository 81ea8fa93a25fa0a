"""Machine-speed sampling, so that timings on a shared host can be scaled to
one reference speed.

On a 2-core virtual machine the interpreter's speed drifts by 20% and more
between runs minutes apart, because of load outside the machine.  A
`SpeedProbe` runs a short fixed pure-Python loop from a SIGALRM handler
every `interval` seconds while ops run, in the main thread between
bytecodes, and records each burst's start and end.  An op's time excludes
the bursts inside it, and its scaled time is that time multiplied by
REFERENCE_BURST_S over the mean burst time inside the op: the op's seconds
at the speed where one burst takes REFERENCE_BURST_S.
"""

from __future__ import annotations

import signal
import statistics
import time

BURST_ITERATIONS = 15_000
REFERENCE_BURST_S = 0.01


def burst_seconds(iterations: int = BURST_ITERATIONS) -> float:
    """Seconds taken by fixed work of the kinds the program's hot loops do:
    set membership and updates, dict and list updates, float arithmetic."""
    start = time.perf_counter()
    members, counts, slots, total = set(), {}, [0] * 64, 0.0
    for i in range(iterations):
        key = i & 1023
        if key in members:
            members.discard(key)
        else:
            members.add(key)
        counts[key] = counts.get(key, 0) + 1
        slots[i & 63] += 1
        total += i * 0.5
    return time.perf_counter() - start


class SpeedProbe:
    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.bursts: list[tuple[float, float]] = []
        self._sampling = False

    def _sample(self, signum, frame) -> None:
        # a burst slower than the interval must not start a nested burst
        if self._sampling:
            return
        self._sampling = True
        try:
            start = time.perf_counter()
            self.bursts.append((start, start + burst_seconds()))
        finally:
            self._sampling = False

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, call):
        """Run `call()`; return its result, its seconds without the bursts
        that ran inside it, and those seconds scaled to the reference speed."""
        start = time.perf_counter()
        result = call()
        end = time.perf_counter()
        inside = [b - a for a, b in self.bursts if a >= start and b <= end]
        seconds = end - start - sum(inside)
        mean_burst = statistics.fmean(inside) if inside else burst_seconds()
        return result, seconds, scale(seconds, mean_burst)


def scale(seconds: float, mean_burst: float) -> float:
    """`seconds` at the speed where one burst takes REFERENCE_BURST_S."""
    return seconds * REFERENCE_BURST_S / mean_burst

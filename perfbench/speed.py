"""Machine speed, sampled while a pass runs, and times scaled by it.

On a shared machine the same code runs up to about 1.8 times slower in
spells that last from seconds to minutes, so raw wall times of one pass
moved by 40% between runs.  A timer signal interrupts the pass every
INTERVAL_S seconds and times a fixed probe of interpreter and numpy
work.  A stretch of the pass then counts its own time, less the probes
inside it, scaled by (REFERENCE_S / mean probe time around it) **
SENSITIVITY: seconds at the speed at which the probe takes REFERENCE_S.
"""
from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.1
REFERENCE_S = 0.005  # the probe's time on an idle 2-core x86-64 machine
# The pipeline slows more than the probe: over 727 alternating pairs of
# probe and pipeline-like work (parse, normalize, mean-pool forward and
# backward), log(work time) against log(probe time) had slope 1.21.
SENSITIVITY = 1.2

_TEXT = ("func f(a, b) { var x = a * 3 + b; return x % 7; }\n" * 30).split()
_M = np.random.default_rng(0).standard_normal((40, 40)) / 8


def to_reference(seconds: float, probe_s: float) -> float:
    """`seconds` measured while the probe took `probe_s`, in reference seconds."""
    return seconds * (REFERENCE_S / probe_s) ** SENSITIVITY


def probe() -> float:
    """Seconds for a fixed mix of interpreter and numpy work."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for _ in range(40):
        for word in _TEXT:
            counts[word] = counts.get(word, 0) + len(word)
    m = _M
    for _ in range(300):
        m = np.tanh(m @ _M)
    return time.perf_counter() - start


class SpeedMeter:
    """Probe samples (start time, duration) taken on a timer during a pass."""

    def __init__(self) -> None:
        probe()  # first call pays numpy's one-off costs
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        self.durations.append(probe())
        self.starts.append(start)

    def __enter__(self) -> "SpeedMeter":
        self.sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scaled(self, begin: float, end: float) -> tuple[float, float]:
        """(seconds less probes, reference seconds) of the stretch begin..end."""
        lo = bisect.bisect_left(self.starts, begin)
        hi = bisect.bisect_left(self.starts, end)
        inside = self.durations[lo:hi]
        # the samples inside, and the nearest one on either side
        around = self.durations[max(0, lo - 1):min(len(self.durations), hi + 1)]
        net = (end - begin) - sum(inside)
        return net, to_reference(net, sum(around) / len(around))

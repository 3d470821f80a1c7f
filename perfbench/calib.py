"""Host-speed normalisation for wall-clock timings.

Each vCPU of a shared host drifts in speed (up to ~2x at one-second
scale), so raw wall time of a fixed piece of work does not repeat.  A
:class:`Sampler` times a short fixed interpreter loop every 20 ms of
process CPU time (``SIGPROF``), inside the very thread doing the work:
the loop runs between two bytecodes of the workload, on the same vCPU,
with the same warm caches.  ``time.thread_time`` excludes the moments
the thread was not running, so a sample measures how fast the vCPU
executes, not how busy it is.

A wall-clock interval is then rescaled to the fixed reference speed
:data:`REF_CALIB_MS`: work that took ``raw`` seconds while the loop took
``c`` ms reads ``raw * REF_CALIB_MS / c`` reference seconds.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

#: Iterations of the calibration loop (about 0.45 ms on a fast vCPU).
CALIB_LOOPS = 4000
#: Milliseconds one calibration loop takes at the reference speed.  A
#: fixed constant of the benchmark, so normalised times are comparable
#: across commits and runs.
REF_CALIB_MS = 0.45
#: Minimum number of samples a normalised interval is judged on; shorter
#: intervals widen their window around their centre until they hold this
#: many.
MIN_SAMPLES = 15
#: Slice length of :func:`normalised_interval`, in seconds.
SLICE_S = 0.25


def calib_loop(n: int = CALIB_LOOPS) -> float:
    """Thread CPU milliseconds of a fixed dict/int interpreter loop."""
    table: dict[int, int] = {}
    start = time.thread_time_ns()
    for i in range(n):
        key = i & 255
        if key in table:
            table[key] += i
        else:
            table[key] = i
    return (time.thread_time_ns() - start) / 1e6


def normalised_seconds(raw_s: float, calib_ms: float, ref_ms: float = REF_CALIB_MS) -> float:
    """Rescale ``raw_s`` seconds measured while the loop took ``calib_ms``."""
    if calib_ms <= 0:
        raise ValueError("calibration time must be positive")
    return raw_s * ref_ms / calib_ms


def window_median(samples: list[tuple[float, float]], start: float, stop: float,
                  min_samples: int = MIN_SAMPLES) -> float:
    """Median calibration ms of the ``(perf_counter, ms)`` samples in ``[start, stop]``.

    When the interval holds fewer than ``min_samples`` samples, the
    window grows around its centre until it does (or the samples run
    out).
    """
    if not samples:
        raise ValueError("no calibration samples")
    inside = [ms for t, ms in samples if start <= t <= stop]
    if len(inside) >= min_samples:
        return statistics.median(inside)
    centre = (start + stop) / 2
    nearest = sorted(samples, key=lambda s: abs(s[0] - centre))
    return statistics.median(ms for _, ms in nearest[:min_samples])


def normalised_interval(samples: list[tuple[float, float]], start: float, stop: float,
                        slice_s: float = SLICE_S) -> float:
    """Reference seconds of the wall-clock interval ``[start, stop]``.

    The interval is cut into slices of about ``slice_s`` seconds, each
    rescaled by the calibration samples around it, so drift within a long
    interval is followed rather than averaged.
    """
    pieces = max(1, round((stop - start) / slice_s))
    width = (stop - start) / pieces
    total = 0.0
    for i in range(pieces):
        lo = start + i * width
        total += normalised_seconds(width, window_median(samples, lo, lo + width))
    return total


class Sampler:
    """Signal-driven calibration samples of the calling (main) thread.

    ``perf_counter`` is the system-wide monotonic clock on Linux, so
    samples taken in a child process (see ``perfbench/launch.py``) can
    normalise intervals timed in the parent.
    """

    def __init__(self, period: float = 0.02) -> None:
        self.period = period
        self.samples: list[tuple[float, float]] = []
        self._busy = False

    def _on_signal(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.samples.append((time.perf_counter(), calib_loop()))
        finally:
            self._busy = False

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.period, self.period)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        previous = self._previous
        signal.signal(signal.SIGPROF, signal.SIG_IGN if previous is None else previous)

    def __enter__(self) -> "Sampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def normalise(self, start: float, stop: float) -> float:
        """Reference seconds of the wall-clock interval ``[start, stop]``."""
        return normalised_interval(self.samples, start, stop)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.samples, fh)

    @classmethod
    def load(cls, path) -> "Sampler":
        sampler = cls()
        with open(path, encoding="utf-8") as fh:
            sampler.samples = [tuple(s) for s in json.load(fh)]
        return sampler

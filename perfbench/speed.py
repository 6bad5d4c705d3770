"""Machine-speed normalisation for timings on a shared, noisy host.

On a host shared with other tenants the same Python work runs up to about
twice as fast at one minute as at another (on a shared 2-vCPU x86 host at
2.0 GHz, a fixed dict/sort loop took 0.060 s to 0.14 s per iteration
within 30 s, and whole benchmark runs drifted 2x over minutes).  Medians
within a run cannot remove drift that spans the run.

:class:`SpeedSampler` therefore measures the host's speed *while the
benchmark runs*: an interval timer interrupts the process every
``INTERVAL_S`` and the signal handler times a few units of a fixed
reference loop (dict updates and a sort, like the analysis code).  Every
timed section is then reported as

    (wall clock - time spent in the handler) x REFERENCE_UNIT_S / unit time

i.e. in seconds *at the reference speed* (the unit time of the reference
loop on a quiet host), using the samples taken during that section.  The
handler time is subtracted, so the sampler's own cost is not reported.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds per reference unit on a quiet host (the normalisation target).
REFERENCE_UNIT_S = 8e-4
INTERVAL_S = 0.1
UNITS_PER_SAMPLE = 4
#: Sections with fewer samples than this use the most recent samples.
MIN_SAMPLES = 3


def reference_unit() -> list[int]:
    counts: dict[tuple[str, int], int] = {}
    for i in range(3000):
        key = ("t", i % 257)
        counts[key] = counts.get(key, 0) + i
    return sorted(counts.values())


class SpeedSampler:
    """Samples the reference unit time on an interval timer."""

    def __init__(self) -> None:
        #: (perf_counter at sample end, seconds per unit)
        self.samples: list[tuple[float, float]] = []
        #: total seconds spent inside the handler
        self.stolen_s = 0.0
        self._previous = None

    def sample(self, *_: object) -> None:
        started = time.perf_counter()
        for _unit in range(UNITS_PER_SAMPLE):
            reference_unit()
        ended = time.perf_counter()
        self.samples.append((ended, (ended - started) / UNITS_PER_SAMPLE))
        self.stolen_s += ended - started

    def __enter__(self) -> "SpeedSampler":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def unit_time(self, start: float, end: float) -> float:
        """Mean unit time of the samples taken in ``[start, end]``."""
        inside = [unit for stamp, unit in self.samples if start <= stamp <= end]
        if len(inside) < MIN_SAMPLES:
            inside = [unit for _, unit in self.samples[-MIN_SAMPLES:]]
        return statistics.fmean(inside)


class Section:
    """One timed section.

    ``seconds`` is the section's time at the reference speed (raw wall
    clock when ``sampler`` is ``None``) and ``scale`` the factor applied
    to its wall clock.
    """

    def __init__(self, sampler: SpeedSampler | None) -> None:
        self.sampler = sampler

    def __enter__(self) -> "Section":
        self._stolen = self.sampler.stolen_s if self.sampler is not None else 0.0
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        wall = end - self.start
        self.scale = 1.0
        if self.sampler is not None:
            wall -= self.sampler.stolen_s - self._stolen
            self.scale = REFERENCE_UNIT_S / self.sampler.unit_time(self.start, end)
        self.seconds = wall * self.scale

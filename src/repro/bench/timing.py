"""Wall-clock measurement helpers for the real-thread benchmarks.

The guides' first rule — *no optimization without measuring* — applied:
repeated timed runs, summary statistics, and a confidence interval (via
scipy's t distribution when the sample supports one).  Virtual-time
experiments do not need any of this (they are exact); these helpers serve
the E8/E9 synchronization-overhead measurements on real threads.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["Timing", "measure"]


@dataclass(frozen=True, slots=True)
class Timing:
    """Summary of repeated wall-clock measurements (seconds)."""

    samples: tuple[float, ...]

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples)

    @property
    def minimum(self) -> float:
        return min(self.samples)

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    @property
    def iqr(self) -> float:
        """Interquartile range (inclusive quartiles; 0 for one sample)."""
        if len(self.samples) < 2:
            return 0.0
        q1, _, q3 = statistics.quantiles(self.samples, n=4, method="inclusive")
        return q3 - q1

    @property
    def stdev(self) -> float:
        return statistics.stdev(self.samples) if len(self.samples) > 1 else 0.0

    def confidence_interval(self, level: float = 0.95) -> tuple[float, float]:
        """Two-sided CI for the mean (t distribution; degenerate for n=1)."""
        n = len(self.samples)
        if n < 2:
            return (self.mean, self.mean)
        try:
            from scipy import stats

            half = stats.t.ppf(0.5 + level / 2, n - 1) * self.stdev / math.sqrt(n)
        except ImportError:  # pragma: no cover - scipy is installed here
            half = 1.96 * self.stdev / math.sqrt(n)
        return (self.mean - half, self.mean + half)

    def __str__(self) -> str:
        low, high = self.confidence_interval()
        return f"{self.mean * 1e3:.3f} ms (95% CI [{low * 1e3:.3f}, {high * 1e3:.3f}], n={len(self.samples)})"


def measure(fn: Callable[[], object], *, repeats: int = 5, warmup: int = 1) -> Timing:
    """Time ``fn()`` ``repeats`` times after ``warmup`` unrecorded runs."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return Timing(samples=tuple(samples))

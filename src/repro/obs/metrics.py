"""Per-counter latency/shape metrics with a Prometheus-able export.

The §4/§5 performance-shape claims are about *where threads wait and for
how long*; these metrics quantify exactly that on a live system:

* ``wait_latency`` — park to unpark, per suspended ``check`` (how long
  waits actually are);
* ``wakeup_latency`` — release decision to unpark (the wakeup path PR-2
  optimized, measured end to end in production rather than only on the
  bench);
* ``live_levels`` / ``live_waiters`` high-water marks — the L of the
  paper's O(L) bounds, observed rather than asserted.

Histograms are exponential-bucket and **lock-free-ish**: ``observe``
stages the raw sample in a bounded deque (one C ``append``, the
cheapest thing the hot path can do) and the bucket/count/sum rollup
happens lazily when a reader looks — so concurrent observations can
occasionally lose a race and undercount, and a reader that never
scrapes loses the oldest staged samples once the staging deque wraps
(64Ki per histogram — scrape more often than that per series for exact
tallies).  Observability must never serialize the paths it observes;
bounds, not bookkeeping, are exact.

The per-series tallies (``parks``, ``unparks``, ``releases``,
``timeouts``, the two high waters) are the package's one record of the
§7 observables: the E8 benchmarks and the core tests read them under
:func:`repro.obs.observe`.  The lock-free ``check`` fast path is not
counted — it carries no instrumentation at all.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import deque

from repro.obs.fleet import render_snapshot

__all__ = [
    "Histogram",
    "HistogramMark",
    "CounterMetrics",
    "MetricsRegistry",
    "LATENCY_BOUNDS",
    "quantile_from_buckets",
]

#: Exponential latency buckets: 1µs .. ~8s, doubling.  The +Inf bucket is
#: implicit (the final slot of ``Histogram.buckets``).
LATENCY_BOUNDS: tuple[float, ...] = tuple(1e-6 * 2**k for k in range(24))


def quantile_from_buckets(
    bounds: tuple[float, ...], buckets, count: int, q: float
) -> float:
    """Approximate quantile over a raw bucket vector (upper bucket bound).

    The shared implementation behind :meth:`Histogram.quantile` and the
    interval-delta :meth:`HistogramMark.quantile`: ``buckets[i]`` counts
    observations ``<= bounds[i]``, the final slot is +Inf.  Returns 0.0
    for an empty vector.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if count <= 0:
        return 0.0
    rank = q * count
    seen = 0
    for i, n in enumerate(buckets):
        seen += n
        if seen >= rank:
            return bounds[i] if i < len(bounds) else float("inf")
    return float("inf")


class HistogramMark:
    """A frozen bucket/count/sum triple: a cursor into a histogram.

    Produced by :meth:`Histogram.mark` (a cumulative cursor) and by
    :meth:`Histogram.since` / :meth:`MetricsRegistry.delta_since` (the
    interval accumulated after a cursor).  Interval marks carry the
    bounds so windowed quantiles read exactly like cumulative ones.
    """

    __slots__ = ("count", "sum", "buckets", "bounds")

    def __init__(self, *, count: int, sum: float, buckets: tuple,
                 bounds: tuple[float, ...] = ()) -> None:
        self.count = count
        self.sum = sum
        self.buckets = buckets
        self.bounds = bounds

    def quantile(self, q: float) -> float:
        return quantile_from_buckets(self.bounds, self.buckets, self.count, q)

    def snapshot(self) -> dict:
        """Same shape as :meth:`Histogram.snapshot`, for the interval."""
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": {
                **{str(b): n for b, n in zip(self.bounds, self.buckets)},
                "+Inf": self.buckets[-1] if self.buckets else 0,
            },
        }


class Histogram:
    """Fixed-bound histogram with racy (lock-free) observation.

    ``buckets[i]`` counts observations ``<= bounds[i]``; the final slot
    counts the overflow (+Inf bucket).  Observation is **write-cheap,
    read-deferred**: ``observe`` stages the raw sample in a bounded
    deque and the bucketization (one ``bisect`` plus the count/sum
    bumps per sample) runs when ``buckets``/``count``/``sum`` is next
    read — off the wait paths being measured.  The obs hooks' hottest
    sites bypass ``observe`` and append to the staging deque's bound C
    ``append`` directly (cached in their emission channel), so keep the
    staging contract in mind when refactoring.  Cumulative counts — the
    Prometheus ``le`` convention — are computed at export time.
    """

    #: Staging capacity per histogram; oldest samples drop if a reader
    #: never drains (see the module docstring).
    STAGING = 65536

    __slots__ = ("bounds", "_buckets", "_count", "_sum", "_pending")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self._buckets = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._pending: deque[float] = deque(maxlen=self.STAGING)

    def observe(self, value: float) -> None:
        # Racy by design: a lost sample under contention is preferable
        # to a lock on the wait path.  See the module docstring.
        self._pending.append(value)

    def _drain(self) -> None:
        """Roll staged samples into the buckets (reader-side, racy-safe).

        ``popleft`` until empty: samples appended concurrently either
        make this sweep or the next one; two concurrent drains can lose
        a bucket-increment race, which is the histogram's documented
        precision anyway.
        """
        pending = self._pending
        if not pending:
            return
        buckets = self._buckets
        bounds = self.bounds
        n = 0
        total = 0.0
        while True:
            try:
                value = pending.popleft()
            except IndexError:
                break
            buckets[bisect_left(bounds, value)] += 1
            n += 1
            total += value
        self._count += n
        self._sum += total

    @property
    def buckets(self) -> list:
        self._drain()
        return self._buckets

    @property
    def count(self) -> int:
        self._drain()
        return self._count

    @property
    def sum(self) -> float:
        self._drain()
        return self._sum

    def quantile(self, q: float) -> float:
        """Approximate quantile (upper bucket bound); 0.0 when empty."""
        self._drain()
        return quantile_from_buckets(self.bounds, self._buckets, self._count, q)

    def snapshot(self) -> dict:
        self._drain()
        return {
            "count": self._count,
            "sum": self._sum,
            "buckets": {
                **{str(b): n for b, n in zip(self.bounds, self._buckets)},
                "+Inf": self._buckets[-1],
            },
        }

    # ------------------------------------------------- interval snapshots

    def mark(self) -> "HistogramMark":
        """Freeze the cumulative state for a later :meth:`since` read.

        Non-destructive: marks are reader-side bookkeeping, the
        cumulative buckets are never reset — so any number of
        independent readers (a sliding SLO window, a Prometheus scrape,
        an interval report) can window the same histogram without
        stealing each other's samples.
        """
        self._drain()
        return HistogramMark(
            count=self._count, sum=self._sum,
            buckets=tuple(self._buckets), bounds=self.bounds,
        )

    def since(self, mark: "HistogramMark") -> "HistogramMark":
        """The interval delta accumulated after ``mark`` was taken.

        Returns another :class:`HistogramMark` (a plain bucket/count/sum
        triple), so interval quantiles come from
        :meth:`HistogramMark.quantile` with the same upper-bound
        convention as the cumulative :meth:`quantile`.
        """
        self._drain()
        if mark.count > self._count:
            # The histogram was replaced/reset under the mark: fall back
            # to the full cumulative state rather than negative deltas.
            return HistogramMark(
                count=self._count, sum=self._sum,
                buckets=tuple(self._buckets), bounds=self.bounds,
            )
        return HistogramMark(
            count=self._count - mark.count,
            sum=self._sum - mark.sum,
            buckets=tuple(n - o for n, o in zip(self._buckets, mark.buckets)),
            bounds=self.bounds,
        )


class CounterMetrics:
    """One counter's (or one label's) metric series."""

    __slots__ = (
        "wait_latency",
        "wakeup_latency",
        "live_levels_hw",
        "live_waiters_hw",
        "increments",
        "releases",
        "parks",
        "unparks",
        "timeouts",
    )

    def __init__(self) -> None:
        self.wait_latency = Histogram(LATENCY_BOUNDS)
        self.wakeup_latency = Histogram(LATENCY_BOUNDS)
        self.live_levels_hw = 0
        self.live_waiters_hw = 0
        self.increments = 0
        self.releases = 0
        self.parks = 0
        self.unparks = 0
        self.timeouts = 0

    def note_levels(self, live_levels: int, live_waiters: int) -> None:
        # High-water updates lose races harmlessly: a stale maximum is
        # corrected by the next observation at or above it.
        if live_levels > self.live_levels_hw:
            self.live_levels_hw = live_levels
        if live_waiters > self.live_waiters_hw:
            self.live_waiters_hw = live_waiters

    def snapshot(self) -> dict:
        return {
            "increments": self.increments,
            "releases": self.releases,
            "parks": self.parks,
            "unparks": self.unparks,
            "timeouts": self.timeouts,
            "live_levels_hw": self.live_levels_hw,
            "live_waiters_hw": self.live_waiters_hw,
            "wait_latency": self.wait_latency.snapshot(),
            "wakeup_latency": self.wakeup_latency.snapshot(),
        }


class MetricsRegistry:
    """Label-keyed :class:`CounterMetrics` with dict and Prometheus export.

    Series creation takes a small lock (rare); every subsequent
    observation is a plain dict hit plus the histogram's lock-free bump.
    Labels come from the counter's ``name`` when given, else a
    per-instance ``ClassName@0x...`` — name your long-lived counters so
    their series are stable across restarts.  ``max_series`` bounds the
    registry against label churn from short-lived unnamed counters;
    overflowed observations are tallied in ``dropped_series`` and folded
    into a shared ``"(overflow)"`` series rather than silently vanishing.
    """

    OVERFLOW_LABEL = "(overflow)"

    __slots__ = ("_series", "_lock", "max_series", "dropped_series")

    def __init__(self, max_series: int = 1024) -> None:
        if not isinstance(max_series, int) or isinstance(max_series, bool) or max_series < 1:
            raise ValueError(f"max_series must be a positive int, got {max_series!r}")
        self._series: dict[str, CounterMetrics] = {}
        self._lock = threading.Lock()
        self.max_series = max_series
        self.dropped_series = 0

    def series(self, label: str) -> CounterMetrics:
        metrics = self._series.get(label)
        if metrics is not None:
            return metrics
        with self._lock:
            metrics = self._series.get(label)
            if metrics is None:
                if len(self._series) >= self.max_series and label != self.OVERFLOW_LABEL:
                    self.dropped_series += 1
                    label = self.OVERFLOW_LABEL
                    metrics = self._series.get(label)
                if metrics is None:
                    metrics = self._series[label] = CounterMetrics()
        return metrics

    def labels(self) -> list[str]:
        return sorted(self._series)

    # ------------------------------------------------- interval snapshots

    _HISTOGRAMS = ("wait_latency", "wakeup_latency")
    _TALLIES = ("increments", "releases", "parks", "unparks", "timeouts")

    def mark(self) -> dict:
        """Freeze every series' cumulative state for :meth:`delta_since`.

        Non-destructive (satellite of ISSUE 10): the fix for "snapshot
        has no way to window a histogram" is a reader-side cursor, not a
        reset — resetting would steal samples from every other consumer
        of the same registry (the Prometheus endpoint, a second SLO
        window).  Any number of marks may be outstanding at once.
        """
        out: dict = {}
        with self._lock:
            series = list(self._series.items())
        for label, m in series:
            out[label] = {
                "tallies": {t: getattr(m, t) for t in self._TALLIES},
                "histograms": {h: getattr(m, h).mark() for h in self._HISTOGRAMS},
            }
        return out

    def delta_since(self, mark: dict) -> dict:
        """Snapshot-shaped per-series deltas accumulated after ``mark``.

        Series born after the mark report their full cumulative state
        (their delta since a zero baseline).  The returned histograms
        are :class:`HistogramMark` interval objects — call
        ``.quantile(q)`` for windowed percentiles or ``.snapshot()``
        for the dict form.
        """
        out: dict = {}
        with self._lock:
            series = list(self._series.items())
        for label, m in series:
            base = mark.get(label)
            tallies = {}
            for t in self._TALLIES:
                now = getattr(m, t)
                before = base["tallies"].get(t, 0) if base else 0
                tallies[t] = now - before if now >= before else now
            histograms = {}
            for h in self._HISTOGRAMS:
                hist: Histogram = getattr(m, h)
                if base and h in base["histograms"]:
                    histograms[h] = hist.since(base["histograms"][h])
                else:
                    histograms[h] = hist.mark()
            out[label] = {"tallies": tallies, "histograms": histograms}
        return out

    def snapshot(self) -> dict:
        """Dict export: every per-label series.

        Includes a ``trace`` section with the *active* trace ring's
        health (``None`` when tracing is off): a scrape that sees
        ``dropped`` climbing knows its JSONL sink is losing history.
        """
        return {
            "series": {label: m.snapshot() for label, m in sorted(self._series.items())},
            "trace": self._trace_health(),
            "dropped_series": self.dropped_series,
        }

    @staticmethod
    def _trace_health() -> dict | None:
        """The live trace ring's counters (hooks imported lazily: it imports us)."""
        from repro.obs import hooks

        trace = hooks._trace
        if trace is None:
            return None
        return {
            "emitted": trace.emitted,
            "dropped": trace.dropped,
            "sink_errors": trace.sink_errors,
            "buffered": len(trace),
            "capacity": trace.capacity,
        }

    # ----------------------------------------------------------- Prometheus

    def prometheus(self) -> str:
        """The registry in Prometheus text exposition format.

        Rendered from :meth:`snapshot` by
        :func:`repro.obs.fleet.render_snapshot`, the function the fleet
        scrape uses too.
        """
        lines = render_snapshot(self.snapshot())
        lines.append("")
        return "\n".join(lines)

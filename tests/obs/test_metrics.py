"""Histograms, the metrics registry, and its one tally system.

The histogram tests pin the bucket discipline (``buckets[i]`` counts
observations ``<= bounds[i]``, +Inf overflow slot, cumulative-``le``
computed only at export time); the registry tests pin label lifecycle
(creation, overflow into the shared ``"(overflow)"`` series) and the two
export surfaces (dict snapshot, Prometheus text).  The unification tests
pin that the per-label series are the only tallies: a counter's
operations appear in both exports under its label, and neither export
carries a second (per-counter ``stats``) family.
"""

from __future__ import annotations

import pytest

import repro.obs as obs
from repro.core import CheckTimeout, MonotonicCounter
from repro.obs import CounterMetrics, Histogram, MetricsRegistry
from repro.obs.metrics import LATENCY_BOUNDS
from tests.helpers import join_all, spawn, wait_until


class TestHistogram:
    def test_observations_land_in_the_first_bucket_not_below_them(self):
        hist = Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 4.0, 99.0):
            hist.observe(value)
        # <=1: {0.5, 1.0}; <=2: {1.5}; <=4: {4.0}; +Inf: {99.0}
        assert hist.buckets == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.sum == pytest.approx(106.0)

    def test_quantile(self):
        hist = Histogram(bounds=(1.0, 2.0, 4.0))
        assert hist.quantile(0.5) == 0.0  # empty
        for value in (0.5, 0.5, 1.5, 99.0):
            hist.observe(value)
        assert hist.quantile(0.5) == 1.0
        assert hist.quantile(0.75) == 2.0
        assert hist.quantile(1.0) == float("inf")
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_snapshot_includes_the_overflow_bucket(self):
        hist = Histogram(bounds=(1.0,))
        hist.observe(3.0)
        snap = hist.snapshot()
        assert snap["count"] == 1
        assert snap["buckets"]["+Inf"] == 1
        assert snap["buckets"]["1.0"] == 0

    def test_default_bounds_are_exponential(self):
        assert LATENCY_BOUNDS[0] == pytest.approx(1e-6)
        for lo, hi in zip(LATENCY_BOUNDS, LATENCY_BOUNDS[1:]):
            assert hi == pytest.approx(2 * lo)


class TestMetricsRegistry:
    @pytest.mark.parametrize("max_series", [0, -1, True, 1.5])
    def test_max_series_validation(self, max_series):
        with pytest.raises(ValueError):
            MetricsRegistry(max_series=max_series)

    def test_series_is_created_once_and_reused(self):
        registry = MetricsRegistry()
        series = registry.series("a")
        assert isinstance(series, CounterMetrics)
        assert registry.series("a") is series
        assert registry.labels() == ["a"]

    def test_overflow_folds_into_the_shared_series(self):
        registry = MetricsRegistry(max_series=2)
        registry.series("a")
        registry.series("b")
        overflow = registry.series("c")
        assert overflow is registry.series(registry.OVERFLOW_LABEL)
        assert overflow is registry.series("d")  # still overflowing
        assert registry.dropped_series == 2
        assert registry.snapshot()["dropped_series"] == 2

    def test_note_levels_keeps_high_water_marks(self):
        metrics = CounterMetrics()
        metrics.note_levels(3, 10)
        metrics.note_levels(1, 4)  # below the mark: no regression
        assert metrics.live_levels_hw == 3
        assert metrics.live_waiters_hw == 10


class TestPrometheusExport:
    def _registry_with_data(self):
        registry = MetricsRegistry()
        series = registry.series("the-counter")
        series.increments = 7
        series.parks = 2
        series.wait_latency.observe(0.5e-6)  # first bucket
        series.wait_latency.observe(3e-6)    # third (<=4e-6)
        series.wait_latency.observe(1e9)     # +Inf
        return registry

    def test_counter_and_gauge_lines(self):
        text = self._registry_with_data().prometheus()
        assert '# TYPE repro_counter_increments_total counter' in text
        assert 'repro_counter_increments_total{counter="the-counter"} 7' in text
        assert 'repro_counter_parks_total{counter="the-counter"} 2' in text
        assert '# TYPE repro_counter_live_levels_high_water gauge' in text
        assert text.endswith("\n")

    def test_histogram_lines_are_cumulative(self):
        text = self._registry_with_data().prometheus()
        lines = [
            line for line in text.splitlines()
            if line.startswith("repro_counter_wait_latency_seconds")
        ]
        buckets = [line for line in lines if "_bucket" in line]
        # The le counts never decrease, end at +Inf == _count == 3.
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)
        assert buckets[-1].startswith(
            'repro_counter_wait_latency_seconds_bucket{counter="the-counter",le="+Inf"}'
        )
        assert counts[-1] == 3
        assert any(
            line == 'repro_counter_wait_latency_seconds_count{counter="the-counter"} 3'
            for line in lines
        )

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.series('we"ird\nlabel')
        text = registry.prometheus()
        assert 'counter="we\\"ird\\nlabel"' in text


class TestStatsUnification:
    def test_live_stats_counter_appears_in_both_exports(self):
        obs.enable(trace=False)
        counter = MonotonicCounter(name="unified-stats")
        for _ in range(3):
            counter.increment(1)
        counter.check(2)
        with pytest.raises(CheckTimeout):
            counter.check(9, timeout=0)

        registry = obs.current().metrics
        series = registry.snapshot()["series"]["unified-stats"]
        assert (series["increments"], series["parks"], series["timeouts"]) == (3, 1, 1)

        text = registry.prometheus()
        assert 'repro_counter_increments_total{counter="unified-stats"} 3' in text
        assert 'repro_counter_parks_total{counter="unified-stats"} 1' in text
        assert 'repro_counter_timeouts_total{counter="unified-stats"} 1' in text

    def test_stats_false_counter_contributes_nothing(self):
        """There is no per-counter ``stats`` option left to set, and no
        second tally family in either export."""
        with pytest.raises(TypeError):
            MonotonicCounter(name="no-stats-here", stats=False)
        obs.enable(trace=False)
        MonotonicCounter(name="no-stats-here").increment(1)
        registry = obs.current().metrics
        assert set(registry.snapshot()) == {"series", "trace", "dropped_series"}
        assert "repro_counter_stats" not in registry.prometheus()


class TestEndToEndSeries:
    def test_workload_populates_the_series(self):
        handle = obs.enable(trace=False)
        counter = MonotonicCounter(name="e2e-counter")

        waiters = [spawn(counter.check, 2) for _ in range(3)]
        wait_until(lambda: counter.snapshot().total_waiters == 3)
        counter.increment(2)
        join_all(waiters)
        with pytest.raises(CheckTimeout):
            counter.check(100, timeout=0.01)

        series = handle.metrics.series("e2e-counter")
        assert series.increments == 1
        assert series.parks == 4           # 3 released + 1 timed out
        assert series.unparks == 3
        assert series.timeouts == 1
        assert series.releases == 1        # one node covered all 3 waiters
        assert series.live_waiters_hw >= 3
        assert series.live_levels_hw >= 1
        # Latency histograms: three measured wakeups, four measured waits
        # (the timeout's wait duration is observed too).
        assert series.wakeup_latency.count == 3
        assert series.wait_latency.count == 4

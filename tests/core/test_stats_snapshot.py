"""Counter tallies and snapshot accounting (§7 complexity observables).

The tallies are the :mod:`repro.obs` metric series, read under
``observe()``; call counts come from the test suite's
:class:`~tests.helpers.CallCountingCounter`.
"""

from __future__ import annotations

import pytest

from repro.core import CounterSnapshot, MonotonicCounter, WaitNodeSnapshot
from repro.obs import CounterMetrics, observe
from tests.helpers import CallCountingCounter, join_all, series_of, spawn, wait_until


class TestCounterStats:
    def test_increment_and_immediate_check_tallies(self):
        c = CallCountingCounter()
        with observe(trace=False) as h:
            c.increment(5)
            c.increment(2)
            c.check(3)
            c.check(7)
        tallies = series_of(h, c)
        assert tallies.increments == 2
        assert (c.checks, c.increments) == (2, 2)
        assert tallies.parks == 0  # both checks returned without suspending

    def test_suspended_check_and_node_tallies(self):
        c = MonotonicCounter()
        with observe(trace=False) as h:
            threads = [spawn(lambda: c.check(5)) for _ in range(3)]
            threads.append(spawn(lambda: c.check(9)))
            wait_until(lambda: c.snapshot().total_waiters == 4)
            assert c.snapshot().waiting_levels == (5, 9)  # two distinct levels
            c.increment(9)
            join_all(threads)
        tallies = series_of(h, c)
        assert tallies.parks == 4
        assert tallies.releases == 2
        assert tallies.unparks == 4
        assert tallies.live_levels_hw == 2     # L, not W
        assert tallies.live_waiters_hw == 4

    def test_timeout_tally(self):
        from repro.core import CheckTimeout

        c = MonotonicCounter()
        with observe(trace=False) as h:
            with pytest.raises(CheckTimeout):
                c.check(1, timeout=0.01)
        assert series_of(h, c).timeouts == 1
        assert series_of(h, c).unparks == 0

    def test_stats_snapshot_is_detached(self):
        c = MonotonicCounter()
        with observe(trace=False) as h:
            c.increment(1)
            frozen = series_of(h, c).snapshot()
            c.increment(1)
        assert frozen["increments"] == 1
        assert series_of(h, c).increments == 2

    def test_note_levels_keeps_high_water(self):
        tallies = CounterMetrics()
        tallies.note_levels(3, 10)
        tallies.note_levels(2, 20)
        tallies.note_levels(5, 5)
        assert tallies.live_levels_hw == 5
        assert tallies.live_waiters_hw == 20

    def test_tallies_stay_exact_under_contention(self):
        """Parks, releases and wakeups stay exact when many threads park
        and wake at once; one coalesced release frees all four levels."""
        counter = MonotonicCounter()
        with observe(trace=False) as h:
            waiters = [spawn(counter.check, (w % 4) + 1) for w in range(12)]
            wait_until(lambda: counter.snapshot().total_waiters == 12)
            assert len(counter.snapshot().nodes) == 4
            counter.increment(4)
            join_all(waiters)
        tallies = series_of(h, counter)
        assert tallies.parks == 12
        assert tallies.unparks == 12
        assert tallies.releases == 4
        assert tallies.timeouts == 0
        assert tallies.live_waiters_hw == 12
        assert tallies.live_levels_hw == 4


class TestSnapshot:
    def test_empty_snapshot(self):
        c = MonotonicCounter()
        snapshot = c.snapshot()
        assert snapshot == CounterSnapshot(value=0, nodes=())
        assert snapshot.waiting_levels == ()
        assert snapshot.total_waiters == 0

    def test_snapshot_is_immutable(self):
        snapshot = CounterSnapshot(value=1, nodes=(WaitNodeSnapshot(2, 1),))
        with pytest.raises(AttributeError):
            snapshot.value = 5
        with pytest.raises(AttributeError):
            snapshot.nodes[0].count = 9

    def test_snapshot_str_renders_chain(self):
        snapshot = CounterSnapshot(
            value=7, nodes=(WaitNodeSnapshot(9, 2, False), WaitNodeSnapshot(12, 1, True))
        )
        text = str(snapshot)
        assert "value=7" in text
        assert "level=9" in text and "count=2" in text and "not set" in text
        assert "level=12" in text and "set" in text

    def test_heap_strategy_snapshot_matches_linked(self):
        """Both §7-style implementations expose the same structure."""
        snapshots = []
        for strategy in ("linked", "heap"):
            c = MonotonicCounter(strategy=strategy)
            threads = [spawn(lambda lv=level: c.check(lv)) for level in (8, 3, 8, 5)]
            wait_until(lambda: c.snapshot().total_waiters == 4)
            snapshots.append(c.snapshot())
            c.increment(8)
            join_all(threads)
        assert snapshots[0] == snapshots[1]
        assert snapshots[0].waiting_levels == (3, 5, 8)

    def test_storage_proportional_to_levels_not_waiters(self):
        """E8's storage claim in miniature: 32 waiters on 4 levels -> 4 nodes."""
        c = MonotonicCounter()
        threads = [spawn(lambda lv=(w % 4) + 1: c.check(lv)) for w in range(32)]
        wait_until(lambda: c.snapshot().total_waiters == 32)
        assert len(c.snapshot().nodes) == 4
        c.increment(4)
        join_all(threads)


class TestWaitingLevelsProperty:
    def test_waiting_levels_shortcut(self):
        c = MonotonicCounter()
        threads = [spawn(lambda lv=level: c.check(lv)) for level in (4, 2)]
        wait_until(lambda: c.snapshot().total_waiters == 2)
        assert c.waiting_levels == (2, 4)
        c.increment(4)
        join_all(threads)

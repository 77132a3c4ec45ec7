"""The stall watchdog, driven deterministically.

The positive test is scripted with the testkit :class:`Controller`: the
stalled thread is *gated* at ``park.enter`` (registered on the wait
list, provably going nowhere), and the watchdog's clock is virtual —
``poll(now=...)`` — so crossing the threshold is arithmetic, not
sleeping.  The negative test drives the same machinery over a workload
that makes progress and must stay silent.  Background-thread plumbing
(start/stop/context manager) is tested separately with a real, tiny
threshold.

Every assertion filters reports by the counter's label: the registry is
process-global and other live counters must not confound the test.
"""

from __future__ import annotations

import threading

import pytest

import repro.obs as obs
from repro.core import MonotonicCounter
from repro.obs import StallReport, StallWatchdog, WaitingLevel
from repro.testkit import Controller
from tests.helpers import join_all, spawn, wait_until


def _reports_for(reports, label):
    return [r for r in reports if r.counter == label]


class TestValidation:
    @pytest.mark.parametrize("kwargs", [{"threshold": 0}, {"threshold": -1},
                                        {"interval": 0}, {"interval": -0.5}])
    def test_rejects_non_positive_tuning(self, kwargs):
        with pytest.raises(ValueError):
            StallWatchdog(**kwargs)


class TestScriptedStall:
    def test_gated_checker_is_flagged_with_the_full_dump(self):
        """A checker frozen at ``park.enter`` is the canonical stall: the
        wait node is registered, the thread will never be released, and
        the report must name the counter, the level, the waiter count,
        the value, and every other waiting level on the counter."""
        counter = MonotonicCounter(name="stalled-counter")
        counter.increment(1)
        dog = StallWatchdog(threshold=5.0)
        ctl = Controller()
        ctl.spawn("stuck", counter.check, 10)
        ctl.spawn("stuck2", counter.check, 10)
        ctl.spawn("other", counter.check, 7)
        with ctl:
            ctl.until("stuck", "park.enter")
            ctl.until("stuck2", "park.enter")
            ctl.until("other", "park.enter")

            # Below threshold: first sighting starts the clock, nothing fires.
            assert _reports_for(dog.poll(now=100.0), "stalled-counter") == []
            assert _reports_for(dog.poll(now=104.9), "stalled-counter") == []

            reports = _reports_for(dog.poll(now=105.0), "stalled-counter")
            assert sorted(r.level for r in reports) == [7, 10]
            by_level = {r.level: r for r in reports}
            stalled = by_level[10]
            assert stalled.counter == "stalled-counter"
            assert "stalled-counter" in stalled.counter_repr
            assert stalled.waiters == 2
            assert stalled.value == 1
            assert stalled.stalled_s == pytest.approx(5.0)
            # The who-waits-on-what dump covers BOTH levels in one report.
            assert set(stalled.levels) == {WaitingLevel(10, 2), WaitingLevel(7, 1)}
            assert by_level[7].waiters == 1

            # Without rearm, a still-stalled pair is reported exactly once.
            assert _reports_for(dog.poll(now=200.0), "stalled-counter") == []
            assert len(_reports_for(dog.reports, "stalled-counter")) == 2

            # Unblock everyone and let the schedule finish cleanly.
            counter.increment(9)
            ctl.finish()

        # Progress was made: the pairs are pruned, nothing new fires.
        assert _reports_for(dog.poll(now=300.0), "stalled-counter") == []

    def test_healthy_workload_is_never_flagged(self):
        counter = MonotonicCounter(name="healthy-counter")
        dog = StallWatchdog(threshold=5.0)
        waiter = spawn(counter.check, 1)
        wait_until(lambda: counter.snapshot().total_waiters == 1)
        assert _reports_for(dog.poll(now=0.0), "healthy-counter") == []
        counter.increment(1)          # released well inside the threshold
        join_all([waiter])
        for now in (4.0, 10.0, 100.0):
            assert _reports_for(dog.poll(now=now), "healthy-counter") == []
        assert _reports_for(dog.reports, "healthy-counter") == []

    def test_progress_resets_the_stall_clock(self):
        """A (counter, level) pair that empties and is later re-waited
        starts a fresh clock — continuous waiting is what stalls measure,
        not lifetime occupancy of a level.  The same level is reused so
        this genuinely exercises the per-poll pruning of the tracking
        key, not just two independent keys."""
        from repro.core import CheckTimeout

        counter = MonotonicCounter(name="fresh-clock")
        dog = StallWatchdog(threshold=5.0)

        def impatient():
            with pytest.raises(CheckTimeout):
                counter.check(5, timeout=0.05)

        waiter = spawn(impatient)
        wait_until(lambda: counter.snapshot().total_waiters == 1)
        assert _reports_for(dog.poll(now=0.0), "fresh-clock") == []
        join_all([waiter])  # the wait expires; level 5 empties
        assert _reports_for(dog.poll(now=50.0), "fresh-clock") == []  # pruned

        waiter = spawn(counter.check, 5, 30.0)  # SAME level, new wait
        wait_until(lambda: counter.snapshot().total_waiters == 1)
        # 60 units after the first sighting of the old wait — but the key
        # was pruned, so this wait is first seen at 60 and cannot fire
        # before 65.
        assert _reports_for(dog.poll(now=60.0), "fresh-clock") == []
        assert _reports_for(dog.poll(now=64.0), "fresh-clock") == []
        reports = _reports_for(dog.poll(now=65.0), "fresh-clock")
        assert [r.level for r in reports] == [5]
        assert reports[0].stalled_s == pytest.approx(5.0)
        counter.increment(5)
        join_all([waiter])

    def test_rearm_re_reports_a_persistent_stall(self):
        counter = MonotonicCounter(name="rearm-counter")
        dog = StallWatchdog(threshold=5.0, rearm=10.0)
        waiter = spawn(counter.check, 3, 30.0)  # generous real timeout
        wait_until(lambda: counter.snapshot().total_waiters == 1)

        assert _reports_for(dog.poll(now=0.0), "rearm-counter") == []
        assert len(_reports_for(dog.poll(now=6.0), "rearm-counter")) == 1
        assert _reports_for(dog.poll(now=9.0), "rearm-counter") == []   # armed
        assert _reports_for(dog.poll(now=15.9), "rearm-counter") == []  # not yet
        again = _reports_for(dog.poll(now=16.0), "rearm-counter")
        assert len(again) == 1
        assert again[0].stalled_s == pytest.approx(16.0)

        counter.increment(3)
        join_all([waiter])

    def test_scan_survives_a_broken_counter(self):
        """A registered object whose snapshot raises must be skipped,
        not crash the scan (the watchdog observes wedged systems)."""

        class Broken:
            _name = "broken-counter"

            def snapshot(self):
                raise ZeroDivisionError("boom")

        from repro.obs import registry as obs_registry

        broken = Broken()
        obs_registry.register(broken)
        try:
            counter = MonotonicCounter(name="alongside-broken")
            waiter = spawn(counter.check, 1, 30.0)
            wait_until(lambda: counter.snapshot().total_waiters == 1)
            dog = StallWatchdog(threshold=5.0)
            dog.poll(now=0.0)
            reports = dog.poll(now=6.0)  # must not raise
            assert len(_reports_for(reports, "alongside-broken")) == 1
            counter.increment(1)
            join_all([waiter])
        finally:
            obs_registry.deregister(broken)


class TestDelivery:
    def test_on_stall_callback_and_trace_event(self):
        handle = obs.enable(metrics=False)
        delivered = []
        counter = MonotonicCounter(name="delivered-counter")
        waiter = spawn(counter.check, 2, 30.0)
        wait_until(lambda: counter.snapshot().total_waiters == 1)

        dog = StallWatchdog(threshold=5.0, on_stall=delivered.append)
        dog.poll(now=0.0)
        dog.poll(now=6.0)
        ours = _reports_for(delivered, "delivered-counter")
        assert len(ours) == 1 and isinstance(ours[0], StallReport)

        stalls = [e for e in handle.trace
                  if e.kind == "stall" and e.source == "delivered-counter"]
        assert len(stalls) == 1
        assert stalls[0].level == 2
        assert stalls[0].count == 1          # waiters
        assert stalls[0].wait_s == pytest.approx(6.0)

        counter.increment(2)
        join_all([waiter])

    def test_report_renders_human_readably(self):
        report = StallReport(
            counter="c", counter_repr="<c>", level=4, waiters=2, value=1,
            stalled_s=7.5, levels=(WaitingLevel(4, 2),),
        )
        text = str(report)
        assert "check(4)" in text and "7.5s" in text and "2 waiter(s)" in text


class TestBackgroundThread:
    def test_start_poll_stop(self):
        counter = MonotonicCounter(name="bg-counter")
        waiter = spawn(counter.check, 1, 30.0)
        wait_until(lambda: counter.snapshot().total_waiters == 1)

        fired = threading.Event()

        def on_stall(report):
            if report.counter == "bg-counter":
                fired.set()

        with StallWatchdog(threshold=0.05, interval=0.01,
                           on_stall=on_stall) as dog:
            assert dog.running
            assert fired.wait(10.0)
            with pytest.raises(RuntimeError):
                dog.start()  # already running
        assert not dog.running
        dog.stop()  # idempotent

        counter.increment(1)
        join_all([waiter])

    def test_module_level_singleton(self):
        dog = obs.start_watchdog(threshold=0.05, interval=0.01)
        assert obs.watchdog() is dog
        assert obs.start_watchdog() is dog  # already running: same instance
        obs.stop_watchdog()
        assert obs.watchdog() is None
        assert not dog.running
        obs.stop_watchdog()  # idempotent

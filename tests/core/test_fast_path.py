"""Hammer tests for the lock-free fast paths.

The fast path returns from an *unsynchronized* read of the value.  Its
soundness argument (stability: a stale ``value >= level`` can never be
wrong later) is exactly the kind of claim that needs adversarial
schedules, so these tests race many checkers against incrementers and
assert the two failure modes the argument rules out:

* no stale-read unsoundness — ``check(level)`` never returns while the
  value is below ``level``;
* no lost wakeups — every suspended checker is eventually woken by the
  increment that reaches its level.

All runs are seeded and bounded (generous timeouts fail the test instead
of hanging the suite).
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core import MonotonicCounter
from repro.obs import observe
from tests.helpers import join_all, series_of, spawn, wait_until


@pytest.fixture(params=["linked", "heap"])
def strategy(request):
    return request.param


class TestFastPathSoundness:
    def test_check_never_returns_early(self, strategy):
        """Many checkers racing one incrementer: after check(level)
        returns, value >= level must hold — forever, by stability."""
        c = MonotonicCounter(strategy=strategy)
        top = 200
        violations = []

        def checker(seed: int) -> None:
            rng = random.Random(seed)
            levels = sorted(rng.randrange(1, top + 1) for _ in range(20))
            for level in levels:
                c.check(level, timeout=30)
                observed = c.value
                if observed < level:
                    violations.append((level, observed))

        def incrementer() -> None:
            for _ in range(top):
                c.increment(1)

        threads = [spawn(checker, seed) for seed in range(8)]
        threads.append(spawn(incrementer))
        join_all(threads)
        assert violations == []
        assert c.value == top

    def test_no_lost_wakeups_under_churn(self, strategy):
        """Every checker of every level 1..top completes: the fast path
        must never swallow a wakeup the slow path owed someone."""
        c = MonotonicCounter(strategy=strategy)
        top = 100
        done = threading.Semaphore(0)

        def checker(level: int) -> None:
            c.check(level, timeout=30)
            done.release()

        threads = [spawn(checker, (i % top) + 1) for i in range(3 * top)]
        threads.append(spawn(lambda: [c.increment(1) for _ in range(top)]))
        for _ in range(3 * top):
            assert done.acquire(timeout=30)
        join_all(threads)
        # Everything released: only reclaimable state may remain.
        assert c.snapshot().nodes == ()

    def test_fast_and_locked_paths_agree(self, strategy):
        """Differential: the same seeded scenario through fast_path=True
        and fast_path=False ends in the same state."""
        rng = random.Random(1234)
        amounts = [rng.randrange(0, 4) for _ in range(200)]
        total = sum(amounts)
        level_script = sorted(rng.randrange(0, total + 1) for _ in range(50))
        finals = []
        for fast_path in (True, False):
            c = MonotonicCounter(strategy=strategy, fast_path=fast_path)
            threads = [
                spawn(lambda: [c.check(lv, timeout=30) for lv in level_script])
                for _ in range(4)
            ]
            for amount in amounts:
                c.increment(amount)
            join_all(threads)
            finals.append((c.value, c.snapshot().nodes))
        assert finals[0] == finals[1]

    def test_immediate_checks_do_not_touch_the_lock(self):
        """With the value already reached, check() must complete even while
        another thread holds the counter lock (the point of the fast path)."""
        c = MonotonicCounter()
        c.increment(5)
        with c._lock:  # an eternally-held lock would deadlock the seed path
            c.check(3)
            c.check(5)

    def test_locked_mode_still_blocks_on_lock(self):
        c = MonotonicCounter(fast_path=False)
        c.increment(5)
        acquired = c._lock.acquire()
        try:
            t = spawn(lambda: c.check(1))
            t.join(timeout=0.2)
            assert t.is_alive()  # parked on the lock: no fast path
        finally:
            assert acquired
            c._lock.release()
            t.join(timeout=10)
            assert not t.is_alive()


class TestIncrementFastPath:
    def test_waiterless_increment_skips_release_machinery(self, strategy):
        c = MonotonicCounter(strategy=strategy)
        with observe(trace=False) as h:
            for _ in range(100):
                c.increment(1)
        assert series_of(h, c).releases == 0
        assert c._live_levels == 0
        # No waiter ever registered, so no waiter state was allocated.
        assert not hasattr(c, "_waiters") and not hasattr(c, "_draining")

    def test_live_counts_track_suspend_release_cycles(self, strategy):
        c = MonotonicCounter(strategy=strategy)
        done = threading.Semaphore(0)
        with observe(trace=False) as h:
            threads = [
                spawn(lambda lv=(i % 4) + 1: (c.check(lv, timeout=30), done.release()))
                for i in range(12)
            ]
            # Wait until all 12 are registered in the incremental tallies.
            wait_until(lambda: c._live_waiters == 12)
            assert c._live_levels == 4
            wait_until(lambda: series_of(h, c).parks == 12)
            assert series_of(h, c).live_levels_hw == 4
            assert series_of(h, c).live_waiters_hw == 12
            c.increment(4)
            for _ in range(12):
                assert done.acquire(timeout=30)
            join_all(threads)
        assert c._live_levels == 0
        assert c._live_waiters == 0

    def test_timeout_rolls_back_live_counts(self, strategy):
        from repro.core import CheckTimeout

        c = MonotonicCounter(strategy=strategy)
        for _ in range(5):
            with pytest.raises(CheckTimeout):
                c.check(99, timeout=0.01)
        assert c._live_levels == 0
        assert c._live_waiters == 0
        assert c.snapshot().nodes == ()


class TestStatsOptIn:
    def test_opt_in_counter_records(self):
        """Tallies are opt-in per process, not per counter: nothing is
        recorded while :mod:`repro.obs` is off, and under ``observe()``
        every counter records into its metric series."""
        c = MonotonicCounter()
        c.increment(3)
        with observe(trace=False) as h:
            c.increment(3)
            c.check(1)
            waiter = spawn(c.check, 7)
            wait_until(lambda: c.snapshot().total_waiters == 1)
            c.increment(1)
            join_all([waiter])
        tallies = series_of(h, c)
        assert (tallies.increments, tallies.parks, tallies.unparks) == (2, 1, 1)
        assert not hasattr(c, "stats")

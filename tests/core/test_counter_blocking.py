"""Multithreaded blocking behaviour of the counters (paper §2, §7)."""

from __future__ import annotations

import threading

import pytest

from repro.core import CheckTimeout, MonotonicCounter, ResetConcurrencyError
from repro.obs import observe
from tests.helpers import CallCountingCounter, join_all, series_of, spawn, wait_until


class TestSuspension:
    def test_check_suspends_until_level_reached(self, counter):
        passed = threading.Event()

        def waiter():
            counter.check(5)
            passed.set()

        thread = spawn(waiter)
        counter.increment(4)
        assert not passed.wait(0.05), "check(5) returned at value 4"
        counter.increment(1)
        assert passed.wait(5), "check(5) did not return at value 5"
        join_all([thread])

    def test_one_increment_wakes_all_satisfied_levels(self, counter):
        reached = []
        lock = threading.Lock()

        def waiter(level):
            counter.check(level)
            with lock:
                reached.append(level)

        threads = [spawn(waiter, level) for level in (1, 2, 3, 4, 5)]
        wait_until(lambda: _waiting(counter) == 5)
        counter.increment(3)
        wait_until(lambda: sorted(reached) == [1, 2, 3])
        counter.increment(2)
        join_all(threads)
        assert sorted(reached) == [1, 2, 3, 4, 5]

    def test_many_threads_same_level(self, counter):
        done = threading.Semaphore(0)

        def waiter():
            counter.check(7)
            done.release()

        threads = [spawn(waiter) for _ in range(16)]
        wait_until(lambda: _waiting(counter) == 16)
        counter.increment(7)
        for _ in range(16):
            assert done.acquire(timeout=5)
        join_all(threads)

    def test_overshooting_increment_wakes_waiter(self, counter):
        passed = threading.Event()

        def waiter():
            counter.check(10)
            passed.set()

        thread = spawn(waiter)
        wait_until(lambda: _waiting(counter) == 1)
        counter.increment(1000)  # far past the level
        assert passed.wait(5)
        join_all([thread])

    def test_waiters_released_in_any_interleaving_of_increments(self, counter):
        """Incrementing in many small steps releases each level exactly when
        first reached — no waiter is ever missed (monotonicity §6)."""
        released_at: dict[int, int] = {}
        lock = threading.Lock()

        def waiter(level):
            counter.check(level)
            with lock:
                released_at[level] = counter.value

        threads = [spawn(waiter, level) for level in range(1, 21)]
        wait_until(lambda: _waiting(counter) == 20)
        for _ in range(20):
            counter.increment(1)
        join_all(threads)
        assert set(released_at) == set(range(1, 21))
        for level, seen_value in released_at.items():
            assert seen_value >= level


class TestTimeout:
    def test_check_timeout_raises(self, counter):
        with pytest.raises(CheckTimeout):
            counter.check(1, timeout=0.01)

    def test_check_timeout_zero(self, counter):
        with pytest.raises(CheckTimeout):
            counter.check(1, timeout=0)

    def test_timeout_does_not_perturb_state(self, counter):
        with pytest.raises(CheckTimeout):
            counter.check(5, timeout=0.01)
        assert counter.value == 0
        counter.increment(5)
        counter.check(5)  # still works

    def test_timeout_cleanup_removes_empty_level(self, paper_counter):
        with pytest.raises(CheckTimeout):
            paper_counter.check(5, timeout=0.01)
        assert paper_counter.snapshot().nodes == ()

    def test_timeout_cleanup_keeps_level_with_other_waiters(self, paper_counter):
        passed = threading.Event()

        def patient():
            paper_counter.check(5)
            passed.set()

        thread = spawn(patient)
        wait_until(lambda: _waiting(paper_counter) == 1)
        with pytest.raises(CheckTimeout):
            paper_counter.check(5, timeout=0.01)
        snapshot = paper_counter.snapshot()
        assert snapshot.waiting_levels == (5,)
        assert snapshot.total_waiters == 1
        paper_counter.increment(5)
        assert passed.wait(5)
        join_all([thread])

    def test_check_satisfied_before_timeout(self, counter):
        def bump():
            counter.increment(3)

        thread = spawn(bump)
        counter.check(3, timeout=10)  # must return well before the timeout
        join_all([thread])


class TestReset:
    def test_reset_returns_value_to_zero(self, counter):
        counter.increment(9)
        counter.reset()
        assert counter.value == 0

    def test_reset_with_waiters_refused(self, counter):
        thread = spawn(lambda: counter.check(5, timeout=10))
        wait_until(lambda: _waiting(counter) == 1)
        with pytest.raises(ResetConcurrencyError):
            counter.reset()
        counter.increment(5)
        join_all([thread])

    def test_counter_reusable_after_reset(self, counter):
        counter.increment(4)
        counter.reset()
        passed = threading.Event()

        def waiter():
            counter.check(2)
            passed.set()

        thread = spawn(waiter)
        counter.increment(2)
        assert passed.wait(5)
        join_all([thread])


class TestConcurrentIncrements:
    def test_parallel_increments_all_counted(self, counter):
        threads = [spawn(lambda: [counter.increment(1) for _ in range(500)]) for _ in range(8)]
        join_all(threads)
        assert counter.value == 4000

    def test_incrementers_and_checkers_stress(self, counter):
        total = 2000
        done = threading.Semaphore(0)

        def checker():
            for level in range(0, total + 1, 50):
                counter.check(level)
            done.release()

        checkers = [spawn(checker) for _ in range(4)]

        def incrementer():
            for _ in range(total // 4):
                counter.increment(1)

        incrementers = [spawn(incrementer) for _ in range(4)]
        join_all(incrementers)
        for _ in range(4):
            assert done.acquire(timeout=20)
        join_all(checkers)
        assert counter.value == total


class TestMissedCheckParks:
    """The counter's one wait path (§7): a check the lock-free fast path
    cannot satisfy registers on its level's node and parks."""

    def test_missed_check_suspends_exactly_once(self):
        counter = CallCountingCounter()
        with observe(trace=False) as h:
            waiter = spawn(counter.check, 1)
            wait_until(lambda: counter.snapshot().total_waiters == 1)
            counter.increment(1)
            join_all([waiter])
        assert counter.checks == 1
        assert series_of(h, counter).parks == 1  # so no immediate return
        assert series_of(h, counter).unparks == 1

    def test_timeout_zero_raises_and_leaves_no_waiter(self):
        """``check(level, timeout=0)`` on a short value is an instant
        probe: it raises and deregisters before returning."""
        counter = MonotonicCounter()
        with observe(trace=False) as h:
            with pytest.raises(CheckTimeout):
                counter.check(1, timeout=0)
        assert series_of(h, counter).timeouts == 1
        assert counter.snapshot().waiting_levels == ()
        assert (counter._live_levels, counter._live_waiters) == (0, 0)
        counter.increment(1)
        counter.check(1, timeout=0)

    def test_no_fast_path_still_parks_and_wakes(self):
        counter = MonotonicCounter(fast_path=False)
        with observe(trace=False) as h:
            waiter = spawn(counter.check, 1)
            wait_until(lambda: counter.snapshot().total_waiters == 1)
            counter.increment(1)
            join_all([waiter])
        assert series_of(h, counter).parks == 1
        assert counter.snapshot().waiting_levels == ()

    def test_chase_completes_and_tallies_consistently(self):
        """A consumer chasing a producer level by level: every check is
        satisfied on the fast path or by a park, and every park is
        matched by one wakeup."""
        counter = CallCountingCounter()
        levels = 400

        def producer():
            for _ in range(levels):
                counter.increment(1)

        def consumer():
            for level in range(1, levels + 1):
                counter.check(level, timeout=30)

        with observe(trace=False) as h:
            join_all([spawn(consumer), spawn(producer)])
        assert (counter.checks, counter.increments) == (levels, levels)
        tallies = series_of(h, counter)
        assert tallies.parks <= levels
        assert tallies.unparks == tallies.parks
        assert tallies.timeouts == 0


def _waiting(counter) -> int:
    snapshot = getattr(counter, "snapshot", None)
    if snapshot is None:  # pragma: no cover
        return 0
    return snapshot().total_waiters

"""Tests for multi-counter waits (MultiWait / check_all / checkpoint)."""

from __future__ import annotations

import pytest

from repro.core import (
    BroadcastCounter,
    CheckTimeout,
    CounterValueError,
    MonotonicCounter,
    MultiWait,
    barrier_levels,
    check_all,
    checkpoint,
)
from tests.helpers import join_all, spawn, wait_until


def _no_wait_nodes(counter) -> bool:
    """True when the counter has reclaimed every wait node."""
    return counter.snapshot().waiting_levels == ()


class TestCheckAll:
    def test_all_satisfied_returns_immediately(self):
        a, b = MonotonicCounter(), MonotonicCounter()
        a.increment(2)
        b.increment(3)
        check_all([(a, 2), (b, 3), (a, 0)])

    def test_empty_conditions(self):
        check_all([])

    def test_waits_for_every_condition(self):
        a, b = MonotonicCounter(), MonotonicCounter()
        done = []
        thread = spawn(lambda: (check_all([(a, 1), (b, 1)]), done.append(True)))
        a.increment(1)
        thread.join(0.05)
        assert not done, "check_all returned with one condition unmet"
        b.increment(1)
        join_all([thread])
        assert done == [True]

    def test_order_independence(self):
        """Stability: conditions satisfied in the 'wrong' order still pass
        — a satisfied condition cannot unsatisfy."""
        a, b = MonotonicCounter(), MonotonicCounter()
        done = []
        thread = spawn(lambda: (check_all([(a, 1), (b, 1)]), done.append(True)))
        b.increment(1)  # second condition first
        a.increment(1)
        join_all([thread])
        assert done == [True]

    def test_shared_timeout_budget(self):
        a, b = MonotonicCounter(), MonotonicCounter()
        a.increment(1)
        with pytest.raises(CheckTimeout):
            check_all([(a, 1), (b, 1)], timeout=0.02)

    def test_timeout_zero_passes_iff_all_satisfied(self):
        a = MonotonicCounter()
        a.increment(5)
        check_all([(a, 5)], timeout=0)
        with pytest.raises(CheckTimeout):
            check_all([(a, 6)], timeout=0)

    def test_validation(self):
        a = MonotonicCounter()
        with pytest.raises(CounterValueError):
            check_all([(a, -1)])
        with pytest.raises(TypeError):
            check_all([("not a counter", 1)])
        with pytest.raises(CounterValueError):
            check_all([(a, 0)], timeout=-1)

    def test_mixed_implementations(self):
        from repro.core import BroadcastCounter

        a = MonotonicCounter(strategy="heap")
        b = BroadcastCounter()
        a.increment(1)
        b.increment(1)
        check_all([(a, 1), (b, 1)])


class TestCheckpoint:
    def test_waits_for_common_level(self):
        counters = [MonotonicCounter() for _ in range(4)]
        done = []
        thread = spawn(lambda: (checkpoint(counters, 2), done.append(True)))
        for counter in counters:
            counter.increment(1)
        thread.join(0.05)
        assert not done
        for counter in counters:
            counter.increment(1)
        join_all([thread])
        assert done == [True]

    def test_pipeline_join_use_case(self):
        """N producer stages each announce steps on their own counter; a
        consumer joins on 'everyone finished step k'."""
        from repro.structured import ThreadScope

        counters = [MonotonicCounter(name=f"stage{i}") for i in range(3)]
        joined_at = []

        def producer(i):
            for _ in range(5):
                counters[i].increment(1)

        def consumer():
            for step in range(1, 6):
                checkpoint(counters, step, timeout=10)
                joined_at.append(step)

        with ThreadScope() as scope:
            scope.spawn(consumer)
            for i in range(3):
                scope.spawn(producer, i)
        assert joined_at == [1, 2, 3, 4, 5]


class TestBarrierLevels:
    def test_formula(self):
        assert barrier_levels(0, 4) == 4
        assert barrier_levels(2, 4) == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            barrier_levels(-1, 4)
        with pytest.raises(ValueError):
            barrier_levels(0, 0)

    def test_matches_counter_barrier_behaviour(self):
        from repro.structured import multithreaded_for
        from repro.sync import CounterBarrier

        barrier = CounterBarrier(3)

        def party(_):
            for _ in range(4):
                barrier.pass_()

        multithreaded_for(party, range(3))
        assert barrier.counter.value == barrier_levels(3, 3)


def _implementations():
    return [
        pytest.param(lambda: MonotonicCounter(strategy="linked"), id="linked"),
        pytest.param(lambda: MonotonicCounter(strategy="heap"), id="heap"),
        pytest.param(BroadcastCounter, id="broadcast"),
    ]


class TestMultiWait:
    def test_already_satisfied_recorded_at_construction(self):
        a, b = MonotonicCounter(), MonotonicCounter()
        a.increment(3)
        with MultiWait([(a, 2), (b, 1), (a, 3)]) as mw:
            assert mw.satisfied == {0, 2}
            assert len(mw) == 3

    def test_wait_all_blocks_until_every_condition(self):
        a, b = MonotonicCounter(), MonotonicCounter()
        done = []
        with MultiWait([(a, 1), (b, 2)]) as mw:
            thread = spawn(lambda: (mw.wait_all(), done.append(True)))
            a.increment(1)
            b.increment(1)
            thread.join(0.05)
            assert not done, "wait_all returned with one condition unmet"
            b.increment(1)
            join_all([thread])
        assert done == [True]
        assert _no_wait_nodes(a) and _no_wait_nodes(b)

    def test_wait_any_returns_satisfied_indices(self):
        a, b = MonotonicCounter(), MonotonicCounter()
        with MultiWait([(a, 1), (b, 1)]) as mw:
            thread = spawn(b.increment, 1)
            got = mw.wait_any(timeout=10)
            join_all([thread])
            assert 1 in got
            assert got <= {0, 1}

    def test_waiter_parks_once_for_many_conditions(self):
        """The point of the subscription strategy: one park, not k parks."""
        counters = [MonotonicCounter() for _ in range(8)]
        with MultiWait([(c, 1) for c in counters]) as mw:
            done = []
            thread = spawn(lambda: (mw.wait_all(), done.append(True)))
            for c in counters:
                c.increment(1)
            join_all([thread])
            assert done == [True]
        # No counter ever saw a suspended checker: satisfaction was
        # delivered purely through subscription callbacks.
        for c in counters:
            assert c.stats.suspended_checks == 0

    def test_timeout_raises_check_timeout(self):
        a = MonotonicCounter()
        with MultiWait([(a, 1)]) as mw:
            with pytest.raises(CheckTimeout):
                mw.wait_all(timeout=0.02)
            with pytest.raises(CheckTimeout):
                mw.wait_any(timeout=0.02)
        assert _no_wait_nodes(a)

    def test_close_reclaims_wait_nodes(self):
        a, b = MonotonicCounter(), MonotonicCounter()
        mw = MultiWait([(a, 5), (b, 7)])
        assert a.snapshot().waiting_levels == (5,)
        assert b.snapshot().waiting_levels == (7,)
        mw.close()
        assert _no_wait_nodes(a) and _no_wait_nodes(b)
        # Idempotent, and waiting after close is refused.
        mw.close()
        with pytest.raises(RuntimeError):
            mw.wait_all(timeout=0)

    def test_subscription_shares_node_with_checker(self):
        """A subscription at a level where a thread is parked must not
        add a second wait node (storage stays O(distinct levels))."""
        a = MonotonicCounter()
        thread = spawn(a.check, 4)
        wait_until(lambda: a.snapshot().total_waiters == 1)
        with MultiWait([(a, 4)]) as mw:
            assert a.snapshot().waiting_levels == (4,)
            a.increment(4)
            mw.wait_all(timeout=10)
            join_all([thread])
        assert _no_wait_nodes(a)

    def test_non_subscribable_counter_rejected(self):
        from repro.determinism import TraceContext, TracedCounter

        traced = TracedCounter(TraceContext())
        with pytest.raises(TypeError, match="subscribe"):
            MultiWait([(traced, 1)])

    def test_validation(self):
        a = MonotonicCounter()
        with pytest.raises(CounterValueError):
            MultiWait([(a, -1)])
        with pytest.raises(TypeError):
            MultiWait([("not a counter", 1)])

    @pytest.mark.parametrize("factory", _implementations())
    def test_every_implementation_supports_subscription_waits(self, factory):
        a, b = factory(), factory()
        done = []
        with MultiWait([(a, 2), (b, 1)]) as mw:
            thread = spawn(lambda: (mw.wait_all(timeout=10), done.append(True)))
            a.increment(1)
            b.increment(1)
            a.increment(1)
            join_all([thread])
        assert done == [True]

    def test_mixed_implementations(self):
        a = MonotonicCounter(strategy="heap")
        b = BroadcastCounter()
        c = MonotonicCounter(strategy="linked")
        with MultiWait([(a, 1), (b, 1), (c, 1)]) as mw:
            threads = [spawn(x.increment, 1) for x in (a, b, c)]
            mw.wait_all(timeout=10)
            join_all(threads)
            assert mw.satisfied == {0, 1, 2}

    def test_check_all_works_without_subscribe(self):
        """check_all is sequential, so counters without ``subscribe``
        (traced counters record each ``check`` literally for the
        determinism harness) work unchanged."""
        from repro.determinism import TraceContext, TracedCounter

        context = TraceContext()
        a, b = TracedCounter(context), TracedCounter(context)
        assert not callable(getattr(a, "subscribe", None))
        a.increment(1)
        b.increment(1)
        check_all([(a, 1), (b, 1)])
        check_all([(a, 1), (b, 1)], timeout=1)

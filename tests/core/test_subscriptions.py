"""Tests for the subscribe() notification hook on every counter flavor."""

from __future__ import annotations

import threading

import pytest

from repro.core import BroadcastCounter, MonotonicCounter
from tests.helpers import join_all, spawn, wait_until

IMPLEMENTATIONS = [
    pytest.param(lambda: MonotonicCounter(strategy="linked"), id="linked"),
    pytest.param(lambda: MonotonicCounter(strategy="heap"), id="heap"),
    pytest.param(BroadcastCounter, id="broadcast"),
]


@pytest.mark.parametrize("factory", IMPLEMENTATIONS)
class TestSubscribeContract:
    """Behavior every implementation must share."""

    def test_satisfied_level_returns_none_without_firing(self, factory):
        counter = factory()
        counter.increment(3)
        fired = []
        assert counter.subscribe(3, lambda: fired.append(True)) is None
        assert counter.subscribe(0, lambda: fired.append(True)) is None
        assert fired == []

    def test_callback_fires_exactly_once(self, factory):
        counter = factory()
        fired = []
        subscription = counter.subscribe(2, lambda: fired.append(True))
        assert subscription is not None
        counter.increment(1)
        assert fired == []
        counter.increment(1)
        assert fired == [True]
        counter.increment(5)  # long past the level: no refire
        assert fired == [True]

    def test_cancel_before_fire_suppresses_callback(self, factory):
        counter = factory()
        fired = []
        subscription = counter.subscribe(1, lambda: fired.append(True))
        subscription.cancel()
        subscription.cancel()  # idempotent
        counter.increment(1)
        assert fired == []

    def test_cancel_after_fire_is_noop(self, factory):
        counter = factory()
        fired = []
        subscription = counter.subscribe(1, lambda: fired.append(True))
        counter.increment(1)
        subscription.cancel()
        assert fired == [True]

    def test_multiple_subscribers_one_level(self, factory):
        counter = factory()
        fired = []
        subs = [counter.subscribe(1, lambda i=i: fired.append(i)) for i in range(3)]
        assert all(subs)
        subs[1].cancel()
        counter.increment(1)
        assert sorted(fired) == [0, 2]

    def test_one_increment_fires_multiple_levels(self, factory):
        """The coalesced release delivers every satisfied level's
        callbacks from the single increment."""
        counter = factory()
        fired = []
        for level in (1, 2, 3):
            counter.subscribe(level, lambda level=level: fired.append(level))
        counter.increment(3)
        assert sorted(fired) == [1, 2, 3]

    def test_callback_runs_outside_counter_locks(self, factory):
        """Reading counter state from inside a callback must not
        deadlock — callbacks fire after all counter locks are dropped."""
        counter = factory()
        seen = []
        counter.subscribe(2, lambda: seen.append(counter.value))
        counter.increment(2)
        assert seen == [2]

    def test_validation(self, factory):
        counter = factory()
        with pytest.raises(Exception):
            counter.subscribe(-1, lambda: None)
        with pytest.raises(TypeError):
            counter.subscribe(1, "not callable")


class TestMonotonicNodeSharing:
    """White-box checks of how subscriptions ride the §7 wait nodes."""

    def test_subscription_only_node_is_reclaimed_on_cancel(self):
        counter = MonotonicCounter()
        subscription = counter.subscribe(4, lambda: None)
        assert counter.snapshot().waiting_levels == (4,)
        assert len(counter._waiters) == 1
        subscription.cancel()
        assert len(counter._waiters) == 0
        assert counter._live_levels == 0
        counter.reset()  # refuses if anything leaked

    def test_cancel_keeps_node_with_parked_checker(self):
        counter = MonotonicCounter()
        checker = spawn(counter.check, 4)
        wait_until(lambda: counter.snapshot().total_waiters == 1)
        subscription = counter.subscribe(4, lambda: None)
        assert len(counter._waiters) == 1  # shared node, not a second one
        subscription.cancel()
        assert len(counter._waiters) == 1  # the checker still needs it
        counter.increment(4)
        join_all([checker])
        assert counter.snapshot().waiting_levels == ()

    def test_checker_leaving_keeps_subscription_node(self):
        """A timed-out checker at a level with a live subscription must
        not discard the node out from under the subscriber."""
        from repro.core import CheckTimeout

        counter = MonotonicCounter()
        fired = []
        counter.subscribe(2, lambda: fired.append(True))
        with pytest.raises(CheckTimeout):
            counter.check(2, timeout=0.01)
        assert len(counter._waiters) == 1
        counter.increment(2)
        assert fired == [True]
        assert len(counter._waiters) == 0

    def test_subscriber_fires_from_incrementing_thread(self):
        counter = MonotonicCounter()
        fired_in = []
        counter.subscribe(1, lambda: fired_in.append(threading.current_thread()))
        incrementer = spawn(counter.increment, 1)
        join_all([incrementer])
        assert fired_in == [incrementer]

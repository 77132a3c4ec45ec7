"""A counter's waiter state is allocated by its first registration.

The wait list, the drain lock and the draining map exist only once a
``check`` has parked or a ``subscribe`` has registered (§7: storage
grows with the waiting levels).  A counter that never had a waiter must
read exactly as an idle counter that did: the same snapshot, a
``reset()`` that succeeds, a passing quiescence check, and an entry in
``dump_state()``.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core import CounterSnapshot, MonotonicCounter
from repro.obs import dump_state
from repro.testkit.invariants import assert_counter_quiescent
from tests.helpers import join_all, spawn, wait_until

STRATEGIES = ["linked", "heap"]
_serial = itertools.count()


def _never_parked(strategy: str, name: str) -> MonotonicCounter:
    counter = MonotonicCounter(strategy=strategy, name=name)
    counter.increment(2)
    counter.check(1)  # satisfied: the fast path registers nothing
    assert not hasattr(counter, "_waiters")
    return counter


def _parked_and_drained(strategy: str, name: str) -> MonotonicCounter:
    counter = MonotonicCounter(strategy=strategy, name=name)
    waiters = [spawn(counter.check, 2), spawn(counter.check, 2)]
    wait_until(lambda: counter.snapshot().total_waiters == 2)
    assert counter.snapshot().waiting_levels == (2,)
    counter.increment(2)
    join_all(waiters)  # each waiter leaves the node before it returns
    assert hasattr(counter, "_waiters")
    return counter


BUILDERS = {"never parked": _never_parked, "parked and drained": _parked_and_drained}


@pytest.fixture(params=[(s, b) for s in STRATEGIES for b in BUILDERS],
                ids=lambda p: f"{p[0]}-{p[1].replace(' ', '-')}")
def idle(request):
    strategy, history = request.param
    name = f"waiter-state-{strategy}-{history.replace(' ', '-')}-{next(_serial)}"
    return BUILDERS[history](strategy, name), name


def test_snapshot_is_the_idle_snapshot(idle):
    counter, _ = idle
    assert counter.snapshot() == CounterSnapshot(value=2, nodes=())
    assert counter.waiting_levels == ()


def test_reset_succeeds(idle):
    counter, _ = idle
    counter.reset()
    assert counter.snapshot() == CounterSnapshot(value=0, nodes=())


def test_quiescence_check_passes(idle):
    counter, _ = idle
    assert_counter_quiescent(counter, expect_value=2)


def test_dump_state_lists_the_counter(idle):
    counter, name = idle
    docs = [d for d in dump_state()["counters"] if d["name"] == name]
    assert len(docs) == 1
    assert docs[0]["value"] == 2
    assert docs[0]["waiting"] == [] and docs[0]["total_waiters"] == 0


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_fresh_counter_reads_as_a_fresh_counter(strategy):
    counter = MonotonicCounter(strategy=strategy)
    assert counter.snapshot() == CounterSnapshot(value=0, nodes=())


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_subscribe_allocates_and_cancel_reclaims(strategy):
    counter = MonotonicCounter(strategy=strategy)
    subscription = counter.subscribe(3, lambda: None)
    assert counter.snapshot().waiting_levels == (3,)
    subscription.cancel()
    assert counter.snapshot() == CounterSnapshot(value=0, nodes=())
    assert_counter_quiescent(counter, expect_value=0)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_the_strategy_picks_the_wait_list_at_the_first_park(strategy):
    counter = MonotonicCounter(strategy=strategy)
    counter.subscribe(1, lambda: None)
    kind = {"linked": "LinkedWaitList", "heap": "HeapWaitList"}[strategy]
    assert type(counter._waiters).__name__ == kind


def test_a_strategy_typo_fails_at_construction():
    with pytest.raises(ValueError, match="linkd"):
        MonotonicCounter(strategy="linkd")

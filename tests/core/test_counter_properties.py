"""Property-based tests over counter semantics (hypothesis).

Core invariants:

* monotonicity — the observed value never decreases;
* linearizable value — value equals the sum of increments;
* differential equivalence — linked, heap, and naive-broadcast
  implementations agree on every observable for any operation sequence;
* check-never-misses — a check for any level at or below the final value
  always completes (no lost wakeups), for any partition of the increments
  and any assignment of waiters to levels.
"""

from __future__ import annotations

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BroadcastCounter, MonotonicCounter
from tests.helpers import join_all, spawn, wait_until

amounts = st.lists(st.integers(min_value=0, max_value=50), min_size=0, max_size=30)


@given(amounts)
def test_value_is_sum_of_increments(increments):
    c = MonotonicCounter()
    observed = []
    for amount in increments:
        observed.append(c.increment(amount))
    assert c.value == sum(increments)
    assert observed == [sum(increments[: i + 1]) for i in range(len(increments))]


@given(amounts)
def test_value_monotonically_nondecreasing(increments):
    c = MonotonicCounter(strategy="heap")
    last = 0
    for amount in increments:
        value = c.increment(amount)
        assert value >= last
        last = value


@given(
    amounts,
    st.lists(st.integers(min_value=0, max_value=200), min_size=0, max_size=20),
)
def test_implementations_agree_on_immediate_checks(increments, probe_levels):
    """For any increments and any immediate check levels, all three
    implementations report identical values and identical blocking
    decisions (a check blocks iff level > current value)."""
    implementations = [
        MonotonicCounter(strategy="linked"),
        MonotonicCounter(strategy="heap"),
        BroadcastCounter(),
    ]
    for amount in increments:
        values = {c.increment(amount) for c in implementations}
        assert len(values) == 1
    for level in probe_levels:
        decisions = set()
        for c in implementations:
            if level <= c.value:
                c.check(level)  # must not block
                decisions.add("immediate")
            else:
                decisions.add("would-block")
        assert len(decisions) == 1


@settings(deadline=None, max_examples=25)
@given(
    st.integers(min_value=1, max_value=8),   # waiter count
    st.integers(min_value=1, max_value=30),  # final value
    st.data(),
)
def test_check_never_misses_an_increment(n_waiters, final_value, data):
    """Any waiter on a level <= the eventual value is always released,
    however the increments are chopped up — the §2 no-race property."""
    levels = [
        data.draw(st.integers(min_value=0, max_value=final_value), label=f"level{i}")
        for i in range(n_waiters)
    ]
    # Random partition of final_value into increment chunks.
    chunks = []
    remaining = final_value
    while remaining:
        chunk = data.draw(st.integers(min_value=1, max_value=remaining), label="chunk")
        chunks.append(chunk)
        remaining -= chunk
    c = MonotonicCounter()
    released = threading.Semaphore(0)

    def waiter(level):
        c.check(level, timeout=30)
        released.release()

    threads = [spawn(waiter, level) for level in levels]
    for chunk in chunks:
        c.increment(chunk)
    for _ in range(n_waiters):
        assert released.acquire(timeout=30)
    join_all(threads)
    assert c.value == final_value


@settings(deadline=None, max_examples=25)
@given(st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=8))
def test_snapshot_levels_sorted_and_above_value(levels):
    """Live wait nodes are strictly above the value and sorted ascending
    (the §7 list invariant), for any set of waiting levels."""
    c = MonotonicCounter()
    threads = [spawn(lambda lv=level: c.check(lv, timeout=30)) for level in levels]
    expected_distinct = len(set(levels))
    # Time-based, not iteration-based: a freshly spawned waiter may take
    # a few scheduler quanta to appear in the wait list.
    wait_until(lambda: c.snapshot().total_waiters == len(levels))
    snapshot = c.snapshot()
    assert snapshot.total_waiters == len(levels)
    observed_levels = snapshot.waiting_levels
    assert list(observed_levels) == sorted(set(levels))
    assert len(observed_levels) == expected_distinct
    assert all(level > c.value for level in observed_levels)
    c.increment(max(levels))
    join_all(threads)
    assert c.snapshot().nodes == ()


@given(amounts, st.integers(min_value=0, max_value=100))
def test_sequential_check_increment_interleaving(increments, level):
    """Single-threaded: check(level) after the prefix-sum first reaches
    level must return instantly; the hypothesis engine explores the
    boundary alignment."""
    c = MonotonicCounter()
    total = 0
    for amount in increments:
        total = c.increment(amount)
        if total >= level:
            c.check(level)  # must not block single-threaded
            return
    # Level never reached: checking anything <= total still passes.
    c.check(min(level, total))

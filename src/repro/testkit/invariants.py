"""Invariant checkers over the counters' private state.

Two flavours:

* **Quiescence checks** (``assert_*_quiescent``) — called from the test
  thread after a schedule finished, when no worker is live.  They assert
  the structural facts every schedule must restore: no leaked wait
  nodes, zeroed tallies, an empty draining set, and a ``reset()`` that
  is not poisoned.
* **Point invariants** (``tallies_consistent``) — registered with
  :meth:`Controller.invariant_at` and run *in the arriving worker
  thread*, possibly while that thread holds the counter lock.  They must
  therefore only read fields, never take locks or call methods of the
  primitive (reading racy ints is fine: sync points fire at quiescent
  instants of the owning thread, and the checks are one-sided
  inequalities that hold under any serialization).

These deliberately reach into private attributes — they are the test
kit's eyes, version-locked to the implementation they watch.
"""

from __future__ import annotations

__all__ = [
    "assert_counter_quiescent",
    "assert_multiwait_closed",
    "tallies_consistent",
]


def assert_counter_quiescent(counter, *, expect_value: int | None = None) -> None:
    """Assert a :class:`MonotonicCounter` carries no trace of past waiters.

    Checks, in order: no waiting levels, no live-waiter tally, an empty
    draining set (the PR-2 leak poisoned ``reset()`` through exactly this
    set), and — the behavioural summary of all three — that ``reset()``
    succeeds.  The counter is left reset; pass ``expect_value`` to also
    pin the pre-reset value.
    """
    if expect_value is not None:
        assert counter.value == expect_value, (
            f"value {counter.value} != expected {expect_value}"
        )
    with counter._lock:
        live_levels = counter._live_levels
        live_waiters = counter._live_waiters
        # Unset until the counter's first registration: never waited on.
        waiters = getattr(counter, "_waiters", None)
        waiting = 0 if waiters is None else len(waiters)
    draining = {}
    if waiters is not None:
        with counter._drain_lock:
            draining = dict(counter._draining)
    assert waiting == 0, f"{waiting} level(s) still in the wait list: {waiters!r}"
    assert live_levels == 0, f"_live_levels == {live_levels} at quiescence"
    assert live_waiters == 0, f"_live_waiters == {live_waiters} at quiescence"
    assert not draining, (
        f"_draining leaked {len(draining)} node(s) at quiescence: "
        f"{[node.snapshot() for node in draining.values()]}"
    )
    counter.reset()  # must not raise ResetConcurrencyError


def assert_multiwait_closed(mw) -> None:
    """Assert a closed :class:`MultiWait` released every subscription and
    left the counters it watched quiescent-compatible (no wait-node or
    checker residue is asserted here — pass the counters to the
    quiescence checks for that)."""
    with mw._lock:
        assert mw._closed, "MultiWait not closed"
        assert not mw._subs, f"{len(mw._subs)} subscription handle(s) retained after close"
        assert not mw._waiters, f"{len(mw._waiters)} waiter record(s) retained after close"


def tallies_consistent(counter) -> None:
    """Point invariant: waiter tallies never go negative and the wait
    list never exceeds the live-level tally.

    Safe at any sync point: plain int/len reads of a counter whose owner
    thread is parked at a gate.  Register with
    ``controller.invariant_at(point, lambda obj: tallies_consistent(c))``
    — ``obj`` is whatever primitive fired the point, which for
    ``node.*``, ``wheel.*`` and ``multiwait.*`` points is not the counter
    under test.
    """
    live_levels = counter._live_levels
    live_waiters = counter._live_waiters
    assert live_levels >= 0, f"_live_levels went negative: {live_levels}"
    assert live_waiters >= 0, f"_live_waiters went negative: {live_waiters}"
    # Deliberately no cross-field inequality: none holds at *every*
    # instant (subscriber-only nodes count as a level but zero waiters,
    # and a concurrently-running granted worker can sit between a list
    # insert and its tally update).  Double-decrement bugs still surface
    # here — a tally driven negative stays negative until the next
    # increment, and sync points fire densely enough to observe it.

"""The event model and the trace ring, unit and end-to-end.

Unit half: :class:`~repro.obs.events.Event` serialization, ring-buffer
wrap/drop accounting, and the sink contract (called per event, dropped
after its first raise).  End-to-end half: a real counter workload with
tracing enabled produces exactly the advertised kinds, with the latency
payloads (``wait_s``/``wakeup_s``) present where promised and ``None``
where an honest measurement is impossible (observability enabled
mid-wait).
"""

from __future__ import annotations

import asyncio

import pytest

import repro.obs as obs
from repro.aio import AsyncCounter
from repro.core import (
    BroadcastCounter,
    CheckTimeout,
    MonotonicCounter,
    MultiWait,
    ShardedCounter,
)
from repro.core import counter as counter_mod
from repro.core.engine import ParkingSlot, WheelEntry
from repro.obs import KINDS, Event, TraceBuffer
from repro.testkit import assert_counter_quiescent
from tests.helpers import join_all, registered_handles, spawn, wait_until


def _kinds(handle, source=None):
    return [
        e.kind
        for e in handle.trace
        if source is None or e.source == source
    ]


class TestEvent:
    def test_as_dict_drops_unused_fields(self):
        event = Event(ts=1.5, kind="park", source="c", thread=7, level=3)
        assert event.as_dict() == {
            "ts": 1.5, "kind": "park", "source": "c", "thread": 7, "level": 3,
        }

    def test_as_dict_keeps_every_set_field(self):
        event = Event(
            ts=0.0, kind="unpark", source="c", thread=1,
            level=2, value=4, count=1, amount=3, wait_s=0.5, wakeup_s=0.1,
        )
        doc = event.as_dict()
        assert set(doc) == {
            "ts", "kind", "source", "thread",
            "level", "value", "count", "amount", "wait_s", "wakeup_s",
        }

    def test_frozen(self):
        event = Event(ts=0.0, kind="park", source="c", thread=1)
        with pytest.raises(AttributeError):
            event.kind = "unpark"

    def test_kind_registry_is_complete(self):
        assert len(KINDS) == 24
        for kind in ("increment", "release", "park", "unpark", "timeout",
                     "sub_fire", "flush", "drain",
                     "mw_park", "mw_wake", "mw_timeout", "stall",
                     # schema v3: the cross-process fabric
                     "frame_send", "frame_recv", "batch_flush",
                     "push_deliver", "bell_ring", "bell_wake",
                     "gossip_round", "slot_claim",
                     # schema v3.1: the load/SLO layer
                     "req_start", "req_done", "frame_ride", "slo_breach"):
            assert kind in KINDS


class TestTraceBuffer:
    def _event(self, i):
        return Event(ts=float(i), kind="increment", source="c", thread=0, amount=i)

    @pytest.mark.parametrize("capacity", [0, -1, 1.5, True, "8"])
    def test_capacity_validation(self, capacity):
        with pytest.raises((ValueError, TypeError)):
            TraceBuffer(capacity=capacity)

    def test_sink_must_be_callable(self):
        with pytest.raises(TypeError):
            TraceBuffer(sink=42)

    def test_ring_wraps_and_accounts_for_drops(self):
        buf = TraceBuffer(capacity=4)
        for i in range(10):
            buf.append(self._event(i))
        assert len(buf) == 4
        assert buf.emitted == 10
        assert buf.dropped == 6
        # Oldest first, and only the newest four survive the wrap.
        assert [e.amount for e in buf.snapshot()] == [6, 7, 8, 9]
        assert [e.amount for e in buf] == [6, 7, 8, 9]

    def test_sink_sees_every_event(self):
        seen = []
        buf = TraceBuffer(capacity=8, sink=seen.append)
        for i in range(3):
            buf.append(self._event(i))
        assert [e.amount for e in seen] == [0, 1, 2]
        assert buf.sink_errors == 0

    def test_raising_sink_is_dropped_after_first_failure(self):
        calls = []

        def sink(event):
            calls.append(event)
            raise RuntimeError("bad sink")

        buf = TraceBuffer(capacity=8, sink=sink)
        buf.append(self._event(0))  # must NOT propagate
        buf.append(self._event(1))
        assert len(calls) == 1       # dropped after the first raise
        assert buf.sink_errors == 1
        assert len(buf) == 2         # buffering unaffected

    def test_clear_keeps_lifetime_tally(self):
        buf = TraceBuffer(capacity=8)
        for i in range(3):
            buf.append(self._event(i))
        buf.clear()
        assert len(buf) == 0
        assert buf.emitted == 3


class TestEnableDisable:
    def test_enable_requires_something_to_enable(self):
        with pytest.raises(ValueError):
            obs.enable(trace=False, metrics=False)

    def test_disable_returns_readable_handle(self):
        handle = obs.enable()
        counter = MonotonicCounter(name="ed-counter")
        counter.increment(1)
        final = obs.disable()
        assert final is handle
        assert obs.current() is None
        assert "increment" in _kinds(handle, "ed-counter")
        # Emission has genuinely stopped.
        before = len(handle.trace)
        counter.increment(1)
        assert len(handle.trace) == before

    def test_observe_context_manager(self):
        with obs.observe(metrics=False) as handle:
            MonotonicCounter(name="cm-counter").increment(2)
            assert obs.current() is handle
        assert obs.current() is None
        assert "increment" in _kinds(handle, "cm-counter")

    def test_iter_trace_tracks_the_active_handle(self):
        assert list(obs.iter_trace()) == []
        obs.enable()
        MonotonicCounter(name="it-counter").increment(1)
        assert any(e.source == "it-counter" for e in obs.iter_trace())


def _threaded_round_trip(counter):
    waiter = spawn(counter.check, 2)
    wait_until(lambda: counter.snapshot().total_waiters == 1)
    counter.increment(2)
    join_all([waiter])


def _async_round_trip():
    async def round_trip():
        counter = AsyncCounter(name="rt-counter")
        waiter = asyncio.ensure_future(counter.check(2))
        while counter.snapshot().total_waiters != 1:
            await asyncio.sleep(0)
        counter.increment(2)
        await asyncio.wait_for(waiter, 10.0)

    asyncio.run(round_trip())


#: One park -> increment -> unpark on a counter named "rt-counter", per
#: counter kind.
_ROUND_TRIPS = {
    "linked": lambda: _threaded_round_trip(
        MonotonicCounter(name="rt-counter", strategy="linked")),
    "heap": lambda: _threaded_round_trip(
        MonotonicCounter(name="rt-counter", strategy="heap")),
    "broadcast": lambda: _threaded_round_trip(BroadcastCounter(name="rt-counter")),
    "async": _async_round_trip,
}


class TestCounterEmitsTheAdvertisedKinds:
    @pytest.mark.parametrize("kind", sorted(_ROUND_TRIPS))
    def test_park_release_unpark_round_trip(self, kind):
        """A counter with wait nodes also emits one ``release`` caused by
        the increment, and its unpark carries the park's token and a
        measured ``wakeup_s``.  :class:`BroadcastCounter` has no node, so
        it emits no release and its unpark carries neither."""
        handle = obs.enable()
        _ROUND_TRIPS[kind]()
        has_node = kind != "broadcast"

        events = sorted(
            (e for e in handle.trace if e.source == "rt-counter"), key=lambda e: e.seq
        )
        assert {e.kind for e in events} <= KINDS
        [park] = [e for e in events if e.kind == "park"]
        [increment] = [e for e in events if e.kind == "increment"]
        [unpark] = [e for e in events if e.kind == "unpark"]
        releases = [e for e in events if e.kind == "release"]
        assert increment.seq < unpark.seq
        assert unpark.wait_s is not None and unpark.wait_s >= 0.0
        assert park.level == unpark.level == 2
        assert unpark.token == park.token
        if has_node:
            [release] = releases
            assert release.cause_seq == increment.seq
            assert increment.seq < release.seq < unpark.seq
            assert release.level == 2 and release.count == 1
            assert release.token == park.token is not None
            # The wakeup path: release stamped the node before signal.
            assert unpark.wakeup_s is not None and unpark.wakeup_s >= 0.0
        else:
            assert releases == []
            assert park.token is None
            assert unpark.wakeup_s is None
        tallies = handle.metrics.series("rt-counter").snapshot()
        assert (tallies["increments"], tallies["releases"], tallies["parks"],
                tallies["unparks"], tallies["timeouts"]) == (1, int(has_node), 1, 1, 0)
        assert tallies["wait_latency"]["count"] == 1
        assert tallies["wakeup_latency"]["count"] == int(has_node)

    def test_genuine_timeout(self):
        handle = obs.enable()
        counter = MonotonicCounter(name="to-counter")
        with pytest.raises(CheckTimeout):
            counter.check(5, timeout=0.01)
        kinds = _kinds(handle, "to-counter")
        assert "timeout" in kinds
        assert "unpark" not in kinds  # the wait genuinely expired
        [timeout] = [e for e in handle.trace if e.kind == "timeout"]
        assert timeout.level == 5 and timeout.value == 0
        assert timeout.wait_s is not None and timeout.wait_s >= 0.0

    def test_fast_path_emits_nothing(self):
        """The zero-cost contract's observable half: a satisfied check
        never reaches an instrumented site, even with tracing ON."""
        handle = obs.enable()
        counter = MonotonicCounter(name="fp-counter")
        counter.increment(5)
        handle.trace.clear()
        for _ in range(100):
            counter.check(3)
        assert len(handle.trace) == 0

    def test_subscription_fire_is_traced(self):
        handle = obs.enable()
        counter = MonotonicCounter(name="sub-counter")
        fired = []
        counter.subscribe(1, lambda: fired.append("hit"))
        counter.increment(1)
        assert fired == ["hit"]
        kinds = _kinds(handle, "sub-counter")
        assert "sub_fire" in kinds

    def test_mid_wait_enablement_skips_the_unmeasurable_latency(self):
        """Enabling obs while a thread is already parked must not invent
        a wait_s it never measured — the unpark reports None instead."""
        counter = MonotonicCounter(name="mid-counter")
        waiter = spawn(counter.check, 1)
        wait_until(lambda: counter.snapshot().total_waiters == 1)
        handle = obs.enable()
        counter.increment(1)
        join_all([waiter])
        [unpark] = [e for e in handle.trace if e.kind == "unpark"]
        assert unpark.wait_s is None
        # wakeup_s IS measurable: the release ran with obs enabled.
        assert unpark.wakeup_s is not None and unpark.wakeup_s >= 0.0


class TestEveryResumeBranchEmitsOneUnpark:
    """``_park`` resumes a released check on one of three branches: the
    untimed park, a timed park released inside the slot-mode grace, and
    a timed park released after escalating to the timer wheel.  Each
    must emit exactly one ``unpark`` and leave the counter quiescent."""

    @pytest.mark.parametrize("branch", ["untimed", "grace", "wheel"])
    def test_one_unpark_and_quiescent(self, branch, monkeypatch):
        if branch == "grace":
            # A grace longer than the test: the release always lands in it.
            monkeypatch.setattr(counter_mod, "_TIMER_GRACE", 30.0)
        elif branch == "wheel":
            monkeypatch.setattr(counter_mod, "_TIMER_GRACE", 0.001)
        timeout = None if branch == "untimed" else 60.0
        handle = obs.enable()
        counter = MonotonicCounter(name="branch-counter")
        waiter = spawn(counter.check, 1, timeout)
        if branch == "wheel":
            # The escalation swaps the registered slot for a WheelEntry.
            wait_until(lambda: any(
                type(h) is WheelEntry for h in registered_handles(counter)
            ))
        else:
            wait_until(lambda: counter.snapshot().total_waiters == 1)
            assert [type(h) for h in registered_handles(counter)] == [ParkingSlot]
        counter.increment(1)
        join_all([waiter])
        kinds = _kinds(handle, "branch-counter")
        assert kinds.count("unpark") == 1, kinds
        assert "timeout" not in kinds
        assert handle.metrics.series("branch-counter").unparks == 1
        assert_counter_quiescent(counter, expect_value=1)


class TestShardedAndMultiWaitKinds:
    def test_shard_flush_is_traced(self):
        handle = obs.enable()
        sharded = ShardedCounter(shards=2, batch=2, name="fl-counter")
        for _ in range(4):  # one thread -> one shard -> two batch flushes
            sharded.increment(1)
        kinds = _kinds(handle, "fl-counter")
        assert "flush" in kinds
        assert kinds.count("flush") >= 2

    def test_multiwait_park_and_wake(self):
        handle = obs.enable()
        a, b = MonotonicCounter(), MonotonicCounter()
        with MultiWait([(a, 1), (b, 1)]) as mw:
            waiter = spawn(mw.wait_all)
            wait_until(
                lambda: any(e.kind == "mw_park" for e in handle.trace)
            )
            a.increment(1)
            b.increment(1)
            join_all([waiter])
        kinds = [e.kind for e in handle.trace if e.kind.startswith("mw_")]
        assert "mw_park" in kinds
        assert "mw_wake" in kinds
        [wake] = [e for e in handle.trace if e.kind == "mw_wake"]
        assert wake.value == 2  # both conditions satisfied
        assert wake.wait_s is not None and wake.wait_s >= 0.0

    def test_multiwait_timeout(self):
        handle = obs.enable()
        a = MonotonicCounter()
        with MultiWait([(a, 5)]) as mw:
            with pytest.raises(CheckTimeout):
                mw.wait_all(timeout=0.01)
        kinds = [e.kind for e in handle.trace if e.kind.startswith("mw_")]
        assert "mw_park" in kinds
        assert "mw_timeout" in kinds
        assert "mw_wake" not in kinds

"""State introspection: ``dump_counter``/``dump_state``.

The acceptance bar: a dump taken while threads are parked shows *every*
waiting level with its waiter count.
"""

from __future__ import annotations

import asyncio

import repro.obs as obs
from repro.aio import AsyncCounter
from repro.core import MonotonicCounter
from repro.obs import dump_counter, dump_state
from tests.helpers import join_all, spawn, wait_until


def _by_name(state, name):
    docs = [d for d in state["counters"] if d["name"] == name]
    assert len(docs) == 1, state["counters"]
    return docs[0]


class TestDumpCounter:
    def test_idle_counter(self):
        counter = MonotonicCounter(name="idle-dump")
        counter.increment(3)
        doc = dump_counter(counter)
        assert doc == {
            "name": "idle-dump",
            "type": "MonotonicCounter",
            "value": 3,
            "waiting": [],
            "waiting_levels": 0,
            "total_waiters": 0,
        }

    def test_unnamed_counter_gets_an_instance_label(self):
        counter = MonotonicCounter()
        doc = dump_counter(counter)
        assert doc["name"].startswith("MonotonicCounter@0x")

    def test_every_parked_level_appears_with_its_waiter_count(self):
        counter = MonotonicCounter(name="parked-dump")
        waiters = [
            spawn(counter.check, 3),
            spawn(counter.check, 3),
            spawn(counter.check, 7),
        ]
        wait_until(lambda: counter.snapshot().total_waiters == 3)

        doc = dump_counter(counter)
        assert doc["value"] == 0
        waiting = {w["level"]: w for w in doc["waiting"]}
        assert set(waiting) == {3, 7}
        assert waiting[3]["waiters"] == 2
        assert waiting[7]["waiters"] == 1
        assert not waiting[3]["signaled"] and not waiting[7]["signaled"]
        assert doc["waiting_levels"] == 2
        assert doc["total_waiters"] == 3

        counter.increment(7)
        join_all(waiters)
        after = dump_counter(counter)
        assert after["waiting"] == [] and after["total_waiters"] == 0

    def test_dump_carries_no_tallies(self):
        """A dump is the counter's state; its operation tallies live in
        the obs metric series, not in the dump."""
        counter = MonotonicCounter(name="stats-dump")
        counter.increment(2)
        doc = dump_counter(counter)
        assert doc["value"] == 2
        assert "stats" not in doc

    def test_capture_failure_is_reported_not_raised(self):
        class Broken:
            _name = "broken-dump"

            def snapshot(self):
                raise ZeroDivisionError("boom")

        doc = dump_counter(Broken())
        assert doc["name"] == "broken-dump"
        assert "ZeroDivisionError" in doc["error"]

    def test_persistent_race_is_skipped_with_a_note(self):
        class Racing:
            _name = "racing-dump"

            def snapshot(self):
                raise RuntimeError("dict changed size during iteration")

        doc = dump_counter(Racing())
        assert "skipped" in doc["error"]


class TestDumpState:
    def test_totals_aggregate_and_order_is_stable(self):
        a = MonotonicCounter(name="agg-a")
        b = MonotonicCounter(name="agg-b")
        waiters = [spawn(a.check, 1), spawn(b.check, 2), spawn(b.check, 5)]
        wait_until(
            lambda: a.snapshot().total_waiters + b.snapshot().total_waiters == 3
        )

        state = dump_state()
        doc_a, doc_b = _by_name(state, "agg-a"), _by_name(state, "agg-b")
        assert doc_a["total_waiters"] == 1
        assert doc_b["total_waiters"] == 2 and doc_b["waiting_levels"] == 2
        names = [d["name"] for d in state["counters"]]
        assert names == sorted(names)
        assert state["totals"]["counters"] == len(state["counters"])
        assert state["totals"]["waiters"] >= 3
        assert state["totals"]["waiting_levels"] >= 3

        a.increment(1)
        b.increment(5)
        join_all(waiters)

    def test_dead_counters_vanish_from_the_dump(self):
        counter = MonotonicCounter(name="ephemeral-dump")
        assert any(
            d["name"] == "ephemeral-dump" for d in dump_state()["counters"]
        )
        del counter
        assert not any(
            d["name"] == "ephemeral-dump" for d in dump_state()["counters"]
        )

    def test_async_counter_is_dumpable(self):
        async def scenario():
            counter = AsyncCounter(name="aio-dump")
            counter.increment(2)
            task = asyncio.ensure_future(counter.check(5))
            for _ in range(50):  # let the checker register and park
                await asyncio.sleep(0)
                if counter.snapshot().total_waiters:
                    break
            doc = dump_counter(counter)
            counter.increment(3)
            await task
            return doc

        doc = asyncio.run(scenario())
        assert doc["name"] == "aio-dump"
        assert doc["value"] == 2
        assert [w["level"] for w in doc["waiting"]] == [5]
        assert doc["total_waiters"] == 1


class TestEngineInternals:
    def test_engine_key_is_always_present(self):
        engine = dump_state()["engine"]
        wheel = engine["timer_wheel"]
        assert isinstance(wheel["armed"], int)
        assert isinstance(wheel["pending"], list)
        assert isinstance(engine["parking_slots"], int)

    def test_timed_wait_shows_as_an_armed_wheel_entry(self):
        counter = MonotonicCounter(name="engine-dump")
        before = dump_state()["engine"]["timer_wheel"]["armed"]
        waiter = spawn(lambda: counter.check(1, timeout=30.0))
        wait_until(
            lambda: dump_state()["engine"]["timer_wheel"]["armed"] > before
        )
        engine = dump_state()["engine"]
        assert engine["parking_slots"] >= 1
        soonest = engine["timer_wheel"]["pending"][0]
        # Relative deadline, bounded by the timeout; an unclaimed armed
        # entry has no outcome yet.
        assert soonest["deadline_in_s"] <= 30.0
        counter.increment(1)
        join_all([waiter])


class TestObsStateIsOrthogonal:
    def test_dump_works_with_observability_disabled(self):
        """dump_state is registry-powered, not event-powered: it must
        work without enable() ever having been called."""
        assert obs.current() is None
        counter = MonotonicCounter(name="cold-dump")
        counter.increment(1)
        assert _by_name(dump_state(), "cold-dump")["value"] == 1

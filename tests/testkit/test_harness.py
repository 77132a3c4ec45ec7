"""The controller itself: gates, grants, blocking detection, traces.

These tests drive the harness with tiny purpose-built worker bodies
(appending to lists, taking plain locks) rather than the counters, so a
harness bug fails here and not in some counter interleaving test three
files away.
"""

from __future__ import annotations

import re
import threading
from pathlib import Path

import pytest

import repro
from repro.core import MonotonicCounter
from repro.core import syncpoints
from repro.testkit import (
    Controller,
    ScheduleDeadlock,
    ScheduleError,
    ScheduleFailure,
    Trace,
    TraceStep,
    interleave,
    replay,
    run_script,
)
from repro.testkit import grant, probe, run_thread, until


class TestTrace:
    def test_roundtrip(self):
        trace = Trace([TraceStep("w0", "start"), TraceStep("w0", "park.enter")])
        assert str(trace) == "w0:start w0:park.enter"
        assert Trace.parse(str(trace)) == trace

    def test_parse_rejects_malformed_tokens(self):
        for bad in ["nopoint", ":park.enter", "w:"]:
            with pytest.raises(ValueError, match="malformed"):
                Trace.parse(bad)

    def test_empty_trace(self):
        assert len(Trace()) == 0
        assert Trace.parse("") == Trace()


class TestSpawnValidation:
    def test_rejects_colon_and_whitespace_names(self):
        controller = Controller()
        for bad in ["a:b", "a b", "a\tb", ""]:
            with pytest.raises(ValueError):
                controller.spawn(bad, lambda: None)

    def test_rejects_duplicate_names(self):
        controller = Controller()
        controller.spawn("w", lambda: None)
        with pytest.raises(ValueError, match="duplicate"):
            controller.spawn("w", lambda: None)

    def test_rejects_spawn_after_start(self):
        controller = Controller()
        controller.spawn("w", lambda: None)
        with controller:
            with pytest.raises(ScheduleError, match="after start"):
                controller.spawn("late", lambda: None)
            controller.finish()


class TestGating:
    def test_start_gate_orders_launch(self):
        """Workers run their bodies strictly in grant order when each is
        run to completion before the next grant."""
        order = []
        controller = Controller()
        for name in ["a", "b", "c"]:
            controller.spawn(name, order.append, name)
        with controller:
            for name in ["c", "a", "b"]:
                assert controller.run_thread(name) == "done"
        assert order == ["c", "a", "b"]
        assert str(controller.trace) == "c:start a:start b:start"

    def test_until_walks_through_intermediate_gates(self):
        counter = MonotonicCounter()
        controller = Controller()
        controller.spawn("w", counter.check, 1)
        with controller:
            # start and check.lock are granted on the way to park.enter.
            controller.until("w", "park.enter")
            assert [s.point for s in controller.trace] == ["start", "check.lock"]
            controller.grant("w", "park.enter")
            counter.increment(1)  # main thread passes through ungated
            controller.finish()
        controller.raise_worker_errors()

    def test_until_fails_if_worker_finishes_first(self):
        controller = Controller()
        controller.spawn("w", lambda: None)
        with controller:
            with pytest.raises(ScheduleError, match="finished before reaching"):
                controller.until("w", "park.enter", timeout=2.0)

    def test_grant_asserts_gate_point(self):
        counter = MonotonicCounter()
        counter.increment(5)
        controller = Controller()
        controller.spawn("w", counter.increment, 1)
        with controller:
            controller.grant("w", "start")
            with pytest.raises(ScheduleError, match="expected 'park.enter'"):
                controller.grant("w", "park.enter", timeout=2.0)
            controller.finish()

    def test_unknown_worker_name(self):
        controller = Controller()
        controller.spawn("w", lambda: None)
        with controller:
            with pytest.raises(ScheduleError, match="unknown worker"):
                controller.grant("nope")
            controller.finish()

    def test_unregistered_threads_pass_through(self):
        """Sync points fired by threads the controller does not own are
        ignored — the instrumented world keeps working mid-schedule."""
        counter = MonotonicCounter()
        controller = Controller()
        controller.spawn("w", counter.check, 2)
        with controller:
            controller.until("w", "park.enter")
            # Main thread and a foreign thread drive the counter freely.
            counter.increment(1)
            foreign = threading.Thread(target=counter.increment, args=(1,))
            foreign.start()
            foreign.join()
            controller.finish()
        controller.raise_worker_errors()
        assert counter.value == 2

    def test_run_thread_reports_blocked_on_real_lock(self):
        gate_lock = threading.Lock()
        counter = MonotonicCounter()

        def holder():
            with gate_lock:
                counter.increment(1)  # a sync point inside the lock

        def contender():
            counter.increment(1)  # gates first, so we can position it
            with gate_lock:
                pass

        controller = Controller()
        controller.spawn("holder", holder)
        controller.spawn("contender", contender)
        with controller:
            controller.until("holder", "increment.lock")  # holds gate_lock now
            assert controller.run_thread("contender") == "blocked"
            assert controller.run_thread("holder") == "done"
            # The lock is free; the blocked worker can now finish.
            controller.finish()
        controller.raise_worker_errors()


class TestErrorsAndDeadlock:
    def test_worker_exception_is_captured_and_reraised(self):
        def boom():
            raise RuntimeError("kaboom")

        controller = Controller()
        controller.spawn("w", boom)
        with controller:
            assert controller.run_thread("w") == "done"
            assert isinstance(controller.errors["w"], RuntimeError)
            with pytest.raises(ScheduleError, match="kaboom"):
                controller.raise_worker_errors()

    def test_point_invariant_failure_fails_the_worker(self):
        counter = MonotonicCounter()
        controller = Controller()
        controller.spawn("w", counter.increment, 1)
        controller.invariant_at(
            "increment.lock", lambda obj: (_ for _ in ()).throw(AssertionError("bad state"))
        )
        with controller:
            controller.run_thread("w")
            with pytest.raises(ScheduleError, match="bad state"):
                controller.raise_worker_errors()

    def test_scheduler_deadlock_detection(self):
        """A waiter parked with no incrementer in sight is reported as a
        schedule deadlock, with the trace attached."""
        from repro.core.errors import CheckTimeout
        from repro.testkit import RandomScheduler

        counter = MonotonicCounter()

        def doomed_waiter():
            try:
                counter.check(1, timeout=5.0)
            except CheckTimeout:
                pass

        controller = Controller(deadlock_timeout=0.2)
        controller.spawn("w", doomed_waiter)
        with controller:
            with pytest.raises(ScheduleDeadlock, match="blocked in real primitives"):
                controller.run_scheduler(RandomScheduler(0))
            counter.increment(1)  # let the waiter out before close()
            controller.finish()

    def test_hook_is_uninstalled_after_close(self):
        controller = Controller()
        controller.spawn("w", lambda: None)
        with controller:
            assert syncpoints.enabled
            controller.finish()
        assert not syncpoints.enabled

    def test_hook_uninstalled_even_when_schedule_raises(self):
        controller = Controller()
        controller.spawn("w", lambda: None)
        with pytest.raises(ScheduleError):
            with controller:
                controller.grant("other-name")
        assert not syncpoints.enabled


class TestScriptsAndReplay:
    def test_run_script_pins_an_interleaving(self):
        counter = MonotonicCounter()
        seen = {}

        controller = run_script(
            [
                until("w", "park.enter"),
                grant("w"),
                until("inc", "increment.drain"),
                probe(lambda c: seen.update(value=counter._value)),
                run_thread("w", expect="blocked"),
                grant("inc"),
            ],
            {"w": (counter.check, 3), "inc": (counter.increment, 3)},
        )
        # At the increment.drain gate the value was already published...
        assert seen["value"] == 3
        # ...and the grant order is exactly what the script imposed.
        assert [str(s) for s in controller.trace] == [
            "w:start",
            "w:check.lock",
            "w:park.enter",
            "inc:start",
            "inc:increment.lock",
            "inc:increment.release",
            "inc:increment.drain",
        ]

    def test_script_expect_mismatch_raises(self):
        counter = MonotonicCounter()
        counter.increment(1)
        with pytest.raises(ScheduleError, match="ended 'done'"):
            run_script(
                [run_thread("w", expect="blocked")],
                {"w": (counter.check, 1)},
            )

    def test_replay_reimposes_trace(self):
        counter = MonotonicCounter()
        controller = run_script(
            [
                until("w", "park.enter"),
                grant("w"),
                run_thread("inc"),
            ],
            {"w": (counter.check, 2), "inc": (counter.increment, 2)},
        )
        fresh = MonotonicCounter()
        result = replay(
            str(controller.trace),
            {"w": (fresh.check, 2), "inc": (fresh.increment, 2)},
        )
        assert result.divergences == 0
        recorded = [str(s) for s in controller.trace]
        replayed = [str(s) for s in result.controller.trace]
        # Every recorded step is re-imposed, in order.  The replay's
        # deterministic drain then grants (and records) the tail steps
        # the recording's concurrent free-run finish let through
        # unrecorded — here the waiter's last-leaver pop.
        assert replayed[: len(recorded)] == recorded
        assert all(step.startswith("w:") for step in replayed[len(recorded):])
        assert fresh.value == 2

    def test_replay_rejects_unknown_thread(self):
        with pytest.raises(ScheduleError, match="trace names worker"):
            replay("ghost:start", {"w": (lambda: None,)})

    def test_replay_is_lenient_about_divergence(self):
        """A trace recorded against different code (extra steps for a
        worker that finishes early here) replays with divergences counted
        instead of failing."""
        counter = MonotonicCounter()
        counter.increment(1)
        result = replay(
            # The recorded run parked; this run fast-paths and finishes
            # after check.lock never fires.
            "w:start w:check.lock w:park.enter",
            {"w": (counter.check, 1)},
            step_timeout=0.3,
        )
        assert result.divergences >= 1
        assert result.skipped  # the impossible steps were skipped, not fatal


class TestInterleaveDecorator:
    def test_runs_body_once_per_schedule(self):
        runs = []

        @interleave(schedules=3, seed=7)
        def body(sched):
            runs.append(sched.seed)
            sched.spawn("w", lambda: None)
            sched.run()

        body()
        assert runs == [7, 8, 9]

    def test_failure_wraps_with_trace_and_seed(self):
        @interleave(schedules=2, seed=123)
        def body(sched):
            sched.spawn("w", lambda: None)
            sched.run()
            raise AssertionError("schedule-level assertion")

        with pytest.raises(ScheduleFailure) as info:
            body()
        assert info.value.seed == 123
        assert "replay" in str(info.value)
        assert isinstance(info.value.trace, Trace)

    def test_trace_dump_on_failure(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TESTKIT_TRACE_DIR", str(tmp_path))

        @interleave(schedules=1, seed=5)
        def body(sched):
            sched.spawn("w", lambda: None)
            sched.run()
            raise AssertionError("dump me")

        with pytest.raises(ScheduleFailure):
            body()
        dumps = list(tmp_path.glob("body-seed5.trace"))
        assert len(dumps) == 1
        assert dumps[0].read_text().strip() == "w:start"

    def test_env_seed_and_scale_override(self, monkeypatch):
        monkeypatch.setenv("TESTKIT_SEED", "1000")
        monkeypatch.setenv("TESTKIT_SCHEDULES_SCALE", "2")
        seeds = []

        @interleave(schedules=2, seed=7)
        def body(sched):
            seeds.append(sched.seed)
            sched.spawn("w", lambda: None)
            sched.run()

        body()
        assert seeds == [1000, 1001, 1002, 1003]

    def test_requires_sched_parameter(self):
        with pytest.raises(TypeError, match="first parameter"):
            @interleave(schedules=1)
            def body():  # pragma: no cover - rejected at decoration
                pass

    def test_marker_applied(self):
        @interleave(schedules=1)
        def body(sched):  # pragma: no cover - never run
            pass

        marks = getattr(body, "pytestmark", [])
        assert any(m.name == "interleave" for m in marks)


class TestPointRegistry:
    def test_fire_sites_match_the_registry(self):
        """Every ``_sp.fire("point", ...)`` literal in the package is in
        ``syncpoints.POINTS`` and every registered point has a site."""
        site = re.compile(r'_sp\.fire\(\s*"([^"]+)"')
        fired = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            fired.update(site.findall(path.read_text()))
        assert fired == syncpoints.POINTS
        assert syncpoints.BLOCKING_POINTS <= syncpoints.POINTS

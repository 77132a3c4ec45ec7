"""ShmCounter: the shared-memory fabric across real processes.

Covers the lifecycle (publish/attach/close/unlink, including the
per-slot wake FIFOs), single- and multi-process increment/check, the
seat (the one local waiter that blocks on the process's FIFO: its
kernel wake, its ceiling poll, its handoff to a follower and its
``close``), crash-orphan slot reclamation (a SIGKILLed writer's slot is
reclaimed with its value intact — readers never observe a decrease),
and the observability surface.

Workers are module-level functions under the ``fork`` start method
(children inherit ``sys.path``); every child interaction is bounded by
timeouts so a fabric bug fails the test instead of hanging the suite.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import resource
import signal
import sys
import tempfile
import time

import pytest

from repro.core.errors import CheckTimeout, CounterValueError
from repro.dist import ShmCounter
from repro.dist import shm as shm_mod
from tests.helpers import join_all, spawn, wait_until

ctx = multiprocessing.get_context("fork")


# ------------------------------------------------------- child entry points


def _incrementer(name: str, count: int, started) -> None:
    with ShmCounter.attach(name) as counter:
        started.set()
        for _ in range(count):
            counter.increment()


def _inc_then_wait(name: str, count: int, level: int) -> None:
    with ShmCounter.attach(name) as counter:
        for _ in range(count):
            counter.increment()
        counter.check(level, timeout=30)


def _crash_loop(name: str, started) -> None:  # pragma: no cover - SIGKILLed
    counter = ShmCounter.attach(name)
    started.set()
    while True:
        counter.increment()


def _wait_then_hang(name: str, woke) -> None:  # pragma: no cover - SIGKILLed
    counter = ShmCounter.attach(name)
    counter.check(1, timeout=30)
    woke.set()
    counter.check(1 << 40)  # parked, FIFO open, until SIGKILLed


def _sigkill(proc) -> None:
    if proc.is_alive():
        os.kill(proc.pid, signal.SIGKILL)
    proc.join(10)


def _await_waiters(counter: ShmCounter, n: int = 1) -> None:
    """Wait until ``n`` local waiters are registered, then give them a
    moment to reach the seat's poll or the follower's park."""
    wait_until(lambda: sum(counter._waiting.values()) >= n)
    time.sleep(0.05)


def _fifos(name: str) -> list[str]:
    return glob.glob(os.path.join(tempfile.gettempdir(), f"repro-shm-{name}-*.fifo"))


def _fds_naming(name: str) -> list[str]:
    """Targets of this process's open fds that mention segment ``name``
    (its shm mapping and its FIFOs, deleted or not)."""
    found = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if name in target:
            found.append(target)
    return found


def _monotone_reader(name: str, stop_at: int, violations) -> None:
    with ShmCounter.attach(name) as counter:
        last = 0
        while last < stop_at:
            value = counter.value
            if value < last:
                violations.put((last, value))
                return
            last = value


class TestLifecycle:
    def test_publish_attach_roundtrip(self):
        with ShmCounter.publish(slots=4) as owner:
            other = ShmCounter.attach(owner.name)
            try:
                assert other.slot != owner.slot
                owner.increment(3)
                other.increment(2)
                assert owner.value == other.value == 5
            finally:
                other.close()

    def test_attach_rejects_foreign_segment(self):
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(create=True, size=64)
        try:
            with pytest.raises(ValueError, match="not a ShmCounter"):
                ShmCounter.attach(segment.name)
        finally:
            segment.close()
            segment.unlink()

    def test_slot_exhaustion_is_loud(self):
        with ShmCounter.publish(slots=1):
            pass  # owner holds the only slot; nothing to attach
        with ShmCounter.publish(slots=2) as owner:
            second = ShmCounter.attach(owner.name)
            try:
                with pytest.raises(RuntimeError, match="no free writer slot"):
                    ShmCounter.attach(owner.name)
            finally:
                second.close()

    def test_close_releases_the_slot(self):
        with ShmCounter.publish(slots=2) as owner:
            first = ShmCounter.attach(owner.name)
            taken = first.slot
            first.close()
            second = ShmCounter.attach(owner.name)
            try:
                assert second.slot == taken  # recycled, not leaked
            finally:
                second.close()

    def test_operations_after_close_raise(self):
        owner = ShmCounter.publish(slots=2)
        owner.close()
        with pytest.raises(ValueError, match="closed"):
            owner.increment()
        owner.unlink()

    def test_validation(self):
        with pytest.raises(ValueError):
            ShmCounter.publish(slots=0)
        with ShmCounter.publish(slots=2) as owner:
            with pytest.raises(CounterValueError):
                owner.increment(-1)
            with pytest.raises(CounterValueError):
                owner.check(-1)


class TestSingleProcess:
    def test_immediate_check_is_read_only(self):
        with ShmCounter.publish(slots=2) as counter:
            counter.increment(10)
            counter.check(10)          # satisfied: returns without waiting
            counter.check(10, timeout=0.0)
            assert counter.waiting_levels == ()

    def test_local_waiter_woken_by_local_increment(self):
        with ShmCounter.publish(slots=2) as counter:
            waiter = spawn(counter.check, 5)
            wait_until(lambda: counter.waiting_levels == (5,))
            counter.increment(5)
            join_all([waiter])

    def test_timeout_adjudicates_against_the_scan(self):
        with ShmCounter.publish(slots=2) as counter:
            counter.increment(2)
            start = time.monotonic()
            with pytest.raises(CheckTimeout):
                counter.check(5, timeout=0.1)
            assert time.monotonic() - start < 5.0
            assert counter.waiting_levels == ()


class TestMultiProcess:
    def test_cross_process_increments_sum(self):
        with ShmCounter.publish(slots=4) as owner:
            started = ctx.Event()
            child = ctx.Process(target=_incrementer, args=(owner.name, 500, started))
            child.start()
            assert started.wait(10)
            for _ in range(500):
                owner.increment()
            owner.check(1000, timeout=30)
            child.join(10)
            assert child.exitcode == 0
            assert owner.value == 1000

    def test_cross_process_rendezvous_both_ways(self):
        """Parent and child each produce half and wait for the whole —
        the paper's barrier idiom, across a process boundary."""
        with ShmCounter.publish(slots=4) as owner:
            child = ctx.Process(target=_inc_then_wait, args=(owner.name, 250, 500))
            child.start()
            for _ in range(250):
                owner.increment()
            owner.check(500, timeout=30)
            child.join(30)
            assert child.exitcode == 0

    def test_many_children_one_barrier(self):
        workers = 3
        per_worker = 200
        with ShmCounter.publish(slots=workers + 1) as owner:
            children = [
                ctx.Process(
                    target=_inc_then_wait,
                    args=(owner.name, per_worker, workers * per_worker),
                )
                for _ in range(workers)
            ]
            for child in children:
                child.start()
            owner.check(workers * per_worker, timeout=30)
            for child in children:
                child.join(30)
                assert child.exitcode == 0

    def test_readers_never_observe_a_decrease(self):
        """A reader process polling the scanned sum while a writer is
        SIGKILLed mid-loop must never see the value go down — the
        crash leaves the dead slot's contribution in place."""
        with ShmCounter.publish(slots=4) as owner:
            violations = ctx.Queue()
            started = ctx.Event()
            crasher = ctx.Process(target=_crash_loop, args=(owner.name, started))
            crasher.start()
            assert started.wait(10)
            wait_until(lambda: owner.value > 100, timeout=10)
            target = owner.value + 5000
            reader = ctx.Process(
                target=_monotone_reader, args=(owner.name, target, violations)
            )
            reader.start()
            time.sleep(0.05)
            os.kill(crasher.pid, signal.SIGKILL)
            crasher.join(10)
            # The crasher is gone; the parent closes the gap so the
            # reader terminates, watching monotonicity the whole way.
            owner.increment(target)
            reader.join(30)
            assert reader.exitcode == 0
            assert violations.empty(), f"monotonicity violated: {violations.get()}"


class TestCrashRecovery:
    def test_orphan_slot_reclaimed_with_value_intact(self):
        with ShmCounter.publish(slots=2) as owner:
            started = ctx.Event()
            crasher = ctx.Process(target=_crash_loop, args=(owner.name, started))
            crasher.start()
            assert started.wait(10)
            wait_until(lambda: owner.value > 0, timeout=10)
            os.kill(crasher.pid, signal.SIGKILL)
            crasher.join(10)
            before = owner.value

            # The dead pid's slot is the only free one; a new attach must
            # reclaim it without folding or zeroing its contribution.
            successor = ShmCounter.attach(owner.name)
            try:
                assert owner.value >= before  # nothing was lost
                successor.increment(7)
                assert owner.value == before + 7
                snapshot = successor.dist_snapshot()
                assert snapshot["slot"] == 1
                assert snapshot["published"] == before + 7
            finally:
                successor.close()

    def test_waiter_survives_writer_crash(self):
        """A parked waiter whose remote incrementer dies is not lost:
        another writer closing the gap still wakes it."""
        with ShmCounter.publish(slots=4) as owner:
            started = ctx.Event()
            crasher = ctx.Process(target=_crash_loop, args=(owner.name, started))
            crasher.start()
            assert started.wait(10)
            wait_until(lambda: owner.value > 0, timeout=10)
            os.kill(crasher.pid, signal.SIGKILL)
            crasher.join(10)
            target = owner.value + 10
            waiter = spawn(owner.check, target)
            wait_until(lambda: owner.waiting_levels == (target,))
            owner.increment(10)
            join_all([waiter])


class TestObservability:
    def test_snapshot_shows_local_waiters_and_remote_slots(self):
        with ShmCounter.publish(slots=4) as owner:
            other = ShmCounter.attach(owner.name)
            try:
                owner.increment(3)
                other.increment(4)
                waiter = spawn(owner.check, 99, None)
                wait_until(lambda: owner.waiting_levels == (99,))
                snap = owner.snapshot()
                assert snap.value == 7
                assert any(n.level == 99 and n.count >= 1 for n in snap.nodes)
                dist = owner.dist_snapshot()
                assert dist["backend"] == "shm"
                assert dist["published"] == 7
                assert len(dist["slots"]) == 2  # only active slots listed
                owner.increment(92)
                join_all([waiter])
            finally:
                other.close()

    def test_registered_in_obs_dump(self):
        from repro.obs.dump import dump_state

        with ShmCounter.publish(slots=2) as counter:
            counter.increment(5)
            docs = [
                d for d in dump_state()["counters"]
                if d.get("dist", {}).get("segment") == counter.name
            ]
            assert len(docs) == 1
            assert docs[0]["value"] == 5
            assert docs[0]["dist"]["backend"] == "shm"

    def test_remote_waiting_levels_visible(self):
        with ShmCounter.publish(slots=4) as owner:
            child = ctx.Process(target=_inc_then_wait, args=(owner.name, 1, 50))
            child.start()
            wait_until(
                lambda: any(
                    s.awaited is not None for s in owner.slot_snapshot()
                ),
                timeout=10,
            )
            snap = owner.snapshot()
            assert any(n.level == 50 for n in snap.nodes)
            owner.increment(49)
            child.join(30)
            assert child.exitcode == 0


class TestFifoWake:
    """The per-slot FIFO and the seat: a remote increment wakes the
    waiting process's seat holder through the kernel; the ceiling poll
    is only the backstop, and a leaving holder hands the seat on."""

    def test_remote_increment_wakes_without_a_poll(self, monkeypatch):
        monkeypatch.setattr(shm_mod, "_POLL_MAX", 30.0)
        with ShmCounter.publish(slots=2) as owner:
            other = ShmCounter.attach(owner.name)
            try:
                waiter = spawn(owner.check, 1)
                _await_waiters(owner)
                # Stay parked a while first: a poll that backs off while
                # idle would by now sleep longer than the bound below.
                time.sleep(2.0)
                other.increment()
                join_all([waiter], timeout=1.0)
            finally:
                other.close()

    def test_ceiling_poll_wakes_without_the_fifo_write(self, monkeypatch):
        monkeypatch.setattr(ShmCounter, "_ring_bells", lambda self, slots: None)
        with ShmCounter.publish(slots=2) as owner:
            other = ShmCounter.attach(owner.name)
            try:
                waiter = spawn(owner.check, 1)
                _await_waiters(owner)
                other.increment()
                join_all([waiter], timeout=5.0)
            finally:
                other.close()

    def test_each_new_wait_takes_the_free_seat(self, monkeypatch):
        """With no FIFO bytes from writers, each wait must find the seat
        free and poll at the ceiling itself: a seat left held after a
        wait would leave the next one parked for good."""
        monkeypatch.setattr(ShmCounter, "_ring_bells", lambda self, slots: None)
        with ShmCounter.publish(slots=2) as owner:
            other = ShmCounter.attach(owner.name)
            try:
                for level in (1, 2):
                    waiter = spawn(owner.check, level)
                    _await_waiters(owner)
                    assert owner._seat.locked()
                    other.increment()
                    join_all([waiter], timeout=5.0)
                    assert not owner._seat.locked()
            finally:
                other.close()

    def test_second_waiter_does_not_ring_a_held_seat(self, monkeypatch):
        rings = []
        ring_own = ShmCounter._ring_own
        monkeypatch.setattr(ShmCounter, "_ring_own",
                            lambda self: (rings.append(1), ring_own(self)))
        with ShmCounter.publish(slots=2) as owner:
            other = ShmCounter.attach(owner.name)
            try:
                first = spawn(owner.check, 5)
                _await_waiters(owner)
                second = spawn(owner.check, 3)
                _await_waiters(owner, 2)
                # The follower lowered the bell; a satisfying writer
                # rings the FIFO itself, and the ceiling covers the race.
                assert rings == []
                assert owner.slot_snapshot()[owner.slot].awaited == 3
                other.increment(5)
                join_all([first, second], timeout=5.0)
            finally:
                other.close()

    @pytest.mark.parametrize("wake", ["ceiling", "fifo"])
    def test_holder_timeout_hands_the_seat_to_a_follower(self, monkeypatch, wake):
        """The follower left waiting must take the seat at once: with
        rings stubbed it then finds the store at its ceiling poll; with
        a 30 s ceiling only its own poll on the FIFO can see the ring
        within a second."""
        if wake == "ceiling":
            monkeypatch.setattr(ShmCounter, "_ring_bells", lambda self, slots: None)
        else:
            monkeypatch.setattr(shm_mod, "_POLL_MAX", 30.0)
        with ShmCounter.publish(slots=2) as owner:
            other = ShmCounter.attach(owner.name)
            timed_out = []

            def hold():
                try:
                    owner.check(5, timeout=0.3)
                except CheckTimeout:
                    timed_out.append(True)

            try:
                holder = spawn(hold)
                _await_waiters(owner)
                follower = spawn(owner.check, 3)
                _await_waiters(owner, 2)
                join_all([holder], timeout=5.0)
                assert timed_out == [True]
                assert owner.waiting_levels == (3,)
                wait_until(owner._seat.locked)
                time.sleep(0.05)
                other.increment(3)
                join_all([follower], timeout=1.0 if wake == "fifo" else 5.0)
            finally:
                other.close()

    def test_waiting_levels_list_the_seat_holder(self):
        with ShmCounter.publish(slots=2) as owner:
            holder = spawn(owner.check, 7)
            _await_waiters(owner)
            assert owner.waiting_levels == (7,)
            assert owner.snapshot().total_waiters == 1
            follower = spawn(owner.check, 3)
            _await_waiters(owner, 2)
            assert owner.waiting_levels == (3, 7)
            owner.increment(7)
            join_all([holder, follower], timeout=5.0)
            assert owner.waiting_levels == ()

    def test_close_with_a_seat_held_wakes_every_waiter(self):
        """``close`` neither hangs on the seat holder nor pulls the
        mapping from under its scan: holder and follower each raise the
        closed-handle error, and no bell is left for writers to ring."""
        owner = ShmCounter.publish(slots=2)
        other = ShmCounter.attach(owner.name)
        errors = []

        def wait(level):
            try:
                owner.check(level)
            except ValueError as exc:
                errors.append(str(exc))

        try:
            waiters = [spawn(wait, 9)]
            _await_waiters(owner)
            waiters.append(spawn(wait, 4))
            _await_waiters(owner, 2)
            start = time.monotonic()
            owner.close()
            assert time.monotonic() - start < 1.5
            join_all(waiters, timeout=5.0)
            assert other.slot_snapshot()[owner.slot].awaited is None
        finally:
            other.close()
            owner.close()
            owner.unlink()
        assert len(errors) == 2
        assert all("closed handle" in message for message in errors), errors

    def test_waiter_on_a_reclaimed_slot_is_woken(self, monkeypatch):
        """A SIGKILLed waiter's slot is reclaimed; the writer's cached fd
        for the dead pid is dropped and the new owner's FIFO is rung."""
        monkeypatch.setattr(shm_mod, "_POLL_MAX", 30.0)
        with ShmCounter.publish(slots=2) as owner:
            woke = ctx.Event()
            child = ctx.Process(target=_wait_then_hang, args=(owner.name, woke))
            child.start()
            try:
                wait_until(lambda: any(s.awaited == 1 for s in owner.slot_snapshot()))
                owner.increment()  # wakes the child through its FIFO
                assert woke.wait(10)
                assert owner._bell_fds[1][0] == child.pid
            finally:
                _sigkill(child)

            successor = ShmCounter.attach(owner.name)
            try:
                assert successor.slot == 1
                waiter = spawn(successor.check, 2)
                _await_waiters(successor)
                owner.increment()
                join_all([waiter], timeout=1.0)
                assert owner._bell_fds[1][0] == os.getpid()
            finally:
                successor.close()

    def test_wake_with_fifo_fd_past_1023(self):
        """The seat's wait takes any fd number (``select`` would reject
        one past FD_SETSIZE)."""
        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1200:
            pytest.skip("needs an open-file limit above 1200")
        filler = [os.open(os.devnull, os.O_RDONLY) for _ in range(1100)]
        try:
            with ShmCounter.publish(slots=2) as owner:
                other = ShmCounter.attach(owner.name)
                try:
                    waiter = spawn(owner.check, 1)
                    _await_waiters(owner)
                    assert owner._fifo_fd > 1023
                    other.increment()
                    join_all([waiter], timeout=5.0)
                finally:
                    other.close()
        finally:
            for fd in filler:
                os.close(fd)

    def test_close_leaves_no_fd_and_no_fifo(self):
        owner = ShmCounter.publish(slots=2)
        other = ShmCounter.attach(owner.name)
        name = owner.name
        try:
            # Park on each handle in turn: both make their FIFO, and each
            # caches a writer fd for the other's.
            for waiting, writer in ((owner, other), (other, owner)):
                waiter = spawn(waiting.check, waiting.value + 1)
                _await_waiters(waiting)
                writer.increment()
                join_all([waiter])
            assert len(_fifos(name)) == 2
            assert _fds_naming(name)
        finally:
            other.close()
            owner.close()
            owner.unlink()
        assert _fds_naming(name) == []
        assert _fifos(name) == []

    def test_concurrent_ringers_share_one_cached_fd(self):
        """Many threads incrementing one handle while several threads on
        another wait on rising levels: every wait is met, and the shared
        writer-fd cache neither leaks nor double-closes an fd."""
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        owner = ShmCounter.publish(slots=2)
        other = ShmCounter.attach(owner.name)
        name = owner.name
        rounds, nwriters = 200, 8
        total = rounds * nwriters
        finished = []

        def wait_rising(step):
            for level in range(step, total + 1, step):
                owner.check(level, timeout=20)
            finished.append(step)

        def write():
            for _ in range(rounds):
                other.increment()

        try:
            waiters = [spawn(wait_rising, step) for step in (1, 3, 7, 50)]
            writers = [spawn(write) for _ in range(nwriters)]
            join_all(writers + waiters, timeout=60)
            assert sorted(finished) == [1, 3, 7, 50]
            assert owner.value == total
            assert len(other._bell_fds) <= 1  # one slot rung, one fd
        finally:
            sys.setswitchinterval(old)
            other.close()
            owner.close()
            owner.unlink()
        assert _fds_naming(name) == []

    def test_unlink_removes_a_dead_owners_fifo(self):
        with ShmCounter.publish(slots=2) as owner:
            name = owner.name
            woke = ctx.Event()
            child = ctx.Process(target=_wait_then_hang, args=(name, woke))
            child.start()
            try:
                wait_until(lambda: any(s.awaited == 1 for s in owner.slot_snapshot()))
                owner.increment()
                assert woke.wait(10)
            finally:
                _sigkill(child)
            assert len(_fifos(name)) == 1  # nobody closed it
        assert _fifos(name) == []

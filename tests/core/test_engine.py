"""Unit tests for the unified wakeup engine.

The engine's contract is small and sharp:

* a :class:`ParkingSlot` delivers exactly the sets it was handed —
  set-before-wait is banked, double set crashes loudly, and a wait
  round always re-arms the slot for the thread's next park;
* a :class:`WheelEntry`'s claim has exactly one winner under any
  contention, so a slot can never see two sets for one park round;
* the :class:`TimerWheel` fires what is due, forgets what is cancelled,
  and its single sweeper sleeps/exits/respawns instead of accumulating.

Higher-level protocol races (release vs timeout through the counter)
live in ``test_timeout_races.py``; schedule-driven wheel races live in
``tests/testkit/test_engine_interleave.py``.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.core import engine
from repro.core.engine import ParkingSlot, TimerWheel, WheelEntry, current_slot, wheel
from tests.helpers import join_all, spawn, wait_until


class TestParkingSlot:
    def test_born_armed(self):
        assert ParkingSlot().armed

    def test_set_before_wait_is_banked(self):
        slot = ParkingSlot()
        slot.set()
        assert not slot.armed  # set pending
        assert slot.wait(timeout=0.0) is True  # consumed without blocking
        assert slot.armed  # re-armed by the acquire

    def test_wait_timeout_leaves_slot_armed(self):
        slot = ParkingSlot()
        assert slot.wait(timeout=0.01) is False
        assert slot.armed

    def test_double_set_is_loud(self):
        slot = ParkingSlot()
        slot.set()
        with pytest.raises(RuntimeError):
            slot.set()

    def test_reuse_across_rounds(self):
        slot = ParkingSlot()
        for _ in range(100):
            slot.set()
            assert slot.wait(timeout=1.0) is True
        assert slot.armed

    def test_release_wake_is_set(self):
        slot = ParkingSlot()
        slot.release_wake()  # the polymorphic spelling the release pass uses
        assert slot.wait(timeout=0.0) is True

    def test_cross_thread_handoff(self):
        slot = ParkingSlot()
        woken = []
        waiter = spawn(lambda: (slot.wait(), woken.append(True)))
        wait_until(lambda: waiter.is_alive())
        slot.set()
        join_all([waiter])
        assert woken == [True]
        assert slot.armed


class TestCurrentSlot:
    def test_stable_within_a_thread(self):
        assert current_slot() is current_slot()

    def test_distinct_across_threads(self):
        slots = []
        threads = [spawn(lambda: slots.append(current_slot())) for _ in range(4)]
        join_all(threads)
        mine = current_slot()
        assert len({id(slot) for slot in slots + [mine]}) == 5


class TestWheelEntryClaim:
    def test_first_claim_wins_and_records_why(self):
        entry = WheelEntry(ParkingSlot(), 0.0)
        assert entry.claim("timeout") is True
        assert entry.why == "timeout"
        assert entry.claim("release") is False
        assert entry.why == "timeout"  # loser never overwrites
        assert entry.claimed

    def test_release_wake_loses_to_fired_timeout(self):
        slot = ParkingSlot()
        entry = WheelEntry(slot, 0.0)
        entry.fire_timeout()
        entry.release_wake()  # must not double-set (would raise)
        assert entry.why == "timeout"
        assert slot.wait(timeout=0.0) is True  # exactly one set delivered

    def test_exactly_one_winner_under_contention(self):
        """Many threads race both wake paths of one entry; the slot must
        receive exactly one set — a second would crash the setter."""
        rounds = 50
        racers = 6
        for _ in range(rounds):
            slot = ParkingSlot()
            entry = WheelEntry(slot, 0.0)
            barrier = threading.Barrier(racers)
            errors = []

            def race(i):
                barrier.wait()
                try:
                    if i % 2:
                        entry.fire_timeout()
                    else:
                        entry.release_wake()
                except BaseException as exc:  # pragma: no cover - the failure
                    errors.append(exc)

            threads = [spawn(race, i) for i in range(racers)]
            join_all(threads)
            assert not errors, f"double set leaked through the claim: {errors}"
            assert entry.why in ("release", "timeout")
            assert slot.wait(timeout=1.0) is True   # the single set
            assert slot.wait(timeout=0.0) is False  # and no second one
            assert slot.armed


class _FastIdleWheel(TimerWheel):
    IDLE_LINGER = 0.05


class TestTimerWheel:
    def test_due_entry_fires(self):
        wheel_ = TimerWheel()
        slot = ParkingSlot()
        entry = WheelEntry(slot, time.monotonic() + 0.01)
        wheel_.add(entry)
        assert slot.wait(timeout=5.0) is True
        assert entry.why == "timeout"
        assert wheel_.armed_count() == 0

    def test_sub_millisecond_deadline_fires_promptly(self):
        wheel_ = TimerWheel()
        slot = ParkingSlot()
        start = time.monotonic()
        wheel_.add(WheelEntry(slot, start + 0.0005))
        assert slot.wait(timeout=5.0) is True
        assert time.monotonic() - start < 1.0

    def test_cancel_leaves_no_armed_deadline(self):
        wheel_ = TimerWheel()
        entry = WheelEntry(ParkingSlot(), time.monotonic() + 30.0)
        wheel_.add(entry)
        assert wheel_.armed_count() == 1
        wheel_.cancel(entry)
        assert wheel_.armed_count() == 0
        wheel_.cancel(entry)  # idempotent
        assert wheel_.armed_count() == 0
        assert entry.why is None  # never fired
        assert list(wheel_.entries()) == []

    def test_earlier_add_cuts_the_sleep_short(self):
        """The sweeper may be asleep toward a far deadline; an earlier
        add must wake it, not wait out the far sleep."""
        wheel_ = TimerWheel()
        far = WheelEntry(ParkingSlot(), time.monotonic() + 30.0)
        wheel_.add(far)
        time.sleep(0.02)  # let the sweeper reach its long sleep
        near_slot = ParkingSlot()
        start = time.monotonic()
        wheel_.add(WheelEntry(near_slot, start + 0.01))
        assert near_slot.wait(timeout=5.0) is True
        assert time.monotonic() - start < 5.0
        wheel_.cancel(far)

    def test_mass_timeouts_all_fire(self):
        wheel_ = TimerWheel()
        rng = random.Random(0xF1E5)
        now = time.monotonic()
        pairs = []
        for _ in range(64):
            slot = ParkingSlot()
            entry = WheelEntry(slot, now + rng.random() * 0.05)
            pairs.append((slot, entry))
            wheel_.add(entry)
        for slot, entry in pairs:
            assert slot.wait(timeout=5.0) is True
            assert entry.why == "timeout"
        assert wheel_.armed_count() == 0

    def test_sweeper_idles_out_and_respawns(self):
        wheel_ = _FastIdleWheel()
        slot = ParkingSlot()
        wheel_.add(WheelEntry(slot, time.monotonic() + 0.005))
        assert slot.wait(timeout=5.0) is True
        # Empty wheel: the sweeper lingers briefly, then exits.
        wait_until(lambda: not wheel_.sweeping, timeout=5.0)
        # A fresh add spawns a fresh sweeper and still fires.
        slot2 = ParkingSlot()
        wheel_.add(WheelEntry(slot2, time.monotonic() + 0.005))
        assert wheel_.sweeping
        assert slot2.wait(timeout=5.0) is True

    def test_shared_wheel_accessor_is_a_singleton(self):
        assert wheel() is wheel()

    def test_later_add_does_not_wake_the_sweeper(self):
        """Only a deadline earlier than the one the sweeper sleeps
        toward sets its slot; a later one waits its turn in the heap."""
        wheel_ = TimerWheel()
        sets = []
        real_set = wheel_._slot.set
        wheel_._slot.set = lambda: (sets.append(1), real_set())
        now = time.monotonic()
        far = WheelEntry(ParkingSlot(), now + 30.0)
        wheel_.add(far)
        wait_until(lambda: wheel_._target == far.deadline, timeout=5.0)
        later = WheelEntry(ParkingSlot(), now + 60.0)
        wheel_.add(later)
        assert sets == []
        assert wheel_._target == far.deadline
        earlier = WheelEntry(ParkingSlot(), now + 20.0)
        wheel_.add(earlier)
        assert sets == [1]
        for entry in (far, later, earlier):
            wheel_.cancel(entry)
        assert wheel_.armed_count() == 0

    def test_cancelled_ghosts_stay_bounded(self):
        """Cancelled items linger in the heap only up to the rebuild
        bound: twice the armed entries plus a constant."""
        wheel_ = TimerWheel()
        far = time.monotonic() + 3600.0
        live = [WheelEntry(ParkingSlot(), far + i) for i in range(100)]
        for entry in live:
            wheel_.add(entry)
        slot = ParkingSlot()
        for i in range(10_000):
            entry = WheelEntry(slot, far + 200.0 + i)
            wheel_.add(entry)
            wheel_.cancel(entry)
        assert wheel_.armed_count() == 100
        assert len(wheel_._heap) <= 3 * 100 + engine._GHOST_SLACK
        for entry in live:
            wheel_.cancel(entry)
        assert wheel_.armed_count() == 0


class TestSlotReuseHammer:
    """The satellite hammer: one slot, hundreds of park rounds, both
    wake paths racing — a double set anywhere crashes ``slot.set`` and
    fails the round; a leaked (unconsumed) set breaks the next round's
    arming assertion."""

    def test_slots_never_double_set_across_reuse(self):
        wheel_ = TimerWheel()
        rng = random.Random(0xBEEF)
        rounds = 150
        outcomes = []
        pending = []
        done = threading.Event()
        errors = []

        def waiter():
            try:
                slot = current_slot()
                for _ in range(rounds):
                    assert slot.armed, "stray set leaked into a fresh round"
                    entry = WheelEntry(slot, time.monotonic() + rng.random() * 0.003)
                    wheel_.add(entry)
                    pending.append(entry)
                    slot.wait()
                    while entry.why is None:
                        slot.wait()
                    if entry.why == "release":
                        wheel_.cancel(entry)
                    outcomes.append(entry.why)
            except BaseException as exc:  # pragma: no cover - the failure
                errors.append(exc)
            finally:
                done.set()

        def releaser():
            try:
                while not done.is_set() or pending:
                    try:
                        entry = pending.pop()
                    except IndexError:
                        time.sleep(0.0005)
                        continue
                    entry.release_wake()
            except BaseException as exc:  # pragma: no cover - the failure
                errors.append(exc)

        threads = [spawn(waiter, name="hammer-waiter"),
                   spawn(releaser, name="hammer-releaser")]
        join_all(threads)
        assert not errors, errors
        assert len(outcomes) == rounds
        # Both wake paths should actually have been exercised.
        assert "release" in outcomes
        assert wheel_.armed_count() == 0

    def test_concurrent_add_cancel_and_sweeps_deliver_one_set_each(self):
        """Threads arm far deadlines they release and cancel (ghosts pile
        up past the rebuild bound) and near ones the sweeper fires, with
        a short switch interval: every park round gets exactly one set
        and the wheel ends with nothing armed."""
        wheel_ = TimerWheel()
        rounds, workers = 1000, 6
        outcomes = []
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            slot = current_slot()
            try:
                for _ in range(rounds):
                    release = rng.random() < 0.7
                    if not release:
                        delay = rng.random() * 0.002
                    elif rng.random() < 0.5:
                        delay = 1.0  # a ghost once cancelled
                    else:
                        delay = 0.0  # the sweeper pops it as the cancel runs
                    entry = WheelEntry(slot, time.monotonic() + delay)
                    wheel_.add(entry)
                    if release:
                        entry.release_wake()
                    assert slot.wait(timeout=5.0) is True
                    wheel_.cancel(entry)
                    assert slot.armed
                    outcomes.append(entry.why)
            except BaseException as exc:  # pragma: no cover - the failure
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            join_all([spawn(worker, seed) for seed in range(workers)])
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert len(outcomes) == rounds * workers
        assert set(outcomes) == {"release", "timeout"}
        assert wheel_.armed_count() == 0

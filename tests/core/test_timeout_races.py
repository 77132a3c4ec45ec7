"""The timeout-vs-increment race, pinned down three ways.

The satellite requirement: a ``check(level, timeout=...)`` whose timeout
expires *concurrently* with the increment that satisfies it must never
lose the wakeup (report a timeout for a satisfied condition) and must
never leak its wait node.  The engine makes the arbitration explicit —
a timed wait first parks on its raw slot for a bounded grace (where the
release pass is the only possible setter), escalates onto the wheel if
it lingers, and there the entry's one-shot *claim* decides which waker
(release pass or timer sweeper) delivers the slot set; every timeout
verdict, grace expiry or timer claim alike, is only *provisional* until
adjudicated against ``released`` under the counter lock — and these
tests drive every ordering of that window:

* **Scripted interleavings** — deterministic hooks on the counter's
  park seams (after registration / after the timer's provisional
  verdict) let each ordering of {timer claim, release, adjudication}
  be forced, one test per ordering, no luck.
* **Hammer** — many real threads with tiny real timeouts racing real
  increments; every generously-budgeted waiter must succeed and the
  counter must come back quiescent every round.
* **Model** — the schedule explorer exhaustively interleaves the §7
  semantics of a coalesced multi-level release, certifying that *no*
  schedule strands a checker.

Since the test kit landed there is a fourth way: schedule injection over
the real primitives' sync points.  ``tests/testkit/test_scripted_regressions.py``
re-expresses the trapping-``_drain_lock`` preemption below as a pure
schedule (no monkeypatched attributes) and additionally replays it
against a re-introduced pre-fix ``increment`` to show the leak it guards
against.  This file's versions are kept: they test the same windows with
zero harness machinery in the loop.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import nullcontext

import pytest

from repro.core import CheckTimeout, MonotonicCounter
from repro.core import counter as counter_mod
from repro.core.engine import WheelEntry
from repro.obs import observe
from repro.simthread import SimCounter
from repro.verify import ExplorerProgram, explore
from tests.helpers import join_all, registered_handles, series_of, spawn, wait_until


class ScriptedParkCounter(MonotonicCounter):
    """A counter with deterministic hooks on the engine's park seams.

    ``on_park(level)`` runs after the wait node (and its engine handle)
    is registered under the counter lock but *before* the thread parks —
    the window where a release can deliver a slot set that the park must
    consume rather than lose.  ``on_verdict(level)`` runs after the
    timer wheel has claimed the entry (the provisional timeout verdict)
    but *before* the counter-lock adjudication — the no-lost-wakeup
    window.
    """

    def __init__(self, on_park=None, on_verdict=None, **kwargs):
        super().__init__(**kwargs)
        self._on_park = on_park
        self._on_verdict = on_verdict

    def _park(self, node, waiter, level, timeout, t_parked=None):
        if self._on_park is not None:
            self._on_park(level)
        return super()._park(node, waiter, level, timeout, t_parked)

    def _adjudicate_timeout(self, node, entry, level, timeout, t_parked=None):
        if self._on_verdict is not None:
            self._on_verdict(level)
        return super()._adjudicate_timeout(node, entry, level, timeout, t_parked)


def _quiescent(counter) -> None:
    """The counter must be fully reclaimed: no nodes, no draining set."""
    assert counter.snapshot().waiting_levels == ()
    assert not counter._draining
    counter.reset()  # refuses (raises) if any waiter or drainer leaked
    assert counter.value == 0


class TestScriptedInterleavings:
    def test_release_lands_between_verdict_and_adjudication(self):
        """Order A: the timer wheel genuinely fires first and claims the
        entry (provisional timeout verdict), but the increment sneaks in
        before the waiter reaches the counter lock.  Adjudication must
        see ``released`` and report success — this is the no-lost-wakeup
        window.  The release pass meanwhile loses the claim and must
        no-op (nobody double-sets the slot)."""
        counter = ScriptedParkCounter(on_verdict=lambda level: counter.increment(1))
        with observe(trace=False) as h:
            counter.check(1, timeout=0.005)  # must NOT raise
        assert counter.value == 1
        assert series_of(h, counter).parks == 1
        assert series_of(h, counter).timeouts == 0
        _quiescent(counter)

    def test_release_lands_before_the_park_consumes_the_pending_set(self):
        """Order B: the increment runs in the registration→park gap, so
        the slot set is delivered *before* ``slot.wait()`` begins.
        Semaphore semantics must bank it: the park consumes the pending
        set and returns success immediately."""
        counter = ScriptedParkCounter(on_park=lambda level: counter.increment(1))
        with observe(trace=False) as h:
            counter.check(1, timeout=10.0)  # must NOT raise, and not wait 10s
        assert counter.value == 1
        assert series_of(h, counter).timeouts == 0
        _quiescent(counter)

    def test_release_beats_the_instant_probe_claim(self):
        """Order B', instant-probe variant: ``timeout=0`` never arms the
        wheel — the parker goes straight to adjudication under the
        counter lock.  A release that already landed in the registration
        gap means our slot's set is banked (or in flight); the probe
        must consume it (keeping the slot armed for the thread's next
        park) and report success."""
        counter = ScriptedParkCounter(on_park=lambda level: counter.increment(1))
        with observe(trace=False) as h:
            counter.check(1, timeout=0)  # must NOT raise
        assert counter.value == 1
        assert series_of(h, counter).timeouts == 0
        _quiescent(counter)

    def test_genuine_timeout_deregisters_cleanly(self):
        """Order C: no increment anywhere.  The timeout must be reported,
        the node reclaimed, and the counter left fully usable."""
        counter = ScriptedParkCounter()
        with observe(trace=False) as h:
            with pytest.raises(CheckTimeout):
                counter.check(3, timeout=0.005)
        assert series_of(h, counter).timeouts == 1
        _quiescent(counter)
        # The counter is not poisoned: normal operation still works.
        counter.increment(3)
        counter.check(3, timeout=0)

    def test_coalesced_release_with_concurrent_timeout_at_one_level(self):
        """One increment releases levels 1 and 2 in a single pass while
        the level-2 waiter's timer has already claimed its entry (it is
        gated between verdict and adjudication).  Both waiters must
        succeed and the whole batch must drain."""
        verdict_reached = threading.Event()
        go = threading.Event()

        def on_verdict(level):
            assert level == 2
            verdict_reached.set()
            assert go.wait(10)

        counter = ScriptedParkCounter(on_verdict=on_verdict)
        outcomes = []
        with observe(trace=False) as h:
            a = spawn(lambda: (counter.check(1, timeout=10), outcomes.append("a")))
            b = spawn(lambda: (counter.check(2, timeout=0.005), outcomes.append("b")))
            assert verdict_reached.wait(10)
            wait_until(lambda: 1 in counter.snapshot().waiting_levels)
            counter.increment(2)  # one coalesced release pass for both nodes
            go.set()
            join_all([a, b])
        assert sorted(outcomes) == ["a", "b"]
        tallies = series_of(h, counter)
        assert tallies.releases == 2
        assert tallies.unparks == 2
        assert tallies.timeouts == 0
        _quiescent(counter)


class TestWheelEscalation:
    """Staged parking's stage two: a timed wait that outlives the
    slot-mode grace must swap its registered slot for a claim-guarded
    wheel entry and behave exactly like the pre-grace design from there
    — release wins via the claim, timeouts fire no earlier than the
    requested deadline."""

    def test_lingering_wait_escalates_and_release_wakes_through_the_claim(
        self, monkeypatch
    ):
        monkeypatch.setattr(counter_mod, "_TIMER_GRACE", 0.001)
        counter = MonotonicCounter()
        done = []
        with observe(trace=False) as h:
            worker = spawn(lambda: (counter.check(1, timeout=30.0), done.append(True)))
            # The handle swap under the counter lock is the observable
            # escalation: the registered ParkingSlot becomes a WheelEntry.
            wait_until(
                lambda: any(
                    type(handle) is WheelEntry
                    for handle in registered_handles(counter)
                )
            )
            counter.increment(1)
            join_all([worker])
        assert done == [True]
        assert series_of(h, counter).timeouts == 0
        assert series_of(h, counter).unparks == 1
        _quiescent(counter)

    def test_lingering_wait_escalates_then_times_out(self, monkeypatch):
        monkeypatch.setattr(counter_mod, "_TIMER_GRACE", 0.001)
        counter = MonotonicCounter()
        start = time.monotonic()
        with observe(trace=False) as h:
            with pytest.raises(CheckTimeout):
                counter.check(1, timeout=0.01)
        # Escalation re-anchors the deadline at grace expiry, so the
        # timeout may land late but never early.
        assert time.monotonic() - start >= 0.009
        assert series_of(h, counter).timeouts == 1
        _quiescent(counter)
        counter.increment(1)
        counter.check(1, timeout=0)


class _TrapDrainLock:
    """Drop-in for the counter's ``_drain_lock`` trapping its first taker.

    ``increment`` acquires ``_drain_lock`` exactly once, *inside* its
    critical section, to insert the drained nodes — so trapping the
    first acquisition suspends the increment at the most delicate point
    of the release: node unlinked and ``released`` marked, but the
    draining insert (and everything after it) not yet performed.  Later
    acquisitions (the last-leaver pop, snapshot, reset) pass through.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.arrived = threading.Event()
        self.proceed = threading.Event()
        self._trapped = False

    def __enter__(self):
        if not self._trapped:
            self._trapped = True
            self.arrived.set()
            assert self.proceed.wait(10)
        return self._lock.__enter__()

    def __exit__(self, *exc_info):
        return self._lock.__exit__(*exc_info)


class TestIncrementPreemptedMidCriticalSection:
    """Preempt ``increment`` *inside* its critical section.

    A parked waiter wakes only through its engine slot, set by the
    out-of-lock signal pass, so nothing the increment publishes before
    its critical section is finished may be observable to it.  If the
    wakeup were delivered early (as ``signaled`` once was), a waiter
    could resume, pop the node's countdown to zero, and run the
    last-leaver ``_draining.pop`` *before* the increment's insert —
    leaking the entry forever (``reset()`` poisoned) and leaving
    ``_live_waiters`` permanently inflated.  The scripted tests above
    never preempt ``increment`` mid-section; this one does,
    deterministically.
    """

    def test_release_is_unobservable_until_the_critical_section_ends(self):
        counter = MonotonicCounter()
        outcomes = []
        waiter = spawn(lambda: (counter.check(1, timeout=30), outcomes.append("ok")))
        wait_until(lambda: counter.snapshot().waiting_levels == (1,))
        node = next(iter(counter._waiters))
        trap = _TrapDrainLock()
        counter._drain_lock = trap
        incrementer = spawn(counter.increment, 1)
        assert trap.arrived.wait(10)
        # The increment is now suspended mid-critical-section: the node is
        # unlinked and marked released, the draining insert still pending.
        assert node.released
        # The set flag must NOT be observable yet — it is what parked
        # threads synchronize on, under only the node lock.
        assert not node.signaled
        # And indeed no waiter has resumed through the half-done release.
        assert outcomes == []
        assert waiter.is_alive()
        trap.proceed.set()
        join_all([waiter, incrementer])
        assert outcomes == ["ok"]
        _quiescent(counter)


class TestTimeoutHammer:
    """Real threads, real (tiny) timeouts, real increments, many rounds."""

    @pytest.mark.parametrize("strategy", ["linked", "heap"])
    def test_no_lost_wakeups_and_no_leaks(self, strategy):
        rng = random.Random(0xC0FFEE)
        rounds, waiters = 25, 8
        for round_no in range(rounds):
            counter = MonotonicCounter(strategy=strategy)
            outcomes = [None] * waiters
            # Odd rounds run with the obs tallies on (and check them),
            # even rounds on the uninstrumented production path.
            observed = round_no % 2 == 1

            def wait(w):
                # Even waiters have a generous budget and MUST succeed;
                # odd waiters race a ~1ms timeout against the increments.
                timeout = 30.0 if w % 2 == 0 else rng.random() * 0.002
                try:
                    counter.check((w % 4) + 1, timeout=timeout)
                    outcomes[w] = "ok"
                except CheckTimeout:
                    outcomes[w] = "timeout"

            with observe(trace=False) if observed else nullcontext() as h:
                threads = [spawn(wait, w) for w in range(waiters)]
                incrementers = [spawn(counter.increment, 2) for _ in range(2)]
                join_all(threads + incrementers)

            assert counter.value == 4
            for w in range(0, waiters, 2):
                assert outcomes[w] == "ok", f"lost wakeup for waiter {w}: {outcomes}"
            assert all(outcome in ("ok", "timeout") for outcome in outcomes)
            if observed:
                assert series_of(h, counter).timeouts == outcomes.count("timeout")
            # Quiescence: every node reclaimed, nothing stuck draining.
            assert counter.snapshot().waiting_levels == ()
            assert not counter._draining
            counter.reset()


class TestModelNoLostWakeups:
    """The schedule explorer certifies the §7 semantics: over *every*
    interleaving, a release covering several levels wakes all of them."""

    def test_coalesced_release_wakes_every_level_in_all_schedules(self):
        def program():
            counter = SimCounter()
            woken = []

            def checker(level):
                yield counter.check(level)
                woken.append(level)

            def incrementer():
                yield counter.increment(3)

            return ExplorerProgram(
                tasks=[checker(1), checker(2), checker(3), incrementer()],
                observe=lambda: tuple(sorted(woken)),
            )

        report = explore(program)
        assert report.deadlocks == 0
        assert report.states == {(1, 2, 3)}
        assert report.deterministic

    def test_split_increments_release_across_schedules(self):
        def program():
            counter = SimCounter()
            woken = []

            def checker(level):
                yield counter.check(level)
                woken.append(level)

            def incrementer(amount):
                yield counter.increment(amount)

            return ExplorerProgram(
                tasks=[checker(1), checker(3), incrementer(2), incrementer(1)],
                observe=lambda: tuple(sorted(woken)),
            )

        report = explore(program)
        assert report.deadlocks == 0
        assert report.states == {(1, 3)}

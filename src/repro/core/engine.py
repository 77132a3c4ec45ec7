"""The unified wakeup engine: parking slots, a timer wheel, one contract.

Before this module existed the repo had three divergent wakeup paths:
the counter's per-node ``threading.Condition`` release, MultiWait's
private condition variable, and the asyncio bridge's mirrored-counter
double park.  Each paid its own machinery per wait — a fresh
``Condition`` (an allocation plus a lock handoff) per wait node, a
per-instance condvar per MultiWait, a second counter per bridge.  This
module replaces all of them with two primitives:

:class:`ParkingSlot`
    A futex-style reusable binary semaphore, **one per thread**
    (:func:`current_slot`, thread-local, allocated once).  Parking is
    ``slot.wait()`` — an acquire of a raw lock the slot keeps *armed*
    (held) between waits; waking is ``slot.set()`` — a release of that
    lock.  A set that lands before the wait is never lost (semaphore
    semantics), which is exactly the property the old protocol bought
    with the node's private condvar and the ``signaled`` re-test.  A
    coalesced release becomes "set N slots": no per-level lock is taken
    on the wakeup path at all.

:class:`TimerWheel`
    A min-heap of absolute deadlines shared by **every** timed wait
    in the process (``check(timeout=)``, ``MultiWait.wait_*``), swept by
    a single lazily-spawned daemon thread that parks on its own slot
    until the earliest deadline and exits after a short idle linger.
    Each timed wait contributes one :class:`WheelEntry`.

The invariant that makes slot reuse sound is **exactly-one-set-per-
park**: for every round a thread parks, at most one ``set`` is ever
delivered to its slot, and the round consumes it.  Untimed waits get
this for free (only the release pass may set).  Timed waits have two
potential wakers — the release pass and the sweeper — so the entry
carries a one-shot **claim** (a raw lock acquired non-blockingly):
whichever side wins the claim performs the set and records ``why``; the
loser does nothing.  The waiter branches on ``why`` after waking, and on
a timer verdict still adjudicates against ``node.released`` under the
counter lock, so the no-lost-wakeup guarantee is unchanged (see
``docs/engine.md`` for the full mapping of the two-flag protocol onto
slots).

Asyncio waiters do not park on slots: the aio side's "slot" is a loop
future completed via ``loop.call_soon_threadsafe`` (see
``repro.aio.bridge.CounterBridge.check``), the engine's third leg.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from heapq import heapify, heappop, heappush
from typing import Iterator

from repro.core import syncpoints as _sp

__all__ = [
    "ParkingSlot",
    "WheelEntry",
    "TimerWheel",
    "current_slot",
    "live_slot_count",
    "wheel",
]

_allocate_lock = threading.Lock
_clock = time.monotonic

#: The sweeper's ``_target`` while it is not asleep: no deadline is
#: earlier, so no ``add`` sets its slot.
_AWAKE = float("-inf")

#: Disarmed heap items allowed beyond twice the armed ones before
#: ``cancel`` rebuilds the heap.
_GHOST_SLACK = 32


class ParkingSlot:
    """A reusable one-thread parking spot: an *armed* raw lock.

    The lock is held ("armed") whenever the owner is not being woken:
    ``wait()`` blocks acquiring it and — because a successful acquire
    leaves the lock held again — re-arms the slot on the way out, so one
    slot serves every wait its thread ever performs.  ``set()`` releases
    the lock, unblocking the waiter (or, if it has not called ``wait()``
    yet, pre-paying the wait: the semaphore shape is what makes a
    set-before-wait impossible to lose).

    Setting an unarmed slot raises ``RuntimeError`` (release of an
    unlocked lock) — a double set is a *loud* protocol violation, never
    a silent lost or spurious wakeup.  The engine's claim discipline
    guarantees at most one set per park round; the hammer in
    ``tests/core/test_engine.py`` leans on slots crashing to prove it.

    The mutating operations are *bound C methods*, not Python wrappers:

    ``set()``
        Wake the parked (or about-to-park) owner; one per park round.
    ``release_wake()``
        The same operation under the name the release pass uses —
        polymorphic with :class:`WheelEntry`, so an untimed waiter can
        sit directly in ``node.waiters`` and the coalesced wake sweep
        ("set N slots") pays one C call per waiter, no frame.
    ``block()``
        ``wait()`` with no timeout, minus the wrapper frame — the
        spelling the hot untimed park paths use.

    All three are assigned in ``__init__`` (they are the raw lock's own
    ``release``/``acquire``), which is why they live in ``__slots__``
    rather than as ``def``s.
    """

    __slots__ = ("_lock", "set", "release_wake", "block", "__weakref__")

    def __init__(self) -> None:
        lock = _allocate_lock()
        lock.acquire()  # born armed
        self._lock = lock
        self.set = self.release_wake = lock.release
        self.block = lock.acquire
        # Once per slot lifetime (one slot per thread, plus the timer
        # wheel sweeper's dedicated slot) — nowhere near any wait
        # path, so the registry costs nothing per park.
        _live_slots.add(self)

    def wait(self, timeout: float | None = None) -> bool:
        """Park until ``set()`` (or ``timeout``); True if set arrived.

        Returning re-arms the slot either way: on a wakeup the acquire
        itself re-arms; on a timeout the lock was never released.
        """
        if timeout is None:
            self._lock.acquire()
            return True
        return self._lock.acquire(True, timeout)

    @property
    def armed(self) -> bool:
        """True while no set is pending (diagnostic; racy by nature)."""
        return self._lock.locked()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ParkingSlot {'armed' if self.armed else 'set-pending'}>"


#: Every live slot, held weakly: a thread's slot dies with its
#: thread-local, so the count tracks live parking capacity, not history.
_live_slots: "weakref.WeakSet[ParkingSlot]" = weakref.WeakSet()


def live_slot_count() -> int:
    """Parking slots currently alive (diagnostic, for ``dump_state``).

    One per thread that ever parked, plus the timer-wheel sweeper's
    dedicated slot; weakly tracked, so exited threads fall out.
    """
    return len(_live_slots)


_thread_slots = threading.local()


def current_slot() -> ParkingSlot:
    """The calling thread's parking slot, allocated on first use.

    One slot per thread for the life of the thread — this is the
    allocation the old per-wait ``Condition`` paid on *every* parked
    check, performed exactly once here.
    """
    try:
        return _thread_slots.slot
    except AttributeError:
        slot = _thread_slots.slot = ParkingSlot()
        return slot


class WheelEntry:
    """One timed wait: a slot, an absolute deadline, and the claim.

    ``claim(why)`` is the arbitration point between the two possible
    wakers — the release pass (via :meth:`release_wake`) and the wheel's
    sweeper (via :meth:`fire_timeout`).  The claim is a one-element
    token list popped non-blockingly: ``list.pop`` is a single C call
    that exactly one caller can win (atomic under the GIL, and under the
    per-object lock on free-threaded builds), so one side records
    ``why`` (``"release"`` or ``"timeout"``) and delivers the slot's
    single set.  The loser's wake is dropped *before* touching the slot,
    which is what keeps the slot's one-set-per-park invariant intact
    across reuse.  A token list costs a quarter of the raw lock this
    used as its first shape — and an entry is born and claimed on every
    single timed park, so the allocation is squarely on the hot path.

    ``why`` is written by the claim winner before the set and read by
    the waiter after its wait returns; the set's release/acquire pairing
    orders the two, so the waiter always observes its verdict.
    """

    __slots__ = ("slot", "deadline", "why", "_token", "_armed")

    def __init__(self, slot: ParkingSlot, deadline: float) -> None:
        self.slot = slot
        self.deadline = deadline
        self.why: str | None = None
        self._token = [None]
        self._armed = False  # True while in a wheel and not yet cancelled or fired

    def claim(self, why: str) -> bool:
        """Try to become the entry's single waker; True on the win."""
        try:
            self._token.pop()
        except IndexError:
            return False
        self.why = why
        return True

    def release_wake(self) -> None:
        """Release-pass side: wake the waiter unless the timer beat us.

        The claim is open-coded (here and in :meth:`fire_timeout`)
        rather than delegated to :meth:`claim`: the release pass calls
        this once per timed waiter inside the coalesced wake sweep, and
        the nested frame was measurable there.
        """
        if _sp.enabled:
            _sp.fire("wheel.release", self)
        try:
            self._token.pop()
        except IndexError:
            return
        self.why = "release"
        self.slot.set()

    def fire_timeout(self) -> None:
        """Sweeper side: deliver the timeout unless a release beat us.

        Usually called from the wheel's sweeper daemon (which no test
        harness owns, so its sync point passes through); tests drive
        the claim race by calling it from a gated worker directly.
        """
        if _sp.enabled:
            _sp.fire("wheel.timeout", self)
        try:
            self._token.pop()
        except IndexError:
            return
        self.why = "timeout"
        self.slot.set()

    @property
    def claimed(self) -> bool:
        """True once either side has won the claim (diagnostic)."""
        return not self._token

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<WheelEntry deadline={self.deadline:.6f} why={self.why!r}>"


class TimerWheel:
    """Every timed wait in the process, in one min-heap of deadlines.

    Items are ``(deadline, seq, entry)``: ``seq`` breaks deadline ties in
    arrival order, so entries themselves are never compared.  ``add``
    pushes one item under the wheel lock.  ``cancel`` only *disarms* the
    entry (its ``_armed`` flag goes false) and leaves the item in place;
    :meth:`_take_due` pops every head due by ``now`` and returns the
    armed ones, dropping the disarmed ghosts it meets.  A ghost at the
    head costs the sweeper at most one early wake, never a missed one.
    Ghosts are bounded: once they outnumber twice the armed entries plus
    ``_GHOST_SLACK``, ``cancel`` rebuilds the heap from the armed items,
    so a steady add/cancel stream costs amortised O(log n) and the heap
    never grows past a constant factor of what is armed.

    The sweeper is a single daemon thread, spawned on the first ``add``
    and re-spawned on demand after it exits: once the wheel has been
    empty for ``IDLE_LINGER`` seconds the thread returns rather than
    sleeping forever, so test processes do not accumulate parked
    sweepers.  It parks on its own :class:`ParkingSlot` and records the
    time it sleeps toward in ``_target`` (``_AWAKE`` while it is not
    asleep); an ``add`` whose deadline is earlier than that time sets
    the slot (under the wheel lock) and resets the target, so a long
    sleep is cut short exactly once and later deadlines cost no wake.

    ``fire_timeout`` on due entries runs *outside* the wheel lock — the
    sweeper must never hold the lock while delivering sets, or a burst
    of timeouts would convoy adds behind it.
    """

    IDLE_LINGER = 0.25

    __slots__ = ("_lock", "_heap", "_seq", "_count", "_sweeper", "_target", "_slot")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._heap: list[tuple[float, int, WheelEntry]] = []
        self._seq = itertools.count().__next__
        self._count = 0
        self._sweeper: threading.Thread | None = None
        self._target = _AWAKE
        self._slot = ParkingSlot()

    def add(self, entry: WheelEntry) -> None:
        """Arm ``entry``; wakes (or spawns) the sweeper as needed."""
        deadline = entry.deadline
        entry._armed = True
        self._lock.acquire()
        try:
            heappush(self._heap, (deadline, self._seq(), entry))
            self._count += 1
            if self._sweeper is None:
                sweeper = threading.Thread(
                    target=self._sweep, name="repro-timer-wheel", daemon=True
                )
                self._sweeper = sweeper
                sweeper.start()
            elif deadline < self._target:
                # The sweeper sleeps toward a later time; cut the sleep
                # short.  Set under the wheel lock so the sweeper's
                # post-wait bookkeeping (which re-takes the lock) always
                # finds the set already delivered.
                self._target = _AWAKE
                self._slot.set()
        finally:
            self._lock.release()

    def cancel(self, entry: WheelEntry) -> None:
        """Disarm ``entry`` (release won); idempotent.

        The heap item stays behind as a ghost that the sweeper drops
        when it surfaces (or a rebuild drops sooner), but after
        ``cancel`` returns no sweep can fire the entry, so a satisfied
        wait leaves no armed deadline behind.
        """
        if not entry._armed:
            return
        self._lock.acquire()
        try:
            # Re-tested under the lock: the sweeper may have taken the
            # entry as due since the unlocked read.
            if entry._armed:
                entry._armed = False
                self._count -= 1
                heap = self._heap
                if len(heap) > 3 * self._count + _GHOST_SLACK:
                    heap[:] = [item for item in heap if item[2]._armed]
                    heapify(heap)
        finally:
            self._lock.release()

    def armed_count(self) -> int:
        """Entries currently armed (for tests and introspection)."""
        with self._lock:
            return self._count

    def entries(self) -> Iterator[WheelEntry]:
        """Snapshot of the armed entries (introspection only)."""
        with self._lock:
            snapshot = [item[2] for item in self._heap if item[2]._armed]
        return iter(snapshot)

    @property
    def sweeping(self) -> bool:
        """True while a sweeper thread is alive (diagnostic)."""
        return self._sweeper is not None

    def snapshot(self) -> dict:
        """JSON-ready wheel internals (for ``dump_state`` / debugging).

        ``armed`` is the live entry count, ``pending`` the soonest
        entries as ``{deadline_in_s, why}`` relative to now (capped at
        32 — a dump is a glance, not a download), ``sweeping`` whether
        the sweeper thread currently exists.
        """
        now = _clock()
        entries = sorted(self.entries(), key=lambda e: e.deadline)
        return {
            "armed": self.armed_count(),
            "sweeping": self.sweeping,
            "pending": [
                {"deadline_in_s": round(entry.deadline - now, 6),
                 "why": entry.why}
                for entry in entries[:32]
            ],
        }

    # ----------------------------------------------------------- sweeper

    def _take_due(self, now: float) -> list[WheelEntry]:
        """Pop and return the armed entries due at ``now`` (lock held).

        The due set is a function of ``now`` and the heap alone — no
        state carried between sweeps — so any clock may drive it.
        """
        heap = self._heap
        due = []
        while heap and heap[0][0] <= now:
            entry = heappop(heap)[2]
            if entry._armed:
                entry._armed = False
                due.append(entry)
        self._count -= len(due)
        return due

    def _sweep(self) -> None:
        lock, slot = self._lock, self._slot
        idle_deadline: float | None = None
        while True:
            with lock:
                now = _clock()
                due = self._take_due(now)
                if not due:
                    if self._count:
                        idle_deadline = None
                        target = self._heap[0][0]
                    else:
                        # Only ghosts are left; drop them so an idle
                        # wheel holds no memory.
                        self._heap.clear()
                        if idle_deadline is None:
                            idle_deadline = now + self.IDLE_LINGER
                        elif now >= idle_deadline:
                            # Idle long enough: exit; the next add()
                            # spawns a fresh sweeper.
                            self._sweeper = None
                            return
                        target = idle_deadline
                    self._target = target
            if due:
                idle_deadline = None
                # Outside the wheel lock: each fire is a claim attempt
                # plus (on the win) one slot set; losers were released
                # concurrently and their cancel already ran or will
                # no-op.
                for entry in due:
                    entry.fire_timeout()
                continue
            woke = slot.wait(target - now)
            with lock:
                if self._target != _AWAKE:
                    self._target = _AWAKE
                elif not woke:
                    # An add() reset the target and delivered a set
                    # while our own timeout was landing; the set
                    # happened under the wheel lock, so it is already
                    # here — consume it to re-arm the slot.
                    slot.wait()
            if woke:
                idle_deadline = None


#: The process-wide wheel every timed wait arms by default.  Tests can
#: build private wheels; production code shares this one so there is a
#: single sweeper no matter how many counters exist.
_WHEEL = TimerWheel()


def wheel() -> TimerWheel:
    """The shared process-wide :class:`TimerWheel`."""
    return _WHEEL

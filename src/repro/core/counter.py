"""Monotonic counter implementations over locks and engine parking slots.

This is the paper's §7 implementation, transliterated to
``threading.Lock`` and the unified wakeup engine
(:mod:`repro.core.engine`):

* one mutual-exclusion lock per counter protecting the value and the
  wait-list structure,
* a dynamically-varying ordered list of wait nodes, one node per distinct
  level on which at least one thread is suspended,
* each node holding the parked threads' **per-thread parking slots**
  (futex-style reusable binary semaphores), a waiter count, and the
  *set* flag of Figure 2.

``check(level)`` with ``level <= value`` returns immediately — by default
from a lock-free read of the value, sound because the enabling condition
is *stable* (the value never decreases, so a stale satisfied read can
never be wrong later).  A check that misses goes straight to the
paper's suspend step: it finds-or-inserts the node for ``level``, bumps
its count, and parks on its thread's engine slot (timed waits that
outlive a short grace additionally arm one entry on the shared timer
wheel).  ``increment(amount)`` bumps the
value, unlinks every satisfied node **inside** the counter lock, then
wakes them in one coalesced pass **outside** it: one slot set per
waiter, each woken thread handed its already-satisfied node so it never
re-acquires the counter lock just to re-test.  The last waiter to leave
a node "deallocates" it (drops the final reference).  Storage and
per-op time are O(L) in the number of distinct waiting levels, never
O(total waiters).

Three classes are exported:

* :class:`MonotonicCounter` — the canonical counter; pluggable waitlist
  strategy (``"linked"`` is the paper-literal list, ``"heap"`` a
  binary-heap variant with identical semantics).
* :class:`BroadcastCounter` — the *naive* baseline: one condition variable
  for everybody, ``notify_all`` on every increment.  Semantically
  equivalent but wakes O(total waiters) threads per increment; it exists so
  benchmark E8 can measure what §7's per-level queues actually buy.

plus :class:`CounterSubscription`, the cancellation handle returned by the
``subscribe`` hook that :class:`repro.core.multiwait.MultiWait` builds on.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Literal

from repro.core import syncpoints as _sp
from repro.core.api import AbstractCounter
from repro.core.engine import (
    WheelEntry,
    _thread_slots,
    current_slot,
    wheel as _shared_wheel,
)
from repro.obs import hooks as _obs
from repro.obs.registry import register as _obs_register
from repro.core.errors import CheckTimeout, CounterOverflowError, ResetConcurrencyError
from repro.core.snapshot import CounterSnapshot, WaitNodeSnapshot
from repro.core.validation import (
    validate_amount,
    validate_level,
    validate_max_value,
    validate_timeout,
)
from repro.core.waitlist import HeapWaitList, LinkedWaitList, WaitList, WaitNode

#: Every timed park arms the process-wide timer wheel (one sweeper for
#: all counters); the wheel — and its two hot methods — are bound once
#: so a timed park pays module-global loads, no attribute walks.
_WHEEL = _shared_wheel()
_wheel_add = _WHEEL.add
_wheel_cancel = _WHEEL.cancel
#: Likewise the lock type: the rate limiter builds two counters per new
#: key, each constructing its lock.
_Lock = threading.Lock

#: Staged parking: a timed ``check`` first parks on its raw slot for at
#: most this many seconds (one C-level timed acquire — the same cost as
#: an untimed park) and only *escalates* onto the wheel if it is still
#: waiting when the grace lapses.  Short-lived timed waits — the common
#: case in handoff-shaped workloads — therefore never pay the wheel's
#: entry allocation, arm, and cancel; lingering waits still get vectored
#: onto the single sweeper so k long timeouts cost one sleeping thread,
#: not k.  Tests shrink this to force the escalation path.
_TIMER_GRACE = 0.02

__all__ = ["MonotonicCounter", "BroadcastCounter", "Counter", "CounterSubscription"]

WaitListStrategy = Literal["linked", "heap"]


class CounterSubscription:
    """Handle for one level-reached notification registered on a counter.

    Returned by ``subscribe``; :meth:`cancel` deregisters the callback if
    it has not fired yet.  Idempotent.  Primarily consumed by
    :class:`repro.core.multiwait.MultiWait`.
    """

    __slots__ = ("_counter", "_node", "_callback", "_cancelled")

    def __init__(
        self, counter: "MonotonicCounter", node: WaitNode, callback: Callable[[], None]
    ) -> None:
        self._counter = counter
        self._node = node
        self._callback = callback
        self._cancelled = False

    def cancel(self) -> None:
        """Deregister the callback (no-op if it already fired)."""
        if self._cancelled:
            return
        self._cancelled = True
        counter = self._counter
        node = self._node
        if _sp.enabled:
            _sp.fire("subscribe.cancel", counter)
        with counter._lock:
            if node.released:
                return  # fired (or firing) — nothing left to remove
            subscribers = node.subscribers
            if subscribers is None:
                return
            try:
                subscribers.remove(self._callback)
            except ValueError:
                return
            if (
                node.count == 0
                and not subscribers
                and counter._waiters.discard_if_empty(node)
            ):
                counter._live_levels -= 1


class MonotonicCounter(AbstractCounter):
    """The monotonic counter of Thornley & Chandy (IPPS 2000).

    Example
    -------
    >>> from repro.core.counter import MonotonicCounter
    >>> c = MonotonicCounter()
    >>> c.increment(3)
    3
    >>> c.check(2)   # 3 >= 2: returns immediately
    >>> c.value
    3

    Parameters
    ----------
    strategy:
        ``"linked"`` (default) uses the paper's ordered linked list of wait
        nodes; ``"heap"`` uses a binary heap.  Identical semantics.
    max_value:
        Optional upper bound on the value (mirrors the paper's
        ``unsigned int``); exceeding it raises
        :class:`~repro.core.errors.CounterOverflowError` and leaves the
        value unchanged.
    name:
        Optional label used in ``repr``, error messages and the
        :mod:`repro.obs` metric series that tally its operations.
    fast_path:
        ``True`` (default) lets an already-satisfied ``check`` return from
        an unsynchronized read of the value without ever touching the
        lock.  ``False`` forces every ``check`` through the lock — the
        pre-optimization behavior, kept selectable so the benchmark
        harness can measure what the fast path buys.
    """

    __slots__ = (
        "_lock",
        "_value",
        # Waiter-only state, unset until the counter's first
        # registration (a park or a subscribe) allocates all three
        # (_alloc_waiters): a counter nobody waits on holds none of it.
        "_waiters",
        "_draining",
        "_drain_lock",
        # Set only for the non-default "heap" strategy.
        "_strategy",
        "_max_value",
        "_name",
        "_fast_path",
        "_live_levels",
        "_live_waiters",
        # Memoized observability label (repro.obs.registry.label writes it
        # on first use) so enabled-mode emission skips the string format.
        "_obs_label", "_obs_chan",
        # Weakly referenceable so the observability registry (watchdog,
        # dump_state) can track live counters without extending lifetimes.
        "__weakref__",
    )

    def __init__(
        self,
        *,
        strategy: WaitListStrategy = "linked",
        max_value: int | None = None,
        name: str | None = None,
        fast_path: bool = True,
    ) -> None:
        if strategy != "linked":
            if strategy != "heap":
                raise ValueError(f"unknown waitlist strategy: {strategy!r}")
            self._strategy = strategy
        # The two hot critical sections (increment, parked check) call
        # the lock's acquire/release directly, which costs about a
        # quarter of a ``with`` block; cold paths keep ``with
        # self._lock:`` for readability.
        self._lock = _Lock()
        self._value = 0
        # Same inline-accept trick as increment(): the rate limiter builds
        # counters on every new key, and None is the common bound.
        if max_value is not None:
            validate_max_value(max_value)
        self._max_value = max_value
        self._name = name
        self._fast_path = fast_path
        # Live-level / live-waiter counts, maintained incrementally so the
        # suspend path's high-water bookkeeping is O(1) instead of the
        # former O(L) ``len(waiters)`` / ``sum(node.count ...)`` scans.
        self._live_levels = 0
        self._live_waiters = 0
        _obs_register(self)

    # ------------------------------------------------------------------ API

    @property
    def value(self) -> int:
        """Current value.  Diagnostic only — synchronize with ``check``.

        Read without the lock, on the ``check`` fast path's argument:
        the value never decreases, so a possibly stale read is a value
        the counter really held and can only under-report.
        """
        return self._value

    def increment(self, amount: int = 1) -> int:
        """Atomically add ``amount`` and wake all newly-satisfied waiters.

        The wakeups are *coalesced*: satisfied nodes are unlinked (and the
        tallies settled) inside the counter lock, but the wake sweep —
        one engine-slot set per waiter — runs after the lock is
        dropped, so woken threads and later increments never convoy
        behind it.  No wakeup can be lost to that split: a node is
        marked ``released`` under the counter lock before the lock is
        dropped, and a slot set delivered before the waiter parks is
        consumed by the park itself (semaphore semantics; see
        docs/api.md and docs/engine.md for the full argument).
        """
        # Inline the validator's accept case (an exact nonnegative int,
        # excluding bool) so the overwhelmingly common call pays a type
        # check instead of a function call; anything else goes through
        # the full validator for the real diagnostic.
        if type(amount) is not int or amount < 0:
            amount = validate_amount(amount)
        released: list[WaitNode] | None = None
        # The seam flags are read once per path, not per use: each read
        # is a module-dict + attribute lookup.  The release path keeps
        # the sync-point flag in ``sp_on`` for its later fire points,
        # and reads the obs flag once after the lock.  Both flags only
        # flip between operations (test setup, obs enable/disable),
        # never meaningfully mid-call.
        if _sp.enabled:
            _sp.fire("increment.lock", self)
        self._lock.acquire()
        try:
            new_value = self._value + amount
            if self._max_value is not None and new_value > self._max_value:
                raise CounterOverflowError(
                    f"{self!r}: increment({amount}) would exceed max_value={self._max_value}"
                )
            self._value = new_value
            # Uncontended fast path: with no live waiting level the release
            # scan cannot find anything, so skip it entirely.
            if amount and self._live_levels:
                released = self._waiters.release_through(new_value)
                if released:
                    sp_on = _sp.enabled
                    if sp_on:
                        _sp.fire("increment.release", self)
                    draining = None
                    for node in released:
                        # `released` is the linearization point as seen
                        # under the counter lock (timeout adjudication,
                        # snapshot).  The paper's *set* flag, `signaled`,
                        # and the waiters' slot sets are published ONLY
                        # by signal() below, after this critical section:
                        # a parked thread resumes the moment its slot is
                        # set, so waking it here would let it observe the
                        # release — pop the drain countdown, even run the
                        # last-leaver _draining.pop — before the tallies
                        # and the _draining insert below have settled.
                        node.released = True
                        self._live_levels -= 1
                        self._live_waiters -= node.count
                        if node.count:
                            # Freeze the drain countdown *inside* the
                            # critical section: a timed waiter whose
                            # adjudication sees `released` under this
                            # lock may resume before the out-of-lock
                            # signal pass runs, and it pops from this
                            # list.  After this point node.waiters is
                            # immutable (no registration on a released
                            # node), so the copy is exact.
                            node.countdown = node.waiters[:]
                            if draining is None:
                                draining = [node]
                            else:
                                draining.append(node)
                    if draining:
                        # Must happen before any waiter can observe the
                        # release — guaranteed because waiters observe it
                        # either via signal() (which runs only after this
                        # critical section) or via `released` under the
                        # counter lock — so the last-leaver pop can never
                        # precede the insert.
                        if sp_on:
                            _sp.fire("increment.drain", self)
                        with self._drain_lock:
                            for node in draining:
                                self._draining[id(node)] = node
        finally:
            self._lock.release()
        if released:
            if sp_on:
                _sp.fire("increment.unlock", self)
            obs_on = _obs.enabled
            obs_ctx = None
            if obs_on:
                # Pre-signal half: one clock() read stamps every node's
                # released_ts (so woken threads can measure the wakeup
                # path) and pre-allocates the event seqs.  Constructing
                # the increment/release Events is deferred past the
                # signal pass below — the handoff window between release
                # decision and notify stays as short as disabled mode's.
                obs_ctx = _obs.on_release_stamp(released)
            # The coalesced wake pass: counter lock long gone, one slot
            # set per waiter ("set N slots"), subscribers fired after.
            for node in released:
                if sp_on:
                    _sp.fire("increment.signal", self)
                if obs_on and node.subscribers:
                    _obs.on_sub_fire(self, node.level, len(node.subscribers),
                                     token=node.token)
                node.signal()
            if obs_ctx is not None:
                _obs.on_increment_released(self, amount, new_value, obs_ctx)
        elif _obs.enabled:
            _obs.on_increment(self, amount, new_value)
        return new_value

    def check(self, level: int, timeout: float | None = None) -> None:
        """Suspend the calling thread until ``value >= level``.

        As in §7, a check the lock-free fast path cannot satisfy
        re-tests under the counter lock, registers on the level's wait
        node, and parks on its per-thread engine slot until the
        satisfying increment's release pass sets it.
        """
        # Same inline-accept trick as increment(): the fast path below is
        # the hottest statement in the package and must not pay two
        # validator calls to reach it.
        if type(level) is not int or level < 0:
            level = validate_level(level)
        if timeout is not None and (type(timeout) is not float or timeout < 0.0):
            timeout = validate_timeout(timeout)
        # Lock-free fast path.  Soundness rests on stability (§6): the value
        # only ever increases (there is no decrement, and reset() contractually
        # requires quiescence), and every write happens before the lock is
        # released.  So if this *unsynchronized, possibly stale* read already
        # shows value >= level, the condition held at some earlier moment and
        # — being stable — holds now and forever: returning without the lock
        # is safe.  A stale read can only err in the other direction, sending
        # us to the locked slow path, which re-tests under the lock.
        if self._fast_path and self._value >= level:
            return
        # The engine handle this wait parks on: always the thread's
        # reusable slot — timed waits park on it too (staged parking;
        # see _park), swapping in a claim-guarded WheelEntry only if
        # they outlive the grace.  The thread-local read is inlined
        # (current_slot()'s own fast path); the function is only called
        # to allocate on first use.
        try:
            waiter = _thread_slots.slot
        except AttributeError:
            waiter = current_slot()
        if _sp.enabled:
            _sp.fire("check.lock", self)
        self._lock.acquire()
        try:
            if self._value >= level:
                return
            try:
                waiters = self._waiters
            except AttributeError:  # the counter's first registration
                waiters = self._alloc_waiters()
            node = waiters.find_or_insert(level)
            if node.count == 0 and not node.subscribers:
                self._live_levels += 1
            node.count += 1
            node.waiters.append(waiter)
            self._live_waiters += 1
        finally:
            self._lock.release()
        # Counter lock dropped: park on the engine slot.  The release
        # that satisfies this level already holds the waiter handle (it
        # was handed the whole node under the counter lock), so neither
        # side touches the counter lock again on the normal wake path.
        t_parked: float | None = None
        if _obs.enabled:
            # Racy reads of value/levels/waiters: diagnostic payload only.
            # on_park returns the timestamp it stamped on the event, reused
            # as the park time so the slow path reads the clock once here.
            t_parked = _obs.on_park(self, level, self._value, self._live_levels,
                                    self._live_waiters, node.token)
        self._park(node, waiter, level, timeout, t_parked)

    def _alloc_waiters(self) -> WaitList:
        """Allocate the waiter-only state (counter lock held).

        Runs once, at the counter's first registration (a missed
        ``check`` or a ``subscribe``), so a counter nobody waits on
        carries only its value, lock and name (§7: storage grows with
        the distinct waiting levels).  ``_draining`` holds the nodes an
        increment released whose waiters have not all resumed yet — the
        "set" nodes of Figure 2 (e)/(f), kept so snapshots reproduce the
        figure; the last waiter out drops its node (the paper's
        deallocation point).  It is guarded by ``_drain_lock``, never
        the counter lock, so leaving waiters stay off the counter's
        critical path; increment inserts while holding counter lock ->
        ``_drain_lock`` (that nesting order, never the reverse).  Both
        are set before ``_waiters``, so a set ``_waiters`` implies them.
        """
        self._draining: dict[int, WaitNode] = {}
        self._drain_lock = _Lock()
        if getattr(self, "_strategy", "linked") == "heap":
            waiters: WaitList = HeapWaitList()
        else:
            waiters = LinkedWaitList()
        self._waiters = waiters
        return waiters

    def _park(
        self,
        node: WaitNode,
        waiter,
        level: int,
        timeout: float | None,
        t_parked: float | None = None,
    ) -> None:
        """Park on the engine until the release sets our slot or a
        timeout verdict is reached.

        ``waiter`` is the handle registered in ``node.waiters`` under
        the counter lock — always the thread's :class:`ParkingSlot`.
        Timed waits park in two stages: first a bounded *grace* wait on
        the slot itself (a single C timed acquire, the same cost as the
        untimed park), during which the release pass is the only
        possible setter; only a wait still parked when the grace lapses
        escalates, swapping its registered handle for a claim-guarded
        :class:`WheelEntry` under the counter lock and arming the
        process-wide wheel for the remainder.  The swap is atomic with
        respect to the release (``release_through`` unlinks nodes under
        the same lock), so at every instant the node holds exactly one
        handle for this waiter and exactly one set is ever delivered to
        the slot per park round (see ``docs/engine.md``).
        """
        if _sp.enabled:
            _sp.fire("park.enter", self)
        if timeout is None:
            slot = waiter
            slot.block()
            # In normal operation the only possible set is the release
            # pass's; the re-check guards against a stray set (e.g. a
            # wait round abandoned to an async exception) being
            # mistaken for it.  signaled is written before the slot
            # set, so the genuine wakeup always passes.
            while not node.signaled:
                slot.block()
            self._finish_wake(node, level, t_parked)
            return
        slot = waiter
        if timeout != 0.0:
            # Stage one: park on the raw slot for min(timeout, grace).
            # slot.block is the lock's bound acquire, so this is the
            # untimed park plus a timeout argument — no wheel traffic.
            grace = _TIMER_GRACE
            if slot.block(True, timeout if timeout < grace else grace):
                while not node.signaled:  # stray set; see above
                    slot.block()
                self._finish_wake(node, level, t_parked)
                return
            if timeout >= grace:
                # Stage two: the wait outlived the grace — vector the
                # remainder onto the wheel.  Under the counter lock the
                # release either already happened (fall through to
                # adjudication, which consumes its pending set) or has
                # not started its signal pass for this node, in which
                # case swapping the registered handle for a WheelEntry
                # funnels both future wakers through the entry's claim.
                entry = None
                self._lock.acquire()
                try:
                    if not node.released:
                        now = time.monotonic()
                        # Anchored at grace expiry rather than at
                        # check() entry: the armed deadline can only be
                        # *later* than the true one, so timeouts may
                        # land late (like any OS timed wait) but never
                        # early.  Spares the hot timed path a clock read
                        # it usually never needs.
                        deadline = now + (timeout - grace)
                        if deadline > now:
                            entry = WheelEntry(slot, deadline)
                            handles = node.waiters
                            handles[handles.index(slot)] = entry
                finally:
                    self._lock.release()
                if entry is not None:
                    _wheel_add(entry)
                    slot.block()
                    while entry.why is None:  # stray set; see above
                        slot.block()
                    if entry.why == "release":
                        _wheel_cancel(entry)
                        self._finish_wake(node, level, t_parked)
                        return
                    # The timer won the claim: provisional verdict only.
                    if _sp.enabled:
                        _sp.fire("park.verdict", self)
                    self._adjudicate_timeout(node, entry, level, timeout, t_parked)
                    return
        # Timeout verdict in slot mode: the grace wait expired with the
        # whole budget spent (timeout < grace), the deadline had already
        # lapsed at escalation, an instant probe (timeout == 0.0), or
        # the release landed during the grace (adjudication sees it and
        # consumes the pending set).  Never arms the wheel; the verdict
        # is provisional until adjudicated under the counter lock.
        if _sp.enabled:
            _sp.fire("park.verdict", self)
        self._adjudicate_timeout(node, slot, level, timeout, t_parked)

    def _adjudicate_timeout(
        self,
        node: WaitNode,
        entry,
        level: int,
        timeout: float | None,
        t_parked: float | None = None,
    ) -> None:
        """Decide a timeout verdict: genuine timeout or concurrent release.

        ``entry`` is the waiter's registered handle — its raw
        :class:`ParkingSlot` when the verdict came from a slot-mode
        grace wait (or instant probe), its :class:`WheelEntry` when the
        wheel sweeper won the claim.  ``released`` is only ever set
        inside an increment's critical section, so holding the counter
        lock gives a definitive answer — either the increment that
        reaches this level has already run (the check succeeded; no
        timeout) or it has not (genuine timeout; deregister).  A wakeup
        can therefore never be lost *and* a satisfying increment can
        never be reported as a timeout.  Factored out of :meth:`_park`
        as the deterministic seam the scripted race tests drive (they
        inject an increment between the timeout verdict and this
        adjudication).
        """
        if _sp.enabled:
            _sp.fire("park.adjudicate", self)
        expired_value: int | None = None
        with self._lock:
            if not node.released:
                node.count -= 1
                self._live_waiters -= 1
                try:
                    # Deregister the handle too (slot or spent entry):
                    # with the node still unreleased under this lock, no
                    # release can have set our slot, and after removal
                    # none ever will — but leaving the handle would grow
                    # the node's waiter list.
                    node.waiters.remove(entry)
                except ValueError:  # pragma: no cover - defensive
                    pass
                if (
                    node.count == 0
                    and not node.subscribers
                    and self._waiters.discard_if_empty(node)
                ):
                    # Reclaimed the level's node so storage stays
                    # proportional to live levels.
                    self._live_levels -= 1
                expired_value = self._value
        if expired_value is not None:
            # Genuine timeout, fully deregistered above; the emission and
            # the raise both happen with no lock held.
            if _obs.enabled:
                _obs.on_timeout(self, level, expired_value, t_parked, token=node.token)
            raise CheckTimeout(
                f"{self!r}: check({level}) timed out after {timeout}s "
                f"(value={expired_value})"
            )
        # Released concurrently with the expiry: the check succeeded.
        if type(entry) is not WheelEntry:
            # Slot-mode: no claim stands between us and the release, so
            # its set is banked (or in flight) on our slot — consume it
            # so the slot stays armed for the thread's next park.
            entry.block()
            while not node.signaled:  # stray set; see _park
                entry.block()
        # Wheel-mode needs no consuming: the release lost the entry's
        # claim, so our slot was never set.
        self._finish_wake(node, level, t_parked)

    def _finish_wake(self, node: WaitNode, level: int, t_parked: float | None) -> None:
        """Success-path bookkeeping after a wake (or adjudicated release).

        The one resume step: each of :meth:`_park`'s released branches
        (untimed, grace-window, wheel-escalated) and the adjudicated
        release end here.  Lock-free: the countdown list was frozen inside the releasing
        increment's critical section, every resuming waiter pops exactly
        one token (``list.pop`` is atomic), and the popper that empties
        it drops the draining entry (atomic ``dict.pop``; the insert
        happened inside the same critical section, so it can never be
        outrun).  The old path's per-node lock handoff and last-leaver
        ``_drain_lock`` acquisition are both gone.
        """
        if _obs.enabled:
            _obs.on_wake(self, node, level, t_parked)
        countdown = node.countdown
        countdown.pop()
        if not countdown:
            if _sp.enabled:
                _sp.fire("park.drain", self)
            self._draining.pop(id(node), None)

    def subscribe(
        self, level: int, callback: Callable[[], None]
    ) -> CounterSubscription | None:
        """Register ``callback`` to fire once when ``value >= level``.

        Returns ``None`` — without invoking the callback — when the level
        is already satisfied, else a :class:`CounterSubscription` whose
        ``cancel()`` deregisters it.  The callback runs in the
        incrementing thread, outside the counter lock; it must be quick,
        must not raise, and must not call back into this counter.  This
        is the hook :class:`repro.core.multiwait.MultiWait` is built on.
        """
        level = validate_level(level)
        if not callable(callback):
            raise TypeError(f"callback must be callable, got {callback!r}")
        if self._fast_path and self._value >= level:
            return None
        if _sp.enabled:
            _sp.fire("subscribe.lock", self)
        with self._lock:
            if self._value >= level:
                return None
            try:
                waiters = self._waiters
            except AttributeError:  # the counter's first registration
                waiters = self._alloc_waiters()
            node = waiters.find_or_insert(level)
            if node.count == 0 and not node.subscribers:
                self._live_levels += 1
            if node.subscribers is None:
                node.subscribers = []
            node.subscribers.append(callback)
        return CounterSubscription(self, node, callback)

    def reset(self) -> None:
        """Reset the value to zero for reuse between algorithm phases.

        Per the paper's contract, ``reset`` must never run concurrently
        with other operations on the same counter; a reset while threads
        are suspended in ``check`` (or subscriptions are outstanding) is
        detected and refused.
        """
        with self._lock:
            if not hasattr(self, "_waiters"):  # never registered a waiter
                self._value = 0
                return
            with self._drain_lock:
                draining = len(self._draining)
            if len(self._waiters) != 0 or draining:
                raise ResetConcurrencyError(
                    f"{self!r}: reset() with {len(self._waiters)} waiting level(s) "
                    f"and {draining} draining node(s); reset must not "
                    "be concurrent with other counter operations"
                )
            self._value = 0

    # -------------------------------------------------------- introspection

    def snapshot(self) -> CounterSnapshot:
        """Freeze value + wait-node chain (reproduces Figure 2 states).

        Includes *set* nodes whose woken waiters have not all resumed yet
        (Figure 2 (e)/(f)), ordered by level ahead of the live waiting
        list, which never overlaps them.
        """
        with self._lock:
            if not hasattr(self, "_waiters"):  # never registered a waiter
                return CounterSnapshot(value=self._value, nodes=())
            with self._drain_lock:
                # Materialize the node list inside the drain lock (which
                # orders us after any in-flight increment's insert), but
                # NOT the snapshots: resuming waiters pop the draining
                # dict lock-free, so iteration must run over a detached
                # list.  A drained node whose last waiter already popped
                # its countdown token is logically deallocated — hide
                # it.  Capture and filter in one pass: the countdown
                # shrinks concurrently, so a node passing an `if` could
                # still be captured empty a moment later.
                nodes = list(self._draining.values())
            draining = sorted(
                (snap for node in nodes if (snap := node.snapshot()).count),
                key=lambda snap: snap.level,
            )
            return CounterSnapshot(
                value=self._value,
                nodes=tuple(draining)
                + tuple(node.snapshot() for node in self._waiters),
            )

    @property
    def waiting_levels(self) -> tuple[int, ...]:
        """Distinct levels with suspended threads, ascending."""
        return self.snapshot().waiting_levels

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return f"<MonotonicCounter{label} value={self._value}>"


class _BroadcastSubscription:
    """Cancellation handle for a :class:`BroadcastCounter` subscription."""

    __slots__ = ("_counter", "_level", "_callback", "_cancelled")

    def __init__(
        self, counter: "BroadcastCounter", level: int, callback: Callable[[], None]
    ) -> None:
        self._counter = counter
        self._level = level
        self._callback = callback
        self._cancelled = False

    def cancel(self) -> None:
        if self._cancelled:
            return
        self._cancelled = True
        counter = self._counter
        with counter._cond:
            callbacks = counter._subs.get(self._level)
            if not callbacks:
                return
            try:
                callbacks.remove(self._callback)
            except ValueError:
                return
            if not callbacks:
                del counter._subs[self._level]


class BroadcastCounter(AbstractCounter):
    """Naive counter: one shared condition variable, broadcast on increment.

    Semantically a monotonic counter, but every increment wakes **every**
    waiting thread so each can re-test its own level — O(total waiters)
    wakeups against the paper implementation's O(released waiters).  Kept
    as the ablation baseline for benchmark E8 and as the simplest-possible
    reference implementation for differential testing.  It does share the
    lock-free satisfied-``check`` fast path (the stability argument is
    implementation-independent) and supports ``subscribe`` so
    :class:`~repro.core.multiwait.MultiWait` can span implementations.
    """

    __slots__ = (
        "_cond",
        "_value",
        "_max_value",
        "_name",
        "_waiting",
        "_subs",
        "_fast_path",
        "_obs_label", "_obs_chan",
        "__weakref__",
    )

    def __init__(
        self,
        *,
        max_value: int | None = None,
        name: str | None = None,
        fast_path: bool = True,
    ) -> None:
        self._cond = threading.Condition()
        self._value = 0
        self._max_value = validate_max_value(max_value)
        self._name = name
        self._waiting = 0
        self._subs: dict[int, list[Callable[[], None]]] = {}
        self._fast_path = bool(fast_path)
        _obs_register(self)

    @property
    def value(self) -> int:
        return self._value  # lock-free: monotone, as in MonotonicCounter

    def increment(self, amount: int = 1) -> int:
        amount = validate_amount(amount)
        fired: list[Callable[[], None]] | None = None
        with self._cond:
            new_value = self._value + amount
            if self._max_value is not None and new_value > self._max_value:
                raise CounterOverflowError(
                    f"{self!r}: increment({amount}) would exceed max_value={self._max_value}"
                )
            self._value = new_value
            if amount:
                if self._waiting:
                    self._cond.notify_all()
                if self._subs:
                    satisfied = [lv for lv in self._subs if lv <= new_value]
                    if satisfied:
                        fired = []
                        for lv in satisfied:
                            fired.extend(self._subs.pop(lv))
        if _obs.enabled:
            _obs.on_increment(self, amount, new_value)
        if fired:
            # Outside the lock, like the per-level counter's wake pass.
            for callback in fired:
                callback()
        return new_value

    def check(self, level: int, timeout: float | None = None) -> None:
        level = validate_level(level)
        timeout = validate_timeout(timeout)
        # Same lock-free satisfied fast path as MonotonicCounter, same
        # stability-based soundness argument (docs/api.md).
        if self._fast_path and self._value >= level:
            return
        with self._cond:
            if self._value >= level:
                return
            self._waiting += 1
            deadline = None if timeout is None else time.monotonic() + timeout
            try:
                while True:
                    # One park/unpark pair per wait round: every round is
                    # a suspension that a notify_all (or the deadline)
                    # ended, so ``unparks`` counts each wakeup this
                    # baseline pays, the spurious ones included.  The
                    # emissions run under the shared condition's lock —
                    # unavoidable here (the whole wait lives inside it),
                    # and part of why this is the *baseline*.
                    t_parked: float | None = None
                    if _obs.enabled:
                        t_parked = _obs.on_park(self, level, self._value, 1, self._waiting)
                    if deadline is None:
                        self._cond.wait()
                    else:
                        remaining = deadline - time.monotonic()
                        if (
                            remaining <= 0 or not self._cond.wait(remaining)
                        ) and self._value < level:
                            if _obs.enabled:
                                _obs.on_timeout(self, level, self._value, t_parked)
                            raise CheckTimeout(
                                f"{self!r}: check({level}) timed out after {timeout}s "
                                f"(value={self._value})"
                            )
                    if _obs.enabled:
                        _obs.on_wake(self, None, level, t_parked)
                    if self._value >= level:
                        return
            finally:
                self._waiting -= 1

    def subscribe(
        self, level: int, callback: Callable[[], None]
    ) -> _BroadcastSubscription | None:
        """Register ``callback`` to fire once when ``value >= level``.

        Same contract as :meth:`MonotonicCounter.subscribe`.
        """
        level = validate_level(level)
        if not callable(callback):
            raise TypeError(f"callback must be callable, got {callback!r}")
        if self._fast_path and self._value >= level:
            return None
        with self._cond:
            if self._value >= level:
                return None
            self._subs.setdefault(level, []).append(callback)
        return _BroadcastSubscription(self, level, callback)

    def reset(self) -> None:
        with self._cond:
            if self._waiting or self._subs:
                raise ResetConcurrencyError(
                    f"{self!r}: reset() with {self._waiting} waiting thread(s) "
                    f"and {len(self._subs)} subscribed level(s)"
                )
            self._value = 0

    def snapshot(self) -> CounterSnapshot:
        # The broadcast counter has a single anonymous queue; we surface it
        # as one pseudo-node at the *smallest* level anyone could be waiting
        # for (unknown), reported as -1-free structure: no per-level info.
        with self._cond:
            nodes = (
                (WaitNodeSnapshot(level=self._value + 1, count=self._waiting),)
                if self._waiting
                else ()
            )
            return CounterSnapshot(value=self._value, nodes=nodes)

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return f"<BroadcastCounter{label} value={self._value}>"


#: Alias matching the paper's class name (``class Counter { ... }``, §2).
Counter = MonotonicCounter

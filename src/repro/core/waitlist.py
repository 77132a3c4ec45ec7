"""Waiting-list strategies for monotonic counters.

Section 7 of the paper represents a counter's suspended threads as *"a
dynamically changing ordered list of condition variables, with one node for
each level on which one or more threads are waiting"*.  This module
implements that data structure twice:

* :class:`LinkedWaitList` — the literal §7 algorithm: an ordered singly
  linked list searched/spliced in O(L) where L is the number of distinct
  waiting levels.  This is the canonical implementation and the one whose
  states reproduce Figure 2.
* :class:`HeapWaitList` — a binary-heap + hash-map variant with O(log L)
  insertion and O(k log L) release of k nodes.  Functionally identical;
  exists to let the E8 benchmark quantify how much the list discipline
  matters.

Both structures assume the **caller holds the counter's lock** for every
call; they contain no locking of their own.  Waiters park on the unified
wakeup engine's per-thread :class:`~repro.core.engine.ParkingSlot`\\ s:
each node carries the list of slots (or, for timed waits that have
outlived their grace phase and escalated onto the timer wheel,
claim-guarded :class:`~repro.core.engine.WheelEntry` handles) of the
threads suspended
at its level, and a release wakes the whole level by setting each slot —
no per-level lock, no lock handoff, outside the counter lock.  That
split is what lets ``increment`` hand a whole batch of satisfied levels
their wakeups *outside* the counter lock, so woken threads resume
without re-convoying through it (see the no-lost-wakeup argument in
``docs/api.md`` and the slot mapping in ``docs/engine.md``).
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, Protocol

from repro.core import syncpoints as _sp
from repro.core.snapshot import WaitNodeSnapshot
from repro.obs.events import next_token as _next_token

__all__ = [
    "WaitNode",
    "WaitList",
    "LinkedWaitList",
    "HeapWaitList",
]


class WaitNode:
    """One distinct waiting level: the four-component node of §7.

    ``level``       the counter value the waiters need,
    ``count``       number of threads currently waiting at that level,
    ``waiters``     the per-waiter engine handles parked at the level —
                    a :class:`~repro.core.engine.ParkingSlot` per waiter,
                    swapped (under the counter lock) for a
                    :class:`~repro.core.engine.WheelEntry` once a timed
                    wait escalates past its grace phase onto the timer
                    wheel (both expose ``release_wake()``),
    ``next``        the link used by :class:`LinkedWaitList`.

    Two flags track a release, split across the protocol's two sides:

    ``released`` is set **under the counter lock** when an increment
    unlinks the node from the wait list; it is what the timeout path
    (which holds the counter lock) consults to distinguish "my wait
    genuinely expired" from "I was released concurrently".
    ``signaled`` — the paper's *set* flag — is set by :meth:`signal`,
    outside the counter lock, immediately before the slot wake sweep.
    Under the engine the slot set itself is what a parked thread
    synchronizes on (a set-before-wait is never lost by semaphore
    semantics, so the old condvar re-test window does not exist);
    ``signaled`` remains the observable set flag for snapshots,
    introspection, and the stray-set re-check loop.

    ``waiters`` is mutated only under the counter lock and only while
    the node is unreleased (registration appends, timeout adjudication
    removes); once ``released`` is set no waiter can register or
    deregister, so the signal pass iterates it without a lock.
    ``countdown`` is the drain bookkeeping: a copy of ``waiters`` frozen
    inside the releasing increment's critical section, from which each
    resuming waiter atomically pops one token — the waiter that empties
    it drops the node from the counter's draining set (the paper's
    deallocation point) with no lock at all.

    ``subscribers`` holds callbacks registered by
    :class:`repro.core.multiwait.MultiWait`; they fire exactly once, from
    :meth:`signal`, after the node's own waiters have been woken.
    """

    __slots__ = (
        "level",
        "count",
        "waiters",
        "countdown",
        "signaled",
        "released",
        "released_ts",
        "token",
        "subscribers",
        "next",
    )

    def __init__(self, level: int) -> None:
        self.level = level
        self.count = 0
        self.waiters: list = []
        self.countdown: list | None = None
        self.signaled = False
        self.released = False
        # Stamped by the observability layer's release hook (between the
        # increment's critical section and the signal pass) so woken
        # threads can report release-to-unpark latency; None whenever
        # observability is off.
        self.released_ts: float | None = None
        # Schema-v2 correlation id: the node's release event and every
        # park/unpark/timeout/sub_fire on it carry this token.  (The
        # engine's parking slots are anonymous by design — the causal
        # layer correlates release->unpark through the *node*, which
        # both sides share.)  Allocated unconditionally — node
        # construction is the park slow path, never a lock-free fast
        # path.
        self.token = _next_token()
        self.subscribers: list[Callable[[], None]] | None = None
        self.next: WaitNode | None = None

    def signal(self) -> None:
        """Mark the node set, wake its waiters, fire its subscribers.

        Called *without* the counter lock (the coalesced release pass).
        The wake sweep is "set N slots": one ``release_wake()`` per
        waiter, each a claim check (timed waits) plus a raw lock release
        — no per-level lock, no condvar handoff.  Subscriber callbacks
        run in the incrementing thread, after the wakes, outside every
        lock — they must be quick and must not raise.
        """
        if _sp.enabled:
            _sp.fire("node.signal", self)
        self.signaled = True
        for waiter in self.waiters:
            waiter.release_wake()
        subscribers = self.subscribers
        if subscribers:
            if _sp.enabled:
                _sp.fire("node.subscribers", self)
            # Safe without a lock: subscribe/unsubscribe mutate this list
            # only under the counter lock and only while the node is
            # unreleased; `released` was set before this call.
            self.subscribers = None
            for callback in subscribers:
                callback()

    def snapshot(self) -> WaitNodeSnapshot:
        # The *set* flag is derived from ``released``, not ``signaled``:
        # snapshot() holds the counter lock, under which ``released`` is
        # the release's linearization point, whereas ``signaled`` trails
        # it (set by the out-of-lock signal pass) and may still be False
        # for a node that is already drained.  ``signaled`` is never set
        # without ``released``, so this loses nothing.  For a released
        # node the live waiter count is the countdown's length (waiters
        # pop as they resume); before release it is ``count``, which the
        # counter lock protects.
        countdown = self.countdown
        remaining = len(countdown) if countdown is not None else self.count
        return WaitNodeSnapshot(level=self.level, count=remaining, signaled=self.released)


class WaitList(Protocol):
    """Strategy interface: an ordered collection of :class:`WaitNode`.

    All methods require the counter lock to be held by the caller.
    """

    def find_or_insert(self, level: int) -> WaitNode:
        """Return the node for ``level``, creating and linking it if absent."""
        ...

    def release_through(self, value: int) -> list[WaitNode]:
        """Unlink and return all nodes with ``level <= value``, in level order."""
        ...

    def discard_if_empty(self, node: WaitNode) -> bool:
        """Drop ``node`` if it has no waiters (timeout cleanup). True if dropped."""
        ...

    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator[WaitNode]: ...


class LinkedWaitList:
    """The paper's ordered singly linked list of wait nodes.

    The list is kept sorted ascending by level and never contains a level
    less than or equal to the counter value (the counter maintains that
    invariant by calling :meth:`release_through` inside every increment).

    ``find_or_insert`` keeps a *start hint* — the node the previous call
    returned.  Registrations arriving in ascending level order (the
    common shape: a cohort of threads fanning in over a ladder of
    levels) resume the walk from the hint instead of the head, making
    the run amortized O(1) while arbitrary orders stay plain O(L).  The
    hint is dropped whenever the node it names leaves the list
    (released by an increment or discarded by timeout cleanup): walking
    from an unlinked node would splice new waiters into a dead suffix
    and lose them.
    """

    __slots__ = ("_head", "_size", "_hint")

    def __init__(self) -> None:
        self._head: WaitNode | None = None
        # Node count, maintained incrementally so ``len()`` is O(1) for
        # ``reset()`` and the testkit's invariant checks.
        self._size = 0
        self._hint: WaitNode | None = None

    def find_or_insert(self, level: int) -> WaitNode:
        prev: WaitNode | None = None
        hint = self._hint
        if hint is not None and hint.level <= level:
            if hint.level == level:
                return hint
            prev, node = hint, hint.next
        else:
            node = self._head
        while node is not None and node.level < level:
            prev, node = node, node.next
        if node is not None and node.level == level:
            self._hint = node
            return node
        fresh = WaitNode(level)
        fresh.next = node
        if prev is None:
            self._head = fresh
        else:
            prev.next = fresh
        self._size += 1
        self._hint = fresh
        return fresh

    def release_through(self, value: int) -> list[WaitNode]:
        released: list[WaitNode] = []
        node = self._head
        while node is not None and node.level <= value:
            released.append(node)
            node = node.next
        if released:
            hint = self._hint
            if hint is not None and hint.level <= value:
                self._hint = None
            self._head = node
            released[-1].next = None
            self._size -= len(released)
        return released

    def discard_if_empty(self, node: WaitNode) -> bool:
        if node.count != 0:
            return False
        prev: WaitNode | None = None
        cur = self._head
        while cur is not None and cur is not node:
            prev, cur = cur, cur.next
        if cur is None:
            return False  # already released by an increment
        if self._hint is cur:
            self._hint = None
        if prev is None:
            self._head = cur.next
        else:
            prev.next = cur.next
        cur.next = None
        self._size -= 1
        return True

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[WaitNode]:
        node = self._head
        while node is not None:
            yield node
            node = node.next


class HeapWaitList:
    """Binary-heap waiting list: same contract, O(log L) insertion.

    A ``dict`` maps levels to live nodes (so ``find_or_insert`` is O(1) on
    hit) and a heap of levels yields them in order for release.  Entries
    whose level has been discarded (timeout cleanup) are skipped lazily.
    """

    __slots__ = ("_nodes", "_heap")

    def __init__(self) -> None:
        self._nodes: dict[int, WaitNode] = {}
        self._heap: list[int] = []

    def find_or_insert(self, level: int) -> WaitNode:
        node = self._nodes.get(level)
        if node is None:
            node = WaitNode(level)
            self._nodes[level] = node
            heapq.heappush(self._heap, level)
        return node

    def release_through(self, value: int) -> list[WaitNode]:
        released: list[WaitNode] = []
        while self._heap and self._heap[0] <= value:
            level = heapq.heappop(self._heap)
            node = self._nodes.pop(level, None)
            if node is not None:
                released.append(node)
        return released

    def discard_if_empty(self, node: WaitNode) -> bool:
        if node.count != 0:
            return False
        live = self._nodes.get(node.level)
        if live is not node:
            return False  # already released by an increment
        del self._nodes[node.level]
        # The heap entry is left behind and skipped lazily on release.
        return True

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[WaitNode]:
        for level in sorted(self._nodes):
            yield self._nodes[level]

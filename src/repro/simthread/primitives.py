"""Simulated synchronization primitives.

Virtual-time counterparts of :mod:`repro.core` and :mod:`repro.sync`:
``SimCounter``, ``SimEvent``, ``SimBarrier``, ``SimLock``,
``SimSemaphore``, ``SimChannel``.  User code calls the familiar method
names, which **construct syscalls** to be yielded::

    yield counter.check(level)
    yield counter.increment(1)

The underscore methods implement the operational semantics and are called
by the scheduler when it interprets the syscall.  All blocking follows
the same discipline: the primitive either resumes the task at the current
virtual instant or records it in a wait queue and marks it blocked;
wait-time accounting happens in :meth:`repro.simthread.task.Task.unblock`.

Nondeterminism lives exactly where it does on real hardware: in
*contended lock/semaphore grant order*, resolved by the simulation's
scheduling policy (deterministic FIFO, or seeded-random to emulate timing
races).  Counter and barrier releases are insensitive to grant order —
which is the paper's determinacy argument, and the E7 experiments verify
it by sweeping seeds.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING

from repro.simthread.syscalls import (
    BarrierPass,
    ChannelGet,
    ChannelPut,
    CheckOp,
    EventCheck,
    EventSet,
    IncrementOp,
    LockAcquire,
    LockRelease,
    SemAcquire,
    SemRelease,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.simthread.scheduler import Simulation
    from repro.simthread.task import Task

__all__ = [
    "SimCounter",
    "SimEvent",
    "SimBarrier",
    "SimLock",
    "SimSemaphore",
    "SimChannel",
    "SimDeadlockError",
]


class SimDeadlockError(RuntimeError):
    """The simulation stalled with blocked tasks and no runnable event."""


class SimCounter:
    """Virtual-time monotonic counter.

    Waiters are kept in a heap keyed by level — the simulator analogue of
    the paper's ordered wait list.  ``max_live_levels`` mirrors the
    ``live_levels_hw`` metric :mod:`repro.obs` keeps for real counters
    (the E8 complexity claims).
    """

    __slots__ = ("name", "value", "_waiters", "_seq", "max_live_levels", "max_live_waiters")

    def __init__(self, name: str = "counter") -> None:
        self.name = name
        self.value = 0
        self._waiters: list[tuple[int, int, "Task"]] = []
        self._seq = 0
        self.max_live_levels = 0
        self.max_live_waiters = 0

    # user-facing syscall constructors -----------------------------------
    def check(self, level: int) -> CheckOp:
        return CheckOp(self, level)

    def increment(self, amount: int = 1) -> IncrementOp:
        return IncrementOp(self, amount)

    # scheduler-facing semantics ------------------------------------------
    def _check(self, sim: "Simulation", task: "Task", level: int) -> None:
        if self.value >= level:
            sim._resume(task, at=sim.now)
            return
        self._seq += 1
        heapq.heappush(self._waiters, (level, self._seq, task))
        task.block(sim.now)
        live_levels = len({entry[0] for entry in self._waiters})
        self.max_live_levels = max(self.max_live_levels, live_levels)
        self.max_live_waiters = max(self.max_live_waiters, len(self._waiters))

    def _increment(self, sim: "Simulation", task: "Task", amount: int) -> None:
        self.value += amount
        while self._waiters and self._waiters[0][0] <= self.value:
            _, _, waiter = heapq.heappop(self._waiters)
            waiter.unblock(sim.now)
            sim._resume(waiter, at=sim.now)
        sim._resume(task, at=sim.now)

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:
        return f"<SimCounter {self.name!r} value={self.value} waiting={self.waiting}>"


class SimEvent:
    """Virtual-time sticky event (the paper's Set/Check condition)."""

    __slots__ = ("name", "is_set", "_waiters")

    def __init__(self, name: str = "event") -> None:
        self.name = name
        self.is_set = False
        self._waiters: list["Task"] = []

    def set(self) -> EventSet:
        return EventSet(self)

    def check(self) -> EventCheck:
        return EventCheck(self)

    def _set(self, sim: "Simulation", task: "Task") -> None:
        self.is_set = True
        for waiter in self._waiters:
            waiter.unblock(sim.now)
            sim._resume(waiter, at=sim.now)
        self._waiters.clear()
        sim._resume(task, at=sim.now)

    def _check(self, sim: "Simulation", task: "Task") -> None:
        if self.is_set:
            sim._resume(task, at=sim.now)
        else:
            self._waiters.append(task)
            task.block(sim.now)

    def __repr__(self) -> str:
        return f"<SimEvent {self.name!r} {'set' if self.is_set else 'unset'}>"


class SimBarrier:
    """Virtual-time N-way cyclic barrier."""

    __slots__ = ("name", "parties", "_arrived", "episodes")

    def __init__(self, parties: int, name: str = "barrier") -> None:
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        self.name = name
        self.parties = parties
        self._arrived: list["Task"] = []
        self.episodes = 0

    def pass_(self) -> BarrierPass:
        return BarrierPass(self)

    def _pass(self, sim: "Simulation", task: "Task") -> None:
        self._arrived.append(task)
        if len(self._arrived) == self.parties:
            self.episodes += 1
            arrived, self._arrived = self._arrived, []
            for waiter in arrived:
                waiter.unblock(sim.now)
                sim._resume(waiter, at=sim.now)
        else:
            task.block(sim.now)

    def __repr__(self) -> str:
        return f"<SimBarrier {self.name!r} {len(self._arrived)}/{self.parties}>"


class SimLock:
    """Virtual-time mutex; contended grant order follows the sim policy."""

    __slots__ = ("name", "owner", "_queue")

    def __init__(self, name: str = "lock") -> None:
        self.name = name
        self.owner: "Task | None" = None
        self._queue: list["Task"] = []

    def acquire(self) -> LockAcquire:
        return LockAcquire(self)

    def release(self) -> LockRelease:
        return LockRelease(self)

    def _acquire(self, sim: "Simulation", task: "Task") -> None:
        if self.owner is None:
            self.owner = task
            sim._resume(task, at=sim.now)
        else:
            self._queue.append(task)
            task.block(sim.now)

    def _release(self, sim: "Simulation", task: "Task") -> None:
        if self.owner is not task:
            raise RuntimeError(f"{task!r} released {self!r} it does not own")
        if self._queue:
            index = sim._pick_index(len(self._queue))
            grantee = self._queue.pop(index)
            self.owner = grantee
            grantee.unblock(sim.now)
            sim._resume(grantee, at=sim.now)
        else:
            self.owner = None
        sim._resume(task, at=sim.now)

    def __repr__(self) -> str:
        holder = self.owner.name if self.owner else None
        return f"<SimLock {self.name!r} owner={holder!r} queued={len(self._queue)}>"


class SimSemaphore:
    """Virtual-time counting semaphore; grant order follows the sim policy."""

    __slots__ = ("name", "value", "_queue")

    def __init__(self, initial: int = 0, name: str = "semaphore") -> None:
        if initial < 0:
            raise ValueError(f"initial must be >= 0, got {initial}")
        self.name = name
        self.value = initial
        self._queue: list[tuple[int, "Task"]] = []

    def acquire(self, n: int = 1) -> SemAcquire:
        return SemAcquire(self, n)

    def release(self, n: int = 1) -> SemRelease:
        return SemRelease(self, n)

    def _acquire(self, sim: "Simulation", task: "Task", n: int) -> None:
        if self.value >= n and not self._queue:
            self.value -= n
            sim._resume(task, at=sim.now)
        else:
            self._queue.append((n, task))
            task.block(sim.now)

    def _release(self, sim: "Simulation", task: "Task", n: int) -> None:
        self.value += n
        self._drain(sim)
        sim._resume(task, at=sim.now)

    def _drain(self, sim: "Simulation") -> None:
        # Grant any satisfiable waiter, selection per policy; repeat until
        # no waiter fits the remaining value.
        while self._queue:
            satisfiable = [i for i, (need, _) in enumerate(self._queue) if need <= self.value]
            if not satisfiable:
                return
            index = satisfiable[sim._pick_index(len(satisfiable))]
            need, grantee = self._queue.pop(index)
            self.value -= need
            grantee.unblock(sim.now)
            sim._resume(grantee, at=sim.now)

    def __repr__(self) -> str:
        return f"<SimSemaphore {self.name!r} value={self.value} queued={len(self._queue)}>"


class SimChannel:
    """Virtual-time bounded FIFO channel."""

    __slots__ = ("name", "capacity", "_items", "_putters", "_getters")

    def __init__(self, capacity: int, name: str = "channel") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._items: deque[object] = deque()
        self._putters: deque[tuple[object, "Task"]] = deque()
        self._getters: deque["Task"] = deque()

    def put(self, item: object) -> ChannelPut:
        return ChannelPut(self, item)

    def get(self) -> ChannelGet:
        return ChannelGet(self)

    def _put(self, sim: "Simulation", task: "Task", item: object) -> None:
        if self._getters:
            getter = self._getters.popleft()
            getter.unblock(sim.now)
            sim._resume(getter, at=sim.now, value=item)
            sim._resume(task, at=sim.now)
        elif len(self._items) < self.capacity:
            self._items.append(item)
            sim._resume(task, at=sim.now)
        else:
            self._putters.append((item, task))
            task.block(sim.now)

    def _get(self, sim: "Simulation", task: "Task") -> None:
        if self._items:
            item = self._items.popleft()
            if self._putters:
                pending, putter = self._putters.popleft()
                self._items.append(pending)
                putter.unblock(sim.now)
                sim._resume(putter, at=sim.now)
            sim._resume(task, at=sim.now, value=item)
        elif self._putters:
            pending, putter = self._putters.popleft()
            putter.unblock(sim.now)
            sim._resume(putter, at=sim.now)
            sim._resume(task, at=sim.now, value=pending)
        else:
            self._getters.append(task)
            task.block(sim.now)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return f"<SimChannel {self.name!r} depth={len(self._items)}/{self.capacity}>"

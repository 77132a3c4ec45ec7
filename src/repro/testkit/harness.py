"""The interleaving controller: gate real threads at named sync points.

The controller registers a process-wide hook with
:mod:`repro.core.syncpoints`.  Worker threads it spawned park at every
sync point they hit and advance only when *granted*; everything else in
the process (the pytest main thread, unrelated threads) passes through
untouched.  On top of that gate primitive it offers two driving styles:

* **scheduler-driven** (:meth:`Controller.run_scheduler`): one worker at
  a time is granted, chosen by a :mod:`~repro.testkit.schedulers` policy,
  until every worker finishes.
* **positioned** (used by :mod:`~repro.testkit.script`): the test
  explicitly walks workers from gate to gate (``until``/``grant``/
  ``run_thread``) to pin one exact interleaving.

Real blocking is the hard part of scheduling *real* primitives: a
granted worker may vanish into ``Condition.wait`` or block on a lock a
gated worker holds.  The controller never tries to prevent that — it
detects it.  A grant through a known-blocking point (``park.enter``,
``multiwait.park``) marks the worker off-schedule
immediately; any other granted worker that fails to reach its next gate
within ``stall_timeout`` is presumed blocked and scheduling moves on.  A
blocked worker that later surfaces at a gate rejoins the schedule
normally.

Deadlock reporting is two-speed.  When every unfinished worker is
*known*-blocked at an engine park point (where a pending timed wake is
visible through the shared timer wheel) and the wheel holds no armed
deadline, nobody can make progress: after one short confirmation window
(``deadlock_confirm``, to absorb a grant whose park is still en route
to the wheel) the schedule is reported **instantly** as a
:class:`ScheduleDeadlock` carrying a structured :class:`DeadlockReport`
— who is parked where, and who waits on what level of which counter.
Only when some worker is blocked in an *unknown* primitive (a plain
lock, a condition with a private timeout) does the controller fall back
to the conservative no-progress-for-``deadlock_timeout`` heuristic.

Every grant is recorded; :attr:`Controller.trace` is the compact
replayable schedule (:class:`~repro.testkit.trace.Trace`).
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core import syncpoints
from repro.core.engine import wheel
from repro.testkit.trace import Trace

__all__ = [
    "Controller",
    "DeadlockReport",
    "ScheduleError",
    "ScheduleDeadlock",
    "ScheduleFailure",
    "WORKER_START",
]

#: Pseudo sync point every worker is gated at before its body runs, so a
#: schedule controls launch order too.
WORKER_START = "start"

# Worker lifecycle states.
_NEW = "new"            # spawned, not yet at the start gate
_WAITING = "waiting"    # parked at a gate, awaiting a grant
_RUNNING = "running"    # granted, expected to reach another gate promptly
_BLOCKED = "blocked"    # granted but presumed stuck in a real primitive
_DONE = "done"          # body returned (or raised; see .error)


class ScheduleError(AssertionError):
    """The harness could not drive the schedule as asked (bad script,
    worker stuck at a gate past every timeout, mis-named thread...)."""


class ScheduleDeadlock(ScheduleError):
    """Every unfinished worker is blocked in a real primitive with no
    way to make progress — a lost wakeup or a genuine deadlock in the
    code under test.  When raised by the scheduler loop, ``report`` is
    the structured :class:`DeadlockReport` (who waits where, on what)."""

    def __init__(self, message: str, *, report: "DeadlockReport | None" = None) -> None:
        super().__init__(message)
        self.report = report


class ScheduleFailure(AssertionError):
    """Wrapper raised by ``@interleave`` carrying the failing schedule's
    trace, seed, and replay instructions."""

    def __init__(self, message: str, *, trace: Trace, seed: int | None = None) -> None:
        super().__init__(message)
        self.trace = trace
        self.seed = seed


@dataclass(frozen=True, slots=True)
class BlockedWorkerInfo:
    """One blocked worker in a :class:`DeadlockReport`."""

    name: str
    point: str          #: the gate it was last granted through ("?" if none)
    known: bool         #: True = granted through a known-blocking point
    obj: str            #: repr of the primitive at that gate

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kind = "parked" if self.known else "presumed blocked"
        return f"{self.name}: {kind} after {self.point!r} on {self.obj}"


@dataclass(frozen=True, slots=True)
class CounterWaits:
    """Who-waits-on-what for one counter involved in a deadlock."""

    counter: str                          #: repr of the counter
    value: int                            #: value at capture time
    levels: tuple[tuple[int, int], ...]   #: (level, waiter count) pairs

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        waits = "; ".join(f"level {lv}: {n} waiter(s)" for lv, n in self.levels)
        return f"{self.counter}: value={self.value}, waiting: {waits or 'none'}"


@dataclass(frozen=True, slots=True)
class DeadlockReport:
    """Structured schedule-deadlock diagnosis, attached to
    :class:`ScheduleDeadlock` by the scheduler loop.

    ``instant`` distinguishes the all-parked proof (every unfinished
    worker known-blocked at an engine park point, timer wheel empty)
    from the conservative no-progress-timeout fallback; ``waited`` is
    the confirmation window that elapsed before reporting.
    """

    workers: tuple[BlockedWorkerInfo, ...]
    counters: tuple[CounterWaits, ...] = field(default_factory=tuple)
    wheel_armed: int = 0
    instant: bool = False
    waited: float = 0.0
    trace: str = ""

    def __str__(self) -> str:
        mode = (
            "all workers parked, timer wheel empty — nothing can wake anyone"
            if self.instant
            else f"no progress for {self.waited:.2g}s"
        )
        lines = [f"schedule deadlock ({mode}):"]
        lines += [f"  {info}" for info in self.workers]
        if self.counters:
            lines.append("  who waits on what:")
            lines += [f"    {cw}" for cw in self.counters]
        if self.wheel_armed:
            lines.append(f"  timer wheel: {self.wheel_armed} armed deadline(s)")
        lines.append(f"  trace: {self.trace}")
        return "\n".join(lines)


def _capture_counter_waits(objs: list[object]) -> tuple[CounterWaits, ...]:
    """Who-waits-on-what snapshots for the distinct counters in ``objs``.

    Reuses the stall watchdog's capture (``repro.obs.watchdog``); any
    object without counter-shaped state is skipped.  Imported lazily so
    the testkit does not pull the observability layer until a deadlock
    actually needs diagnosing.
    """
    try:
        from repro.obs.watchdog import capture_waiting
    except Exception:  # pragma: no cover - obs layer unavailable
        return ()
    out: list[CounterWaits] = []
    seen: set[int] = set()
    for obj in objs:
        if obj is None or id(obj) in seen or not hasattr(obj, "snapshot"):
            continue
        seen.add(id(obj))
        captured = capture_waiting(obj)
        if captured is None:
            continue
        value, waiting = captured
        out.append(CounterWaits(repr(obj), value, tuple(waiting)))
    return tuple(out)


class _Worker:
    """Controller-side record of one gated thread."""

    __slots__ = (
        "name", "fn", "args", "thread", "status", "point", "obj",
        "granted", "error", "blocked_known",
    )

    def __init__(self, name: str, fn: Callable[..., Any], args: tuple) -> None:
        self.name = name
        self.fn = fn
        self.args = args
        self.thread: threading.Thread | None = None
        self.status = _NEW
        self.point: str | None = None
        self.obj: object | None = None
        self.granted = False
        self.error: BaseException | None = None
        #: True when the worker went _BLOCKED via a grant through a
        #: known-blocking point (engine park); False for presumed
        #: stalls in unknown primitives.
        self.blocked_known = False

    def __repr__(self) -> str:
        return f"<worker {self.name} {self.status}" + (
            f" at {self.point}>" if self.point else ">"
        )


#: Serializes schedules process-wide: the sync-point hook is global, so
#: two controllers must never drive threads at the same time.
_schedule_lock = threading.Lock()


class Controller:
    """Spawn gated workers and drive them through one interleaving.

    Use as a context manager (or call :meth:`start`/:meth:`close`):
    entering installs the sync-point hook and starts the workers gated at
    ``start``; exiting force-finishes stragglers and uninstalls the hook
    no matter how the schedule ended.
    """

    def __init__(
        self,
        *,
        stall_timeout: float = 0.02,
        deadlock_timeout: float = 2.0,
        deadlock_confirm: float = 0.2,
        grant_timeout: float = 60.0,
        finish_timeout: float = 20.0,
    ) -> None:
        self._cond = threading.Condition()
        self._workers: dict[str, _Worker] = {}
        self._by_ident: dict[int, _Worker] = {}
        self._point_invariants: dict[str, list[Callable[[object], None]]] = {}
        self.trace = Trace()
        self.divergences = 0
        self._gen = 0           # bumped on every state change, for change-waits
        self._free_run = False  # grants disabled: everything passes through
        self._started = False
        self._closed = False
        self.stall_timeout = stall_timeout
        self.deadlock_timeout = deadlock_timeout
        #: Silence window confirming an *instant* deadlock verdict: long
        #: enough for a just-granted park to reach the timer wheel (and
        #: for the engine's ~20ms pre-wheel grace wait to expire), far
        #: below the conservative ``deadlock_timeout``.
        self.deadlock_confirm = deadlock_confirm
        self.grant_timeout = grant_timeout
        self.finish_timeout = finish_timeout

    # ------------------------------------------------------------ setup

    def spawn(self, name: str, fn: Callable[..., Any], *args: Any) -> None:
        """Register worker ``name`` running ``fn(*args)`` (before start)."""
        if self._started:
            raise ScheduleError("spawn() after start()")
        if not name or ":" in name or any(c.isspace() for c in name):
            raise ValueError(f"worker name must be ':'- and whitespace-free, got {name!r}")
        if name in self._workers:
            raise ValueError(f"duplicate worker name {name!r}")
        self._workers[name] = _Worker(name, fn, args)

    def invariant_at(self, point: str, fn: Callable[[object], None]) -> None:
        """Run ``fn(obj)`` in the arriving thread whenever ``point`` fires.

        The thread may hold the primitive's internal locks at that
        moment (see the point table in ``docs/testing.md``); the checker
        must only read state, never call back into the primitive.  A
        raising checker fails the worker and thereby the schedule.
        """
        self._point_invariants.setdefault(point, []).append(fn)

    # ------------------------------------------------------- the hook

    def _hook(self, point: str, obj: object) -> None:
        worker = self._by_ident.get(threading.get_ident())
        if worker is None:
            return
        for checker in self._point_invariants.get(point, ()):
            checker(obj)
        if self._free_run:
            return
        self._gate(worker, point, obj)

    def _gate(self, worker: _Worker, point: str, obj: object) -> None:
        with self._cond:
            if self._free_run:
                return
            worker.status = _WAITING
            worker.point = point
            worker.obj = obj
            self._bump()
            deadline = time.monotonic() + self.grant_timeout
            while not worker.granted and not self._free_run:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    worker.status = _RUNNING
                    raise ScheduleError(
                        f"worker {worker.name!r} abandoned at gate {point!r}: "
                        f"no grant within {self.grant_timeout}s (trace: {self.trace})"
                    )
                self._cond.wait(remaining)
            worker.granted = False

    def _run_worker(self, worker: _Worker) -> None:
        self._by_ident[threading.get_ident()] = worker
        try:
            self._gate(worker, WORKER_START, None)
            worker.fn(*worker.args)
        except BaseException as exc:  # noqa: BLE001 - reported via .errors
            worker.error = exc
        finally:
            with self._cond:
                worker.status = _DONE
                worker.point = None
                self._bump()

    def _bump(self) -> None:
        # Callers hold self._cond.
        self._gen += 1
        self._cond.notify_all()

    # --------------------------------------------------- lifecycle

    def start(self) -> "Controller":
        """Install the hook and launch every worker, gated at ``start``."""
        if self._started:
            raise ScheduleError("start() called twice")
        _schedule_lock.acquire()
        try:
            syncpoints.install(self._hook)
        except BaseException:
            _schedule_lock.release()
            raise
        self._started = True
        for worker in self._workers.values():
            worker.thread = threading.Thread(
                target=self._run_worker, args=(worker,), name=f"testkit-{worker.name}", daemon=True
            )
            worker.thread.start()
        return self

    def close(self) -> None:
        """Force-finish stragglers, uninstall the hook (idempotent)."""
        if self._closed:
            return
        self._closed = True
        abandoned: list[str] = []
        if self._started:
            with self._cond:
                self._free_run = True
                for worker in self._workers.values():
                    worker.granted = True
                self._bump()
            deadline = time.monotonic() + self.finish_timeout
            for worker in self._workers.values():
                if worker.thread is None:
                    continue
                worker.thread.join(max(0.0, deadline - time.monotonic()))
                if worker.thread.is_alive():
                    abandoned.append(worker.name)
            syncpoints.uninstall()
            _schedule_lock.release()
        self.abandoned = abandoned

    def __enter__(self) -> "Controller":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------- inspection

    @property
    def errors(self) -> dict[str, BaseException]:
        """Exceptions that escaped worker bodies, by worker name."""
        return {w.name: w.error for w in self._workers.values() if w.error is not None}

    def raise_worker_errors(self) -> None:
        errors = self.errors
        if errors:
            lines = ", ".join(f"{name}: {exc!r}" for name, exc in errors.items())
            raise ScheduleError(
                f"worker(s) raised: {lines} (trace: {self.trace})"
            ) from next(iter(errors.values()))

    def _statuses(self) -> str:
        return ", ".join(repr(w) for w in sorted(self._workers.values(), key=lambda w: w.name))

    def _waiting_sorted(self) -> list[_Worker]:
        return sorted(
            (w for w in self._workers.values() if w.status == _WAITING),
            key=lambda w: w.name,
        )

    # --------------------------------------------- driving primitives

    def _grant_locked(self, worker: _Worker) -> None:
        # Callers hold self._cond and have verified worker is WAITING.
        self.trace.append(worker.name, worker.point or "?", worker.obj)
        if worker.point in syncpoints.BLOCKING_POINTS:
            worker.status = _BLOCKED
            worker.blocked_known = True
        else:
            worker.status = _RUNNING
            worker.blocked_known = False
        worker.granted = True
        self._bump()

    def _wait_change(self, gen: int, timeout: float) -> bool:
        # Callers hold self._cond.  True if anything changed in time.
        return self._cond.wait_for(lambda: self._gen != gen, timeout)

    def until(self, name: str, point: str, timeout: float = 10.0) -> None:
        """Advance worker ``name`` gate-by-gate until it waits at ``point``.

        Grants the worker through every intermediate gate.  Fails if the
        worker finishes, or stops surfacing at gates, before reaching
        ``point``.
        """
        worker = self._worker(name)
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                if worker.status == _DONE:
                    raise ScheduleError(
                        f"worker {name!r} finished before reaching {point!r} "
                        f"(error: {worker.error!r}, trace: {self.trace})"
                    )
                if worker.status == _WAITING:
                    if worker.point == point:
                        return
                    self._grant_locked(worker)
                gen = self._gen
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._wait_change(gen, remaining):
                    raise ScheduleError(
                        f"worker {name!r} did not reach {point!r} within {timeout}s "
                        f"({self._statuses()}; trace: {self.trace})"
                    )

    def grant(self, name: str, point: str | None = None, timeout: float = 10.0) -> str:
        """Release worker ``name`` from its current (or next) gate.

        Returns the point it was granted at; with ``point`` given, fails
        unless the worker was gated exactly there.
        """
        worker = self._worker(name)
        deadline = time.monotonic() + timeout
        with self._cond:
            while worker.status != _WAITING:
                if worker.status == _DONE:
                    raise ScheduleError(
                        f"cannot grant {name!r}: already finished (trace: {self.trace})"
                    )
                gen = self._gen
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._wait_change(gen, remaining):
                    raise ScheduleError(
                        f"worker {name!r} never arrived at a gate within {timeout}s "
                        f"({self._statuses()}; trace: {self.trace})"
                    )
            at = worker.point or "?"
            if point is not None and at != point:
                raise ScheduleError(
                    f"worker {name!r} is gated at {at!r}, expected {point!r} "
                    f"(trace: {self.trace})"
                )
            self._grant_locked(worker)
            return at

    def run_thread(self, name: str, timeout: float = 10.0) -> str:
        """Grant ``name`` through every gate until it finishes or blocks.

        Returns ``"done"`` or ``"blocked"`` — the latter when the worker
        stops surfacing at gates within ``stall_timeout`` (it is sitting
        in a real primitive and needs another worker to make progress).
        """
        worker = self._worker(name)
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                if worker.status == _DONE:
                    return "done"
                if worker.status == _WAITING:
                    self._grant_locked(worker)
                    continue
                gen = self._gen
                stall = min(self.stall_timeout, max(0.0, deadline - time.monotonic()))
                if not self._wait_change(gen, stall):
                    if worker.status in (_RUNNING, _BLOCKED):
                        worker.status = _BLOCKED
                        return "blocked"
                if time.monotonic() >= deadline:
                    raise ScheduleError(
                        f"run_thread({name!r}) exceeded {timeout}s "
                        f"({self._statuses()}; trace: {self.trace})"
                    )

    def settle(self, timeout: float | None = None) -> None:
        """Wait until no worker is mid-segment (each is gated, parked in
        a real primitive, or done).

        A :meth:`grant` returns as soon as the gate opens — the released
        segment then runs concurrently with the test thread.  Scripts
        that interleave grants *across* workers need the previous
        segment finished before the next grant, or the two race; the
        scheduler loop gets this from its internal quiesce, and replay
        calls this between steps for the same reason.  ``timeout`` is
        the change-free window after which a still-running worker is
        taken to be blocked in a real primitive (default:
        ``stall_timeout``).
        """
        if timeout is None:
            timeout = self.stall_timeout
        with self._cond:
            while True:
                active = [
                    w
                    for w in self._workers.values()
                    if w.status in (_NEW, _RUNNING)
                ]
                if not active:
                    return
                gen = self._gen
                if not self._wait_change(gen, timeout):
                    for worker in active:
                        if worker.status == _RUNNING:
                            worker.status = _BLOCKED
                            worker.blocked_known = False
                    return

    def finish(self, timeout: float | None = None) -> None:
        """Free-run every worker to completion and join them.

        Raises if any worker cannot finish (still blocked in a real
        primitive after ``finish_timeout``) — with all gates open that
        means a lost wakeup or deadlock in the code under test.  A
        worker *exception* is surfaced first: a crashed peer is usually
        why the survivors hang (the waiter it was meant to wake never
        hears from it), and reporting the hang would bury the cause.
        """
        if timeout is None:
            timeout = self.finish_timeout
        with self._cond:
            self._free_run = True
            for worker in self._workers.values():
                worker.granted = True
            self._bump()
        deadline = time.monotonic() + timeout
        stuck = []
        for worker in self._workers.values():
            if worker.thread is None:
                continue
            worker.thread.join(max(0.0, deadline - time.monotonic()))
            if worker.thread.is_alive():
                stuck.append(worker.name)
        if stuck:
            errors = self.errors
            if errors:
                lines = ", ".join(f"{name}: {exc!r}" for name, exc in errors.items())
                raise ScheduleError(
                    f"worker(s) raised: {lines}; worker(s) {stuck} then never "
                    f"finished with every gate open — the exception likely "
                    f"killed their waker ({self._statuses()}; trace: {self.trace})"
                ) from next(iter(errors.values()))
            raise ScheduleDeadlock(
                f"worker(s) {stuck} never finished with every gate open "
                f"({self._statuses()}; trace: {self.trace})\n{self._stuck_frames(stuck)}"
            )

    def _stuck_frames(self, stuck: list[str]) -> str:
        """One innermost frame per stuck worker thread, for the report."""
        frames = sys._current_frames()
        lines = []
        for name in stuck:
            thread = self._workers[name].thread
            frame = frames.get(thread.ident) if thread and thread.ident else None
            if frame is None:
                continue
            where = traceback.extract_stack(frame, limit=1)[0]
            lines.append(f"  {name} is at {where.filename}:{where.lineno} in {where.name}")
        return "\n".join(lines)

    def _worker(self, name: str) -> _Worker:
        try:
            return self._workers[name]
        except KeyError:
            raise ScheduleError(
                f"unknown worker {name!r} (have: {sorted(self._workers)})"
            ) from None

    # ------------------------------------------------ scheduler driving

    def run_scheduler(self, scheduler, *, settle: float | None = None) -> None:
        """Drive every worker to completion under ``scheduler``.

        One grant at a time: the scheduler picks among gated workers
        whenever no granted worker is still en route to its next gate.
        A scheduler may return ``None`` to ask for a short wait before
        being consulted again (used by
        :class:`~repro.testkit.schedulers.DirectedScheduler` while the
        worker its prefix names has not surfaced yet).

        ``settle`` (seconds) makes each decision wait out one extra
        change-free window whenever some worker is *blocked*: a wake
        delivered by the previous grant may still be propagating, and a
        systematic explorer wants the candidate set stable before it
        branches on it.  ``None`` (default) keeps decisions immediate.
        """
        step = 0
        with self._cond:
            while True:
                waiting = self._quiesce_locked(settle)
                if waiting is None:
                    return
                choice = scheduler.choose(waiting, step)
                if choice is None:
                    gen = self._gen
                    self._wait_change(gen, self.stall_timeout)
                    continue
                if choice not in waiting:
                    raise ScheduleError(f"scheduler chose non-waiting worker {choice!r}")
                self._grant_locked(choice)
                step += 1

    def _quiesce_locked(self, settle: float | None) -> "list[_Worker] | None":
        """Wait until the schedule needs a decision; caller holds _cond.

        Returns the sorted gated candidates, or ``None`` when every
        worker is done.  Raises :class:`ScheduleDeadlock` when every
        unfinished worker is blocked and nothing can wake them (instant
        proof or timeout fallback — see :meth:`_deadlock_wait_locked`).
        """
        while True:
            workers = self._workers.values()
            if all(w.status == _DONE for w in workers):
                return None
            active = [w for w in workers if w.status in (_NEW, _RUNNING)]
            if active:
                gen = self._gen
                if not self._wait_change(gen, self.stall_timeout):
                    for worker in active:
                        if worker.status == _RUNNING:
                            worker.status = _BLOCKED
                            worker.blocked_known = False
                continue
            waiting = self._waiting_sorted()
            if waiting:
                if settle is not None and any(w.status == _BLOCKED for w in workers):
                    gen = self._gen
                    if self._wait_change(gen, settle):
                        continue  # something moved; re-stabilize
                return waiting
            # Everyone left is blocked in a real primitive.
            self._deadlock_wait_locked()

    def _deadlock_wait_locked(self) -> None:
        """All unfinished workers blocked: wait for one to surface, else
        raise.  Caller holds ``_cond``; returns (to re-quiesce) as soon
        as anything changes.

        The *instant* path: if every blocked worker is known-parked at
        an engine park point and the shared timer wheel is empty, no
        release pass is running (no worker is) and no timer can fire —
        a short ``deadlock_confirm`` silence (covering a park still en
        route to the wheel) proves the deadlock.  Otherwise fall back
        to the conservative ``deadlock_timeout``.
        """
        blocked = [w for w in self._workers.values() if w.status == _BLOCKED]
        instant = (
            bool(blocked)
            and all(
                w.blocked_known and w.point in syncpoints.BLOCKING_POINTS
                for w in blocked
            )
            and wheel().armed_count() == 0
        )
        waited = self.deadlock_confirm if instant else self.deadlock_timeout
        gen = self._gen
        if self._wait_change(gen, waited):
            return
        if instant and wheel().armed_count() != 0:
            # A just-granted timed park armed the wheel during the
            # confirmation window without surfacing at a gate; the
            # timer will wake it — take the conservative path instead.
            return
        report = DeadlockReport(
            workers=tuple(
                BlockedWorkerInfo(w.name, w.point or "?", w.blocked_known, repr(w.obj))
                for w in sorted(blocked, key=lambda w: w.name)
            ),
            counters=_capture_counter_waits([w.obj for w in blocked]) if instant else (),
            wheel_armed=wheel().armed_count(),
            instant=instant,
            waited=waited,
            trace=str(self.trace),
        )
        raise ScheduleDeadlock(
            f"{report}\n  blocked in real primitives ({self._statuses()})",
            report=report,
        )

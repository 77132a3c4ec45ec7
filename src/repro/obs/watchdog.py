"""The stall watchdog: flag checks blocked beyond a threshold, with a dump.

The runtime cousin of the testkit's deadlock detector
(:class:`repro.testkit.harness.Controller` reports a schedule whose
gated workers all blocked; this watchdog reports a *production* system
whose parked checks stopped making progress).  It scans the weakref
registry of live counters, tracks how long each ``(counter, level)``
pair has continuously had suspended waiters, and — once a pair crosses
the threshold — produces a :class:`StallReport` naming the counter, the
stalled level, its waiter count, the counter's current value, and the
full who-waits-on-what dump of every waiting level on that counter.

Two driving modes:

* **deterministic** — call :meth:`StallWatchdog.poll` yourself, with an
  injected ``now`` if you want virtual time (the testkit tests do);
* **background** — :meth:`StallWatchdog.start` runs a daemon thread that
  polls every ``interval`` seconds until :meth:`StallWatchdog.stop`.

Scanning uses only ``snapshot()``-style reads (counter lock, briefly)
and never calls blocking counter operations, so the watchdog can observe
a wedged system without joining it.  Reports are appended to a bounded
``reports`` deque, delivered to the optional ``on_stall`` callback, and
emitted as ``stall`` trace events when tracing is enabled.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.obs import hooks as _obs
from repro.obs import registry

__all__ = ["StallWatchdog", "StallReport", "WaitingLevel", "capture_waiting"]


@dataclass(frozen=True, slots=True)
class WaitingLevel:
    """One waiting level in a stall report's who-waits-on-what dump."""

    level: int
    waiters: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"level {self.level}: {self.waiters} waiter(s)"


@dataclass(frozen=True, slots=True)
class StallReport:
    """One check (or group of checks at one level) blocked past threshold."""

    counter: str                 #: registry label of the stalled counter
    counter_repr: str            #: its repr at scan time
    level: int                   #: the level the stalled waiters need
    waiters: int                 #: how many threads are parked at it
    value: int                   #: the counter's value at scan time
    stalled_s: float             #: continuous time the pair has been waiting
    #: Every waiting level on the counter (the full wait-list dump), so a
    #: report shows not just the flagged level but the whole shape.
    levels: tuple[WaitingLevel, ...] = field(default_factory=tuple)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        others = "; ".join(str(lv) for lv in self.levels)
        return (
            f"STALL {self.counter}: check({self.level}) blocked {self.stalled_s:.1f}s "
            f"with {self.waiters} waiter(s), value={self.value} "
            f"(all waits: {others or 'none'})"
        )


def capture_waiting(counter: object) -> tuple[int, list[tuple[int, int]]] | None:
    """(value lower bound, [(level, waiters), ...]) for one counter.

    The value comes from the counter's own ``snapshot()`` (a lower bound
    for fabric-backed handles); asyncio counters may be mutated by
    their loop mid-read, so a racing capture is retried once and then
    skipped — the watchdog must never crash on a live system.  Also the
    who-waits-on-what source for the testkit's instant deadlock reports
    (:class:`repro.testkit.harness.DeadlockReport`).
    """
    for _ in range(2):
        try:
            snap = counter.snapshot()
            value = snap.value
            waiting = [
                (node.level, node.count)
                for node in snap.nodes
                if node.count > 0 and not node.signaled and node.level > value
            ]
            return value, waiting
        except RuntimeError:  # e.g. dict mutated during an asyncio snapshot
            continue
        except Exception:
            return None
    return None


class StallWatchdog:
    """Track continuously-waiting (counter, level) pairs; report stalls.

    Parameters
    ----------
    threshold:
        Seconds a pair must wait continuously before it is reported.
    interval:
        Background polling period (:meth:`start` mode only).
    clock:
        Timestamp source — injectable for deterministic tests.
    on_stall:
        Optional callback invoked with each :class:`StallReport` (in the
        watchdog/polling thread; must not block or raise).
    rearm:
        Seconds after which an already-reported pair is reported again if
        still stalled (``None`` reports each pair once per stall).
    """

    def __init__(
        self,
        *,
        threshold: float = 5.0,
        interval: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        on_stall: Callable[[StallReport], None] | None = None,
        rearm: float | None = None,
        max_reports: int = 256,
    ) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold!r}")
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        self.threshold = threshold
        self.interval = interval
        self.rearm = rearm
        self._clock = clock
        self._on_stall = on_stall
        # (id(counter), level) -> [weakref, first_seen, last_reported|None].
        # The weakref guards against id reuse after a counter dies.
        self._waiting: dict[tuple[int, int], list] = {}
        self.reports: deque[StallReport] = deque(maxlen=max_reports)
        self._poll_listeners: list[Callable[[float], None]] = []
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    def add_poll_listener(self, fn: Callable[[float], None]) -> None:
        """Piggyback ``fn(now)`` on every :meth:`poll` sweep.

        The hook the SLO engine rides (:meth:`repro.obs.slo.SloTracker.attach`):
        periodic evaluation without a second timer thread, in both
        driving modes (deterministic ``poll(now=...)`` passes the
        injected clock through).  Listeners must not block; one that
        raises is skipped for that sweep, never unsubscribed.
        """
        if not callable(fn):
            raise TypeError(f"poll listener must be callable, got {fn!r}")
        self._poll_listeners.append(fn)

    # ------------------------------------------------------------- scanning

    def poll(self, now: float | None = None) -> list[StallReport]:
        """One deterministic scan; returns the stalls crossing threshold."""
        if now is None:
            now = self._clock()
        reports: list[StallReport] = []
        seen: set[tuple[int, int]] = set()
        for counter in registry.live_counters():
            captured = capture_waiting(counter)
            if captured is None:
                continue
            value, waiting = captured
            if not waiting:
                continue
            levels = tuple(WaitingLevel(level, count) for level, count in waiting)
            for level, count in waiting:
                key = (id(counter), level)
                entry = self._waiting.get(key)
                if entry is None or entry[0]() is not counter:
                    entry = self._waiting[key] = [weakref.ref(counter), now, None]
                seen.add(key)
                stalled = now - entry[1]
                if stalled < self.threshold:
                    continue
                last_reported = entry[2]
                if last_reported is not None and (
                    self.rearm is None or now - last_reported < self.rearm
                ):
                    continue
                entry[2] = now
                reports.append(
                    StallReport(
                        counter=registry.label(counter),
                        counter_repr=repr(counter),
                        level=level,
                        waiters=count,
                        value=value,
                        stalled_s=stalled,
                        levels=levels,
                    )
                )
        # A pair not seen this scan made progress (or its counter died):
        # forget it so a later wait at the same level starts a fresh clock.
        for key in list(self._waiting):
            if key not in seen:
                del self._waiting[key]
        for report in reports:
            self.reports.append(report)
            if _obs.enabled:
                _obs.on_stall(
                    report.counter, report.level, report.waiters,
                    report.value, report.stalled_s,
                )
            if self._on_stall is not None:
                self._on_stall(report)
        for listener in self._poll_listeners:
            try:
                listener(now)
            except Exception:
                # Same contract as on_stall: observers never take the
                # watchdog down with them.
                continue
        return reports

    # ----------------------------------------------------------- background

    def start(self) -> "StallWatchdog":
        """Run :meth:`poll` every ``interval`` seconds on a daemon thread."""
        if self._thread is not None:
            raise RuntimeError("watchdog already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-watchdog", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.poll()
            except Exception:
                # A scan must never kill the watchdog; the next interval
                # retries against fresh state.
                continue

    def stop(self) -> None:
        """Stop the background thread (idempotent; joins briefly)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def __enter__(self) -> "StallWatchdog":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (
            f"<StallWatchdog {state} threshold={self.threshold}s "
            f"tracked={len(self._waiting)} reports={len(self.reports)}>"
        )

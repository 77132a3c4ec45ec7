"""Shared helpers for the test suite: thread orchestration, polling, and
a call-counting counter."""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Sequence

from repro.core import MonotonicCounter
from repro.obs.registry import label

#: Generous default so a wedged synchronization bug fails the test instead
#: of hanging the suite.
JOIN_TIMEOUT = 30.0


def spawn(fn: Callable[..., Any], *args: Any, name: str | None = None) -> threading.Thread:
    """Start a daemon thread running ``fn(*args)``."""
    thread = threading.Thread(target=fn, args=args, name=name, daemon=True)
    thread.start()
    return thread


def join_all(threads: Sequence[threading.Thread], timeout: float = JOIN_TIMEOUT) -> None:
    """Join every thread; fail the test if any is still alive."""
    deadline = time.monotonic() + timeout
    for thread in threads:
        remaining = deadline - time.monotonic()
        assert remaining > 0, f"timed out joining {thread.name}"
        thread.join(remaining)
        assert not thread.is_alive(), f"thread {thread.name} did not finish"


def wait_until(predicate: Callable[[], bool], timeout: float = 10.0, interval: float = 0.001) -> None:
    """Poll ``predicate`` until true; fail the test on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached before timeout")


def registered_handles(counter) -> list:
    """Every engine handle registered on a linked counter's wait nodes."""
    handles = []
    node = counter._waiters._head
    while node is not None:
        handles.extend(node.waiters)
        node = node.next
    return handles


def series_of(handle, counter):
    """``counter``'s :mod:`repro.obs` metric series under ``handle``
    (what ``with repro.obs.observe() as handle:`` returns)."""
    return handle.metrics.series(label(counter))


class CallCountingCounter(MonotonicCounter):
    """A :class:`MonotonicCounter` that counts its ``check`` and
    ``increment`` calls, for tests that inject their counter and assert
    how many synchronization operations an algorithm issued.

    The tallies are exact (bumped under their own lock); the operations
    themselves run unchanged.
    """

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._calls_lock = threading.Lock()
        self.checks = 0
        self.increments = 0

    def check(self, level: int, timeout: float | None = None) -> None:
        with self._calls_lock:
            self.checks += 1
        super().check(level, timeout)

    def increment(self, amount: int = 1) -> int:
        with self._calls_lock:
            self.increments += 1
        return super().increment(amount)

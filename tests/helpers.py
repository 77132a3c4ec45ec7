"""Shared helpers for the test suite: thread orchestration and polling."""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Sequence

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

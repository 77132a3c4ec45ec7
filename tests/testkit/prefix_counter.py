"""Shared test model: ``MonotonicCounter`` with PR 2's drain leak re-introduced.

Used by the scripted regression tests (pin the leak as one exact
schedule) and by the shrink/replay tests (hand the explorer and the
minimizer a real historical bug to find and reduce).
"""

from __future__ import annotations

from repro.core import MonotonicCounter
from repro.core import syncpoints as _sp
from repro.core.errors import CheckTimeout
from repro.core.validation import validate_amount


class PreFixCounter(MonotonicCounter):
    """``MonotonicCounter`` with PR 2's increment bug re-introduced,
    transliterated to the engine: the wake pass (set flag + slot sets)
    runs inside the critical section, before the ``_draining`` insert,
    instead of in the out-of-lock ``signal()`` pass.  Sync points are
    preserved so the same schedule drives both variants.  (The later
    ``signal()`` is harmless double delivery: each wheel entry's claim
    is already spent, so the second ``release_wake`` no-ops.)
    """

    def increment(self, amount: int = 1) -> int:
        amount = validate_amount(amount)
        released = None
        if _sp.enabled:
            _sp.fire("increment.lock", self)
        with self._lock:
            new_value = self._value + amount
            self._value = new_value
            if amount and self._live_levels:
                released = self._waiters.release_through(new_value)
                if released:
                    if _sp.enabled:
                        _sp.fire("increment.release", self)
                    draining = []
                    for node in released:
                        node.released = True
                        self._live_levels -= 1
                        self._live_waiters -= node.count
                        if node.count:
                            node.countdown = node.waiters[:]
                            draining.append(node)
                        node.signaled = True           # THE BUG: the wake
                        for waiter in node.waiters:    # is observable while
                            waiter.release_wake()      # the insert is pending
                    if draining:
                        if _sp.enabled:
                            _sp.fire("increment.drain", self)
                        with self._drain_lock:
                            for node in draining:
                                self._draining[id(node)] = node
        if released:
            if _sp.enabled:
                _sp.fire("increment.unlock", self)
            for node in released:
                if _sp.enabled:
                    _sp.fire("increment.signal", self)
                node.signal()
        return new_value


def drain_leak_model(timeout: float = 0.25):
    """A fresh pre-fix counter plus the two-worker model that can leak.

    Returns ``(counter, threads, leaked)``: the worker mapping for a
    controller/replay, and the oracle that detects the leak (a
    ``_draining`` entry surviving the run).
    """
    counter = PreFixCounter()
    result: dict[str, str] = {}

    def waiter():
        try:
            counter.check(1, timeout=timeout)
            result["check"] = "released"
        except CheckTimeout:
            result["check"] = "timeout"

    threads = {"w": waiter, "inc": (counter.increment, 1)}

    def leaked(controller) -> bool:
        # ``_draining`` is unset until the waiter's first registration.
        return len(getattr(counter, "_draining", ())) == 1

    return counter, threads, leaked

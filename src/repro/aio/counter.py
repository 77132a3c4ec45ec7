"""Monotonic counters for asyncio.

The paper (§8) argues counters are "not tied to any particular notation
or type system — they can easily be incorporated in almost any language
as a library."  This module is that claim exercised against a different
concurrency runtime: cooperative coroutines instead of preemptive
threads.  The semantics carry over unchanged because they never depended
on preemption — only on monotonicity.

:class:`AsyncCounter` mirrors the §7 implementation: a dynamically
varying ordered collection of per-level wakeup objects
(``asyncio.Event`` per distinct level), so storage and wake cost stay
proportional to the number of distinct waiting levels.  No lock is
needed for state transitions: asyncio is cooperative, and every mutation
completes synchronously between awaits.  The loop plays the role the
wakeup engine (:mod:`repro.core.engine`) plays thread-side: an
``asyncio.Event`` *is* a list of per-waiter futures — the loop's
parking slots — and timed waits ride the loop's own timer heap via
``asyncio.wait_for``, its timer wheel.

Thread-safety: an ``AsyncCounter`` belongs to one event loop.  For
cross-thread signalling into a loop, use
:class:`repro.aio.bridge.CounterBridge` — and prefer its direct
``await bridge.check(level)`` handoff, which parks once on a loop
future completed straight from the releasing thread instead of
double-parking through the mirrored counter.
"""

from __future__ import annotations

import asyncio
from typing import Callable

from repro.core.errors import CheckTimeout, CounterOverflowError, ResetConcurrencyError
from repro.core.snapshot import CounterSnapshot, WaitNodeSnapshot
from repro.core.stats import NOOP_STATS, CounterStats
from repro.core.validation import validate_amount, validate_level, validate_timeout
from repro.obs import hooks as _obs
from repro.obs import registry as _obs_registry
from repro.obs.events import next_token as _next_token

__all__ = ["AsyncCounter", "AsyncCounterSubscription"]


class _Level:
    """One distinct waiting level: count of waiters + its wakeup event."""

    __slots__ = ("level", "count", "event", "released_ts", "token", "subscribers")

    def __init__(self, level: int) -> None:
        self.level = level
        self.count = 0
        self.event = asyncio.Event()
        # Stamped by the observability release hook so resuming waiters
        # can report release-to-unpark latency; None when obs is off.
        self.released_ts: float | None = None
        # Schema-v2 correlation id (same token space as the threaded
        # counter's wait nodes): release/park/unpark/timeout/sub_fire
        # events on this level share it.
        self.token = _next_token()
        self.subscribers: list[Callable[[], None]] | None = None


class AsyncCounterSubscription:
    """Handle for one level-reached notification on an :class:`AsyncCounter`.

    Same contract as :class:`repro.core.counter.CounterSubscription`, in
    cooperative form (no locks needed — all mutation happens between
    awaits on one event loop).
    """

    __slots__ = ("_counter", "_node", "_callback", "_cancelled")

    def __init__(
        self, counter: "AsyncCounter", node: _Level, callback: Callable[[], None]
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
        node = self._node
        subscribers = node.subscribers
        if node.event.is_set() or subscribers is None:
            return
        try:
            subscribers.remove(self._callback)
        except ValueError:
            return
        if node.count == 0 and not subscribers:
            levels = self._counter._levels
            if levels.get(node.level) is node:
                del levels[node.level]


class AsyncCounter:
    """The monotonic counter, for coroutines.

    >>> async def demo():
    ...     c = AsyncCounter()
    ...     async def waiter():
    ...         await c.check(2)
    ...         return c.value
    ...     task = asyncio.ensure_future(waiter())
    ...     c.increment(2)
    ...     return await task
    >>> asyncio.run(demo())
    2
    """

    __slots__ = ("_value", "_levels", "_max_value", "_name", "_stats_on",
                 "_obs_label", "_obs_chan", "stats", "__weakref__")

    def __init__(
        self,
        *,
        max_value: int | None = None,
        name: str | None = None,
        stats: bool = False,
    ) -> None:
        if max_value is not None and (not isinstance(max_value, int) or max_value < 0):
            raise ValueError(f"max_value must be a nonnegative int or None, got {max_value!r}")
        self._value = 0
        self._levels: dict[int, _Level] = {}
        self._max_value = max_value
        self._name = name
        self._stats_on = bool(stats)
        self.stats = CounterStats() if stats else NOOP_STATS
        _obs_registry.register(self)

    @property
    def value(self) -> int:
        """Current value (diagnostic only — synchronize with ``check``)."""
        return self._value

    def increment(self, amount: int = 1) -> int:
        """Add ``amount`` and wake every coroutine whose level is reached.

        Synchronous (no await needed): the wakeups are scheduled on the
        loop; woken coroutines resume at the next scheduling point.
        """
        amount = validate_amount(amount)
        new_value = self._value + amount
        if self._max_value is not None and new_value > self._max_value:
            raise CounterOverflowError(
                f"{self!r}: increment({amount}) would exceed max_value={self._max_value}"
            )
        self._value = new_value
        if self._stats_on:
            self.stats.increments += 1
        nodes = None
        if amount and self._levels:
            satisfied = [lv for lv in self._levels if lv <= new_value]
            if satisfied:
                nodes = [self._levels.pop(lv) for lv in satisfied]
                if self._stats_on:
                    for node in nodes:
                        self.stats.nodes_released += 1
                        self.stats.threads_woken += node.count
        if nodes:
            # Stamps released_ts before any event is set, so woken
            # coroutines can report release-to-resume latency.
            obs_ctx = _obs.on_release_stamp(nodes) if _obs.enabled else None
            for node in nodes:
                node.event.set()
                subscribers = node.subscribers
                if subscribers:
                    if _obs.enabled:
                        _obs.on_sub_fire(self, node.level, len(subscribers),
                                         token=node.token)
                    node.subscribers = None
                    for callback in subscribers:
                        callback()
            if obs_ctx is not None:
                _obs.on_increment_released(self, amount, new_value, obs_ctx)
        elif _obs.enabled:
            _obs.on_increment(self, amount, new_value)
        return new_value

    async def check(self, level: int, timeout: float | None = None) -> None:
        """Suspend the calling coroutine until ``value >= level``."""
        level = validate_level(level)
        timeout = validate_timeout(timeout)
        if self._value >= level:
            if self._stats_on:
                self.stats.immediate_checks += 1
            return
        node = self._levels.get(level)
        if node is None:
            node = _Level(level)
            self._levels[level] = node
            if self._stats_on:
                self.stats.nodes_created += 1
        node.count += 1
        if self._stats_on:
            self.stats.suspended_checks += 1
            self.stats.note_levels(
                len(self._levels), sum(n.count for n in self._levels.values())
            )
        t_parked: float | None = None
        if _obs.enabled:
            t_parked = _obs.on_park(
                self, level, self._value, len(self._levels),
                sum(n.count for n in self._levels.values()),
                token=node.token,
            )
        try:
            if timeout is None:
                await node.event.wait()
            else:
                try:
                    # No shield: cancelling Event.wait() is side-effect
                    # free, and a shielded inner task would linger pending
                    # forever after a timeout (the finally block may pop
                    # the level, so its event is never set) — one leaked
                    # task per timed-out check.
                    await asyncio.wait_for(node.event.wait(), timeout)
                except asyncio.TimeoutError:
                    if not node.event.is_set():
                        if self._stats_on:
                            self.stats.timeouts += 1
                        if _obs.enabled:
                            _obs.on_timeout(self, level, self._value, t_parked,
                                            token=node.token)
                        raise CheckTimeout(
                            f"{self!r}: check({level}) timed out after {timeout}s "
                            f"(value={self._value})"
                        ) from None
            if _obs.enabled:
                _obs.on_wake(self, node, level, t_parked)
        finally:
            node.count -= 1
            if node.count == 0 and not node.event.is_set() and not node.subscribers:
                # Last waiter timed out/cancelled and no subscriptions are
                # outstanding: reclaim the level so storage stays
                # proportional to live waiting levels.
                self._levels.pop(level, None)

    def subscribe(
        self, level: int, callback: Callable[[], None]
    ) -> AsyncCounterSubscription | None:
        """Register ``callback`` to fire once when ``value >= level``.

        Returns ``None`` — without invoking the callback — when the level
        is already satisfied, else an :class:`AsyncCounterSubscription`.
        The callback runs synchronously inside the ``increment`` call that
        reaches the level; it must be quick and must not raise.  This is
        the hook :class:`repro.aio.multiwait.AsyncMultiWait` is built on.
        """
        level = validate_level(level)
        if not callable(callback):
            raise TypeError(f"callback must be callable, got {callback!r}")
        if self._value >= level:
            return None
        node = self._levels.get(level)
        if node is None:
            node = _Level(level)
            self._levels[level] = node
            if self._stats_on:
                self.stats.nodes_created += 1
        if node.subscribers is None:
            node.subscribers = []
        node.subscribers.append(callback)
        return AsyncCounterSubscription(self, node, callback)

    def reset(self) -> None:
        """Reset to zero; refuses while any coroutine is suspended."""
        if self._levels:
            raise ResetConcurrencyError(
                f"{self!r}: reset() with {len(self._levels)} waiting level(s)"
            )
        self._value = 0

    def snapshot(self) -> CounterSnapshot:
        """Freeze value + waiting structure (Figure 2 equivalent)."""
        return CounterSnapshot(
            value=self._value,
            nodes=tuple(
                WaitNodeSnapshot(level=node.level, count=node.count, signaled=node.event.is_set())
                for node in sorted(self._levels.values(), key=lambda n: n.level)
            ),
        )

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return f"<AsyncCounter{label} value={self._value}>"

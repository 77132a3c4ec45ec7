"""Monotonic counters for asyncio — the mechanism is runtime-agnostic.

:class:`AsyncCounter` gives coroutines the §2 interface
(``increment`` / ``await check``); :class:`CounterBridge` mirrors a
thread-side counter into an event loop so hybrid programs share one
monotone value.
"""

from repro.aio.bridge import CounterBridge
from repro.aio.counter import AsyncCounter, AsyncCounterSubscription
from repro.aio.multiwait import AsyncMultiWait

__all__ = [
    "AsyncCounter",
    "AsyncCounterSubscription",
    "AsyncMultiWait",
    "CounterBridge",
]

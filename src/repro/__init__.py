"""repro — a full reproduction of *Monotonic Counters: A New Mechanism
for Thread Synchronization* (Thornley & Chandy, IPPS 2000).

The headline export is :class:`MonotonicCounter` — a synchronization
object with a nonnegative value, an atomic ``increment(amount)``, and a
blocking ``check(level)`` that suspends until ``value >= level``.  Around
it, the package provides everything the paper describes or depends on:

============  =====================================================
subpackage    contents
============  =====================================================
core          the counter (paper §2, §7) and its variants
sync          traditional primitives built from scratch (§1, §8)
structured    the ``multithreaded`` block / for-loop model (§3)
determinism   race & ordering checker, sequential equivalence (§6)
simthread     deterministic virtual-time thread simulator
verify        exhaustive schedule exploration (model checking §6)
patterns      ragged barriers, ordered regions, broadcasts (§5)
apps          Floyd-Warshall, heat, accumulation, pipelines (§4-5)
bench         benchmark harness utilities
============  =====================================================

Quickstart::

    from repro import MonotonicCounter, multithreaded

    c = MonotonicCounter()
    data = []

    def writer():
        for i in range(10):
            data.append(i * i)
            c.increment(1)

    def reader():
        for i in range(10):
            c.check(i + 1)       # suspend until data[i] exists
            print(data[i])

    multithreaded(writer, reader)
"""

from repro.core import (
    BroadcastCounter,
    CheckTimeout,
    Counter,
    CounterError,
    CounterProtocol,
    CounterSnapshot,
    MonotonicCounter,
    MultiWait,
)
from repro.structured import (
    ThreadScope,
    block_range,
    multithreaded,
    multithreaded_for,
    sequential_execution,
)

__version__ = "1.0.0"

__all__ = [
    "MonotonicCounter",
    "BroadcastCounter",
    "Counter",
    "CounterProtocol",
    "CounterSnapshot",
    "CounterError",
    "CheckTimeout",
    "MultiWait",
    "multithreaded",
    "multithreaded_for",
    "block_range",
    "ThreadScope",
    "sequential_execution",
    "__version__",
]

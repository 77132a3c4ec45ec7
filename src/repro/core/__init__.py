"""Core package: the paper's contribution — monotonic counters.

Public surface:

* :class:`~repro.core.counter.MonotonicCounter` (alias ``Counter``) — the
  canonical implementation (§7: lock + ordered list of per-level condition
  variables).
* :class:`~repro.core.counter.BroadcastCounter` — naive single-queue
  baseline for ablation.
* :class:`~repro.core.api.CounterProtocol` / ``AbstractCounter`` — the
  structural contract shared with the simulator and instrumented variants.
* Snapshots (:class:`~repro.core.snapshot.CounterSnapshot`) for
  observation; operation tallies live in :mod:`repro.obs`.
* The error hierarchy under :class:`~repro.core.errors.CounterError`.
"""

from repro.core.api import AbstractCounter, CounterProtocol
from repro.core.counter import (
    BroadcastCounter,
    Counter,
    CounterSubscription,
    MonotonicCounter,
)
from repro.core.errors import (
    CheckTimeout,
    CounterError,
    CounterOverflowError,
    CounterValueError,
    ResetConcurrencyError,
)
from repro.core.multiwait import MultiWait, barrier_levels, check_all, checkpoint
from repro.core.snapshot import CounterSnapshot, WaitNodeSnapshot

__all__ = [
    "AbstractCounter",
    "CounterProtocol",
    "MonotonicCounter",
    "BroadcastCounter",
    "Counter",
    "CounterError",
    "CounterValueError",
    "CheckTimeout",
    "ResetConcurrencyError",
    "CounterOverflowError",
    "CounterSnapshot",
    "WaitNodeSnapshot",
    "MultiWait",
    "CounterSubscription",
    "check_all",
    "checkpoint",
    "barrier_levels",
]

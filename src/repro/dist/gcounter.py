"""The fabric's replication state: a grow-only counter of per-source maxes.

Monotonicity is what lets a counter leave the process (ROADMAP item 1):
if each *source* (a process slot, a client, a peer service) only ever
grows its own contribution, then the counter's value — the sum of
per-source contributions — only ever grows, merge between replicas is
max-per-source, and every ``check(level)`` condition stays stable under
arbitrary replication lag.  That is precisely a G-counter CRDT, and the
paper's §6 determinacy argument survives the trip: a stale replica can
only *under*-report, so a satisfied read is still sound and an
unsatisfied one merely waits for the next merge.

:class:`GCounter` is the thread-safe in-memory form shared by the
asyncio counter service (one per published counter name), the
anti-entropy merge path, and the testkit convergence suites.  Waiting is
delegated to a local :class:`~repro.core.counter.MonotonicCounter`
mirror raised to the replicated sum after every mutation (the
absolute-floor idiom of :func:`repro.aio.bridge.raise_to`, made
race-safe here with a cumulative published floor), so
``check``/``subscribe`` ride the PR-6 engine unchanged.  The shared-memory fabric
(:mod:`repro.dist.shm`) is the same abstraction with the contributions
dict flattened into fixed 8-byte slots.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Mapping

from repro.core import syncpoints as _sp
from repro.core.counter import MonotonicCounter
from repro.core.validation import validate_amount

__all__ = ["GCounter", "merge_digests", "digests_equal"]


def merge_digests(*digests: Mapping[str, int]) -> dict[str, int]:
    """Pointwise max of any number of per-source digests (pure)."""
    merged: dict[str, int] = {}
    for digest in digests:
        for source, value in digest.items():
            if merged.get(source, 0) < value:
                merged[source] = value
    return merged


def digests_equal(a: Mapping[str, int], b: Mapping[str, int]) -> bool:
    """True when two digests describe the same contributions (zero
    entries are the implicit default, so ``{}`` equals ``{"s": 0}``)."""
    for source in set(a) | set(b):
        if a.get(source, 0) != b.get(source, 0):
            return False
    return True


class GCounter:
    """A grow-only, max-per-source-merge counter with local waiting.

    Operations
    ----------
    ``bump(source, amount)``
        Grow one source's contribution by ``amount`` (the fabric's
        ``increment``: a source only ever touches its own entry).
    ``raise_source(source, value)`` / ``merge(digest)``
        Idempotent max-merge of an absolute contribution (one source /
        a whole peer digest) — the anti-entropy primitives.  Replaying,
        reordering, or duplicating merge traffic cannot move the value
        anywhere but up, and never past the true total.
    ``digest()``
        Snapshot of every per-source max, suitable for the wire.
    ``check`` / ``subscribe`` / ``value``
        Delegated to the local wait mirror, which trails the replicated
        sum by at most the in-flight publish (a lower bound, closed by
        the next mutation) — so waits park on the engine exactly like a
        single-process counter.

    Thread-safe; also safe to drive from a single event loop (the lock
    is then simply uncontended).  Sync points (``gcounter.*``) let the
    testkit interleave bumps and merges adversarially — the anti-entropy
    convergence suite in ``tests/dist/`` runs on them.
    """

    __slots__ = (
        "_lock",
        "_contrib",
        "_total",
        "_mirror",
        "_publish_lock",
        "_published",
        "_name",
        "__weakref__",
    )

    def __init__(self, *, name: str | None = None,
                 mirror: MonotonicCounter | None = None) -> None:
        self._lock = threading.Lock()
        self._contrib: dict[str, int] = {}
        self._total = 0
        self._name = name
        self._mirror = mirror if mirror is not None else MonotonicCounter(name=name)
        # Cumulative floor already handed to the mirror; guarded by its
        # own lock so concurrent publishers' gaps *sum* to the target
        # (never overshoot — a naive read-value-then-raise would let two
        # racers each add their full gap).
        self._publish_lock = threading.Lock()
        self._published = 0

    # ------------------------------------------------------------ mutation

    def bump(self, source: str, amount: int = 1) -> int:
        """Grow ``source``'s contribution by ``amount``; new total."""
        amount = validate_amount(amount)
        if _sp.enabled:
            _sp.fire("gcounter.lock", self)
        with self._lock:
            self._contrib[source] = self._contrib.get(source, 0) + amount
            self._total = total = self._total + amount
        self._publish(total)
        return total

    def raise_source(self, source: str, value: int) -> int:
        """Max-merge one source's absolute contribution; new total."""
        value = validate_amount(value)
        if _sp.enabled:
            _sp.fire("gcounter.lock", self)
        with self._lock:
            current = self._contrib.get(source, 0)
            if value > current:
                self._contrib[source] = value
                self._total += value - current
            total = self._total
        self._publish(total)
        return total

    def merge(self, digest: Mapping[str, int]) -> int:
        """Max-merge a whole peer digest; new total.

        The CRDT join: commutative, associative, idempotent.  Applied
        entry-wise under the lock so a concurrent ``bump`` can never be
        overwritten downward (max against the *current* local entry).
        """
        if _sp.enabled:
            _sp.fire("gcounter.lock", self)
        with self._lock:
            if _sp.enabled:
                _sp.fire("gcounter.merge", self)
            contrib = self._contrib
            grew = 0
            for source, value in digest.items():
                if type(value) is not int or value < 0:
                    value = validate_amount(value)
                current = contrib.get(source, 0)
                if value > current:
                    contrib[source] = value
                    grew += value - current
            if grew:
                self._total += grew
            total = self._total
        self._publish(total)
        return total

    def _publish(self, total: int) -> None:
        # Outside the contributions lock (the mirror's increment takes its
        # own lock and runs a wake pass).  The gap is computed against the
        # cumulative published floor under _publish_lock, so concurrent
        # publishers' increments sum to exactly the largest target: the
        # mirror converges on the replicated total from below and can
        # never overshoot it (no waiter ever wakes before its level is
        # truly reached).
        if _sp.enabled:
            _sp.fire("gcounter.publish", self)
        with self._publish_lock:
            gap = total - self._published
            if gap <= 0:
                return
            self._published = total
        self._mirror.increment(gap)

    # ------------------------------------------------------------- reading

    def digest(self) -> dict[str, int]:
        """Every per-source max — the anti-entropy wire payload."""
        with self._lock:
            return dict(self._contrib)

    @property
    def value(self) -> int:
        """The replicated total (sum of per-source maxes).

        Read without the lock: ``_total`` only grows, and each mutation
        stores it in one assignment, so a racing read sees a total the
        counter really held — a lower bound, like the ``check`` fast
        path's read.
        """
        return self._total

    def sources(self) -> Iterable[str]:
        with self._lock:
            return list(self._contrib)

    # ------------------------------------------------------------- waiting

    @property
    def mirror(self) -> MonotonicCounter:
        """The local wait mirror (its value trails :attr:`value` by at
        most one in-flight publish)."""
        return self._mirror

    def check(self, level: int, timeout: float | None = None) -> None:
        """Suspend until the replicated total reaches ``level``."""
        self._mirror.check(level, timeout)

    def subscribe(self, level: int, callback: Callable[[], None]):
        """Fire ``callback`` once the replicated total reaches ``level``
        (same contract as :meth:`MonotonicCounter.subscribe`)."""
        return self._mirror.subscribe(level, callback)

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return f"<GCounter{label} value={self._total} sources={len(self._contrib)}>"

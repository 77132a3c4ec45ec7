"""Lightweight operation statistics for counters.

The complexity claims of §7 (storage and per-operation time proportional to
the number of *distinct waiting levels*, not to the number of waiting
threads) are quantified by benchmark E8.  Counters can keep a few cheap
integer tallies for that purpose — but the tallies are themselves a
scalability tax on the hot paths (every ``increment``/``check`` pays
attribute bumps, and a shared tally is a cache-line everyone contends on).

Collection is therefore **opt-in**: counters are constructed with
``stats=False`` by default and carry the shared :data:`NOOP_STATS`
null object, whose every tally reads zero and whose recording hooks do
nothing.  Benchmarks and tests that verify the §7 observables pass
``stats=True`` to get a live :class:`CounterStats`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["CounterStats", "NoopStats", "NOOP_STATS"]


@dataclass(slots=True)
class CounterStats:
    """Running tallies of one counter's lifetime activity.

    ``immediate_checks`` counts ``check`` calls satisfied without
    suspension; ``suspended_checks`` counts those that had to wait.
    ``nodes_created`` counts wait-node allocations (one per *new* distinct
    waiting level), and ``max_live_levels`` is the high-water mark of
    simultaneously existing wait nodes — the L in the paper's O(L) bounds.

    Counters bump these tallies only when constructed with ``stats=True``;
    with the default ``stats=False`` they hold the :data:`NOOP_STATS`
    null object instead, so production paths pay zero bookkeeping.

    Note on accuracy: a counter's lock-free ``check`` fast path records
    ``immediate_checks`` outside the lock, so under heavy contention
    that tally may slightly undercount (lost read-modify-write races).
    All other tallies are updated under the counter lock and are exact.
    """

    increments: int = 0
    immediate_checks: int = 0
    suspended_checks: int = 0
    timeouts: int = 0
    nodes_created: int = 0
    nodes_released: int = 0
    threads_woken: int = 0
    max_live_levels: int = 0
    max_live_waiters: int = 0

    #: Distinguishes a live stats object from :data:`NOOP_STATS`.
    enabled = True

    @property
    def checks(self) -> int:
        """Total ``check`` calls observed."""
        return self.immediate_checks + self.suspended_checks

    def note_levels(self, live_levels: int, live_waiters: int) -> None:
        """Record a high-water observation of live levels/waiters."""
        if live_levels > self.max_live_levels:
            self.max_live_levels = live_levels
        if live_waiters > self.max_live_waiters:
            self.max_live_waiters = live_waiters

    def as_dict(self) -> dict[str, int]:
        """All tallies (plus derived ``checks``) as a plain mapping.

        This is the export surface the unified metrics registry
        (:meth:`repro.obs.metrics.MetricsRegistry.snapshot` and its
        Prometheus twin) folds into its output for every live counter
        carrying opt-in stats.  The fast-path accuracy caveat above
        applies to ``immediate_checks`` here too.
        """
        doc = asdict(self)
        doc["checks"] = self.checks
        return doc

    def snapshot(self) -> "CounterStats":
        """A detached copy (the live object keeps mutating)."""
        return CounterStats(
            increments=self.increments,
            immediate_checks=self.immediate_checks,
            suspended_checks=self.suspended_checks,
            timeouts=self.timeouts,
            nodes_created=self.nodes_created,
            nodes_released=self.nodes_released,
            threads_woken=self.threads_woken,
            max_live_levels=self.max_live_levels,
            max_live_waiters=self.max_live_waiters,
        )


class NoopStats:
    """Null-object stats: every tally reads 0, every hook is a no-op.

    Counters constructed with ``stats=False`` (the default) share the
    single :data:`NOOP_STATS` instance, so code that only *reads*
    ``counter.stats`` keeps working unchanged while the counter itself
    skips all bookkeeping.  Instances are immutable by construction
    (``__slots__ = ()`` and all tallies are class attributes).
    """

    __slots__ = ()

    increments = 0
    immediate_checks = 0
    suspended_checks = 0
    timeouts = 0
    nodes_created = 0
    nodes_released = 0
    threads_woken = 0
    max_live_levels = 0
    max_live_waiters = 0
    checks = 0
    enabled = False

    def note_levels(self, live_levels: int, live_waiters: int) -> None:
        pass

    def as_dict(self) -> dict[str, int]:
        """An all-zero mapping with the same keys as the live stats."""
        return CounterStats().as_dict()

    def snapshot(self) -> CounterStats:
        """An (all-zero) detached :class:`CounterStats` copy."""
        return CounterStats()

    def __repr__(self) -> str:
        return "<NoopStats>"


#: The shared null-stats instance carried by every ``stats=False`` counter.
NOOP_STATS = NoopStats()

"""Counter-stress workload generators for the E8 complexity benchmarks.

Section 7 claims storage and per-op cost proportional to the number of
*distinct waiting levels* L, not the number of waiting threads W.  These
helpers arrange W real threads over L distinct levels against any counter
implementation, releasing them with one sweep of increments, and report
the live levels and waiters the counter's snapshot showed once they had
all suspended.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.core.api import CounterProtocol

__all__ = ["SpreadResult", "spread_waiters"]


@dataclass(frozen=True, slots=True)
class SpreadResult:
    """Outcome of one spread-waiters run."""

    waiters: int
    levels: int
    episodes: int
    max_live_levels: int
    max_live_waiters: int


def spread_waiters(
    counter: CounterProtocol,
    *,
    waiters: int,
    levels: int,
    increment_steps: int = 1,
    episodes: int = 1,
    timeout: float = 30.0,
) -> SpreadResult:
    """Park ``waiters`` threads across ``levels`` distinct levels, release
    all, ``episodes`` times over with one persistent thread pool.

    In episode ``e`` (0-based), waiter ``w`` waits on level
    ``e * levels + (w % levels) + 1``; the main thread waits until every
    waiter is suspended, then raises the counter by ``levels`` in
    ``increment_steps`` equal increments, releasing the whole cohort,
    which immediately re-parks at the next episode's levels.  With
    ``episodes > 1`` the thread-spawn cost (which dominates a single
    park/release cycle wall-clock) is amortized, so the measurement
    isolates the park → release → wake path itself.  Returns the most
    levels and waiters the settled ``snapshot()`` showed still waiting
    across the episodes (zeros for an implementation without snapshots).
    """
    if waiters < 1 or levels < 1 or levels > waiters:
        raise ValueError(f"need waiters >= levels >= 1, got {waiters}, {levels}")
    if increment_steps < 1:
        raise ValueError(f"increment_steps must be >= 1, got {increment_steps}")
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    parked = threading.Semaphore(0)

    def wait(w: int) -> None:
        for episode in range(episodes):
            parked.release()
            counter.check(episode * levels + (w % levels) + 1, timeout=timeout)

    threads = [threading.Thread(target=wait, args=(w,)) for w in range(waiters)]
    for thread in threads:
        thread.start()
    snapshot_of = getattr(counter, "snapshot", None)
    max_levels = max_waiters = 0
    for episode in range(episodes):
        for _ in range(waiters):
            parked.acquire()
        # Parked means "about to check"; give the checks a moment to
        # suspend.  Correctness does not depend on this (checks of
        # already-passed levels return immediately); only the high-water
        # marks — and the fairness of measuring the *wakeup* path rather
        # than fast-path returns — do.
        settle = 2.0 if timeout is None else min(timeout, 2.0)
        settle_deadline = time.monotonic() + settle
        while snapshot_of is not None:
            snapshot = snapshot_of()
            if (
                snapshot.total_waiters >= waiters
                or time.monotonic() >= settle_deadline
            ):
                # Nodes already set by the previous episode's release
                # are draining, not waiting: only unset ones count.
                waiting = [node for node in snapshot.nodes if not node.signaled]
                max_levels = max(max_levels, len(waiting))
                max_waiters = max(max_waiters, sum(node.count for node in waiting))
                break
            time.sleep(0)
        base, remainder = divmod(levels, increment_steps)
        for step in range(increment_steps):
            counter.increment(base + (1 if step < remainder else 0))
    for thread in threads:
        thread.join()
    return SpreadResult(
        waiters=waiters,
        levels=levels,
        episodes=episodes,
        max_live_levels=max_levels,
        max_live_waiters=max_waiters,
    )

"""E8 — §7 implementation complexity: cost ∝ distinct waiting levels.

The paper: "The storage requirements of a counter are proportional to the
number of different levels at which threads are waiting ... The time
complexity of Check and Increment operations is also proportional to the
number of different levels at which threads are waiting, not to the total
number of waiting threads."

Regenerates:

* storage: wait-node high-water vs (waiters, levels) grid;
* release cost: one increment releasing W waiters parked on L levels,
  for the paper's linked list, the heap variant, and the naive
  single-queue broadcast baseline (which wakes everyone on every
  increment — what §7's per-level queues avoid);
* uncontended op costs (increment, immediate check).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.bench import Table, measure, spread_waiters
from repro.core import BroadcastCounter, MonotonicCounter
from repro.obs import observe

FACTORIES = {
    "linked": lambda: MonotonicCounter(strategy="linked"),
    "heap": lambda: MonotonicCounter(strategy="heap"),
    "broadcast": lambda: BroadcastCounter(),
}


def test_e8_storage_proportional_to_levels(benchmark, show):
    table = Table(
        "E8a: live wait nodes vs waiters and levels (linked strategy)",
        ["waiters", "distinct levels", "max live nodes", "max live waiters"],
        caption="storage tracks L, not W (§7)",
    )
    for waiters, levels in ((16, 1), (16, 4), (64, 4), (64, 16), (128, 8), (128, 64)):
        counter = MonotonicCounter()
        result = spread_waiters(counter, waiters=waiters, levels=levels)
        table.add_row(waiters, levels, result.max_live_levels, result.max_live_waiters)
        assert result.max_live_levels <= levels
    show(table)
    benchmark(lambda: spread_waiters(MonotonicCounter(), waiters=32, levels=8))


@pytest.mark.parametrize("strategy", sorted(FACTORIES))
def test_e8_release_cost_by_strategy(benchmark, show, strategy):
    """Wall time to park W waiters on L levels and release them all,
    stepping the counter one level at a time (the worst case for the
    naive broadcast counter: every increment wakes every waiter)."""
    table = Table(
        f"E8b[{strategy}]: park + stepped release wall clock (ms)",
        ["waiters", "levels", "time"],
    )
    for waiters, levels in ((32, 1), (32, 8), (32, 32), (96, 8)):
        timing = measure(
            lambda: spread_waiters(
                FACTORIES[strategy](),
                waiters=waiters,
                levels=levels,
                increment_steps=levels,
            ),
            repeats=3,
            warmup=1,
        )
        table.add_row(waiters, levels, timing.mean * 1e3)
    show(table)
    benchmark(
        lambda: spread_waiters(
            FACTORIES[strategy](), waiters=32, levels=8, increment_steps=8
        )
    )


def _stepped_wakeups(counter, series, *, waiters: int, levels: int) -> int:
    """Park ``waiters`` threads over ``levels`` levels, raise the counter
    one level at a time, and let every woken thread resume or re-park
    before the next step; return the wakeups ``series`` counted.

    Settled means the obs series shows exactly the still-unsatisfied
    waiters parked, unchanged over one poll interval — so a step's
    wakeups are not folded into the next step's.
    """

    def settle(parked: int) -> None:
        last = None
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            now = (series.parks, series.unparks)
            if now == last and now[0] - now[1] == parked:
                return
            last = now
            time.sleep(0.002)

    wanted = [(w % levels) + 1 for w in range(waiters)]
    threads = [threading.Thread(target=counter.check, args=(level,)) for level in wanted]
    for thread in threads:
        thread.start()
    settle(waiters)
    for step in range(1, levels + 1):
        counter.increment(1)
        settle(sum(1 for level in wanted if level > step))
    for thread in threads:
        thread.join()
    return series.unparks


def test_e8_wakeups_linked_vs_broadcast(benchmark, show):
    """The structural count behind E8b: spurious wakeups per run.  The
    §7 implementation wakes each thread exactly once; the naive
    single-queue counter wakes every still-waiting thread on every
    increment."""
    table = Table(
        "E8c: threads woken during a stepped release (32 waiters)",
        ["levels", "linked wakeups", "broadcast wakeups"],
        caption="obs unparks per implementation; linked == waiters exactly",
    )
    for levels in (1, 8, 32):
        with observe(trace=False) as handle:
            linked_woken = _stepped_wakeups(
                MonotonicCounter(name="linked"), handle.metrics.series("linked"),
                waiters=32, levels=levels,
            )
            naive_woken = _stepped_wakeups(
                BroadcastCounter(name="broadcast"), handle.metrics.series("broadcast"),
                waiters=32, levels=levels,
            )
        table.add_row(levels, linked_woken, naive_woken)
        assert linked_woken == 32
        assert naive_woken >= linked_woken
    show(table)
    benchmark(lambda: spread_waiters(MonotonicCounter(), waiters=32, levels=32, increment_steps=32))


def test_e8_uncontended_op_cost(benchmark, show):
    table = Table(
        "E8d: uncontended operation cost (µs/op, 10k ops)",
        ["implementation", "increment", "immediate check"],
    )
    for name, factory in sorted(FACTORIES.items()):
        counter = factory()

        def increments():
            for _ in range(10_000):
                counter.increment(1)

        inc = measure(increments, repeats=3).mean / 10_000
        counter2 = factory()
        counter2.increment(1)

        def checks():
            for _ in range(10_000):
                counter2.check(1)

        chk = measure(checks, repeats=3).mean / 10_000
        table.add_row(name, inc * 1e6, chk * 1e6)
    show(table)
    hot = MonotonicCounter()
    benchmark(lambda: hot.increment(1))

"""E6 — §5.3 single-writer multiple-reader broadcast.

Regenerates:

* the block-size granularity sweep (per-op overhead vs pipelining) in
  virtual time — the trade the paper's blocked listing exists for;
* the one-counter-many-queues observable: distinct live suspension
  levels when readers use different granularities;
* real-thread broadcast throughput vs block size.
"""

from __future__ import annotations

import threading

from repro.apps.sim_models import sim_broadcast
from repro.bench import Table, measure
from repro.core import MonotonicCounter
from repro.patterns import SingleWriterBroadcast
from repro.structured import ThreadScope


class CallCountingCounter(MonotonicCounter):
    """A :class:`MonotonicCounter` that counts its ``check`` and
    ``increment`` calls (exactly: bumped under their own lock)."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._calls_lock = threading.Lock()
        self.checks = 0
        self.increments = 0

    def check(self, level: int, timeout: float | None = None) -> None:
        with self._calls_lock:
            self.checks += 1
        super().check(level, timeout)

    def increment(self, amount: int = 1) -> int:
        with self._calls_lock:
            self.increments += 1
        return super().increment(amount)


def test_e6_block_size_sweep(benchmark, show):
    table = Table(
        "E6a: broadcast granularity sweep (2048 items, 4 readers, op cost 0.5)",
        ["block size", "makespan", "sync ops", "vs block=1"],
        caption="blocking amortizes synchronization; too-large blocks lose pipelining (§5.3)",
    )
    baseline = None
    for block in (1, 4, 16, 64, 256, 1024, 2048):
        result = sim_broadcast(
            2048, 4, writer_block=block, reader_block=block, op_cost=0.5
        )
        ops = sum(stats.sync_ops for stats in result.tasks.values())
        if baseline is None:
            baseline = result.makespan
        table.add_row(block, result.makespan, ops, result.makespan / baseline)
    show(table)
    benchmark(
        lambda: sim_broadcast(2048, 4, writer_block=16, reader_block=16, op_cost=0.5)
    )


def test_e6_mixed_granularity(benchmark, show):
    """Different readers, different block sizes — one counter serves all."""
    table = Table(
        "E6b: per-reader granularity (writer block 8)",
        ["reader blocks", "makespan", "max live levels on the one counter"],
    )
    from repro.simthread import Compute, Simulation

    for blocks in ((1, 1, 1), (1, 8, 64), (64, 64, 64)):

        sim = Simulation()
        counter = sim.counter("dataCount")
        n = 1024

        def writer():
            pending = 0
            for _ in range(n):
                yield Compute(1.0)
                pending += 1
                if pending == 8:
                    yield counter.increment(pending)
                    pending = 0
            if pending:
                yield counter.increment(pending)

        def reader(block):
            for i in range(n):
                if i % block == 0:
                    yield counter.check(min(i + block, n))
                yield Compute(1.0)

        sim.spawn(writer(), name="w")
        for r, block in enumerate(blocks):
            sim.spawn(reader(block), name=f"r{r}")
        result = sim.run()
        table.add_row("/".join(map(str, blocks)), result.makespan, counter.max_live_levels)
    show(table)
    benchmark(lambda: sim_broadcast(1024, 3, writer_block=8, reader_block=8))


def test_e6_real_thread_throughput(benchmark, show):
    table = Table(
        "E6c: real-thread broadcast wall clock (20k items, 3 readers, ms)",
        ["block size", "time", "counter ops"],
    )
    n = 20_000

    def run_broadcast(block: int, counter: MonotonicCounter | None = None) -> None:
        bc = SingleWriterBroadcast(n, counter=counter)
        with ThreadScope() as scope:
            for _ in range(3):
                scope.spawn(lambda: sum(1 for _ in bc.read(block_size=block)))
            bc.publish_blocked(list(range(n)), block_size=block)

    for block in (1, 16, 256):
        timing = measure(lambda: run_broadcast(block), repeats=3, warmup=1)
        # Counted on a separate run, so the tally costs no timed time.
        counter = CallCountingCounter()
        run_broadcast(block, counter)
        ops = counter.increments + counter.checks
        table.add_row(block, timing.mean * 1e3, ops)
    show(table)
    benchmark(lambda: run_broadcast(256))


def test_e6_distinct_suspension_levels(benchmark, show):
    """The §5.3 structural claim on live threads: readers park at
    *different levels of one counter* simultaneously."""
    counter = MonotonicCounter()
    bc = SingleWriterBroadcast(300, counter=counter)
    parked = threading.Event()

    def reader(block):
        for _ in bc.read(block_size=block):
            pass

    with ThreadScope() as scope:
        for block in (1, 10, 100):
            scope.spawn(reader, block)
        from tests.helpers import wait_until

        wait_until(lambda: len(counter.snapshot().waiting_levels) == 3)
        levels = counter.snapshot().waiting_levels
        for i in range(300):
            bc.publish(i)
    table = Table(
        "E6d: simultaneous suspension levels on one counter",
        ["reader block sizes", "parked levels observed"],
    )
    table.add_row("1 / 10 / 100", str(levels))
    show(table)
    assert levels == (1, 10, 100)
    benchmark(lambda: MonotonicCounter().increment(1))

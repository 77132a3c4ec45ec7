"""E3 — §4 Floyd-Warshall: barrier vs condvar-array vs counter.

The paper's argument: the barrier version serializes iterations across
all threads; the event/counter versions let each thread proceed as soon
as row k is staged, so they win under load imbalance, and the counter
version does it with ONE synchronization object instead of N.

Regenerates:

* the virtual-time makespan table (variant × threads × imbalance) — the
  "who wins, by how much, where it grows" series;
* the synchronization-object count table (§4.5's storage claim);
* real-thread wall-clock timings of the three implementations
  (synchronization overhead on a live runtime; the GIL serializes the
  arithmetic, so treat these as overhead, not speedup).
"""

from __future__ import annotations

import numpy as np

from repro.apps.floyd_warshall import (
    shortest_paths_barrier,
    shortest_paths_counter,
    shortest_paths_events,
)
from repro.apps.graphs import random_dense_graph
from repro.apps.sim_models import sim_floyd_warshall
from repro.bench import Table
from repro.obs import observe

VARIANTS = ("barrier", "events", "counter")


def test_e3_virtual_time_makespan(benchmark, show):
    table = Table(
        "E3a: Floyd-Warshall virtual-time makespan (N=64 rows)",
        ["threads", "imbalance", "barrier", "events", "counter", "counter/barrier"],
        caption="ragged variants win under imbalance; counter == events (paper §4.4-4.5)",
    )
    for threads in (2, 4, 8):
        for imbalance in (0.0, 0.5, 0.9):
            makespans = {
                variant: sim_floyd_warshall(
                    64, threads, variant, imbalance=imbalance, seed=42
                ).makespan
                for variant in VARIANTS
            }
            table.add_row(
                threads,
                imbalance,
                makespans["barrier"],
                makespans["events"],
                makespans["counter"],
                makespans["counter"] / makespans["barrier"],
            )
    show(table)
    benchmark(lambda: sim_floyd_warshall(64, 8, "counter", imbalance=0.5, seed=42))


def test_e3_sync_object_count(benchmark, show):
    """§4.5: N events vs one counter; live suspension levels stay small."""
    from repro.core import MonotonicCounter

    table = Table(
        "E3b: synchronization objects, events vs counter",
        ["N (rows)", "event objects", "counter objects", "max live levels"],
        caption="'the number of these objects in existence at any given time is likely to be much less than N' (§4.5)",
    )
    for n in (32, 64, 128):
        counter = MonotonicCounter(name="kCount")
        edge = random_dense_graph(n, seed=1)
        with observe(trace=False) as handle:
            shortest_paths_counter(edge, 4, counter=counter)
        table.add_row(n, n, 1, handle.metrics.series("kCount").live_levels_hw)
    show(table)
    edge = random_dense_graph(64, seed=1)
    benchmark(lambda: shortest_paths_counter(edge, 4))


def test_e3_real_thread_wall_clock(benchmark, show):
    table = Table(
        "E3c: Floyd-Warshall real-thread wall clock (N=128, ms)",
        ["threads", "barrier", "events", "counter"],
        caption="CPython threads: measures synchronization overhead, not speedup (GIL)",
    )
    from repro.bench import measure

    edge = random_dense_graph(128, seed=3)
    expected = None
    for threads in (1, 2, 4):
        row = [threads]
        for solver in (shortest_paths_barrier, shortest_paths_events, shortest_paths_counter):
            timing = measure(lambda s=solver: s(edge, threads), repeats=3, warmup=1)
            row.append(timing.mean * 1e3)
            result = solver(edge, threads)
            if expected is None:
                expected = result
            assert np.allclose(result, expected)
        table.add_row(*row)
    show(table)
    benchmark(lambda: shortest_paths_counter(edge, 4))

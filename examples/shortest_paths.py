#!/usr/bin/env python
"""§4: all-pairs shortest paths four ways, including the paper's Figure 1.

Runs the sequential, barrier, event-array, and counter versions of
Floyd-Warshall on the exact Figure 1 graph and on a random graph, checks
they agree, and shows the virtual-time makespans that motivate the
counter version.

Run:  python examples/shortest_paths.py
"""

import numpy as np

from repro.apps.floyd_warshall import (
    figure1_edge,
    figure1_path,
    shortest_paths_barrier,
    shortest_paths_counter,
    shortest_paths_events,
    shortest_paths_sequential,
)
from repro.apps.graphs import random_dense_graph
from repro.apps.sim_models import sim_floyd_warshall
from repro.core import MonotonicCounter
from repro.obs import observe


def show_matrix(name: str, matrix: np.ndarray) -> None:
    print(f"{name}:")
    for row in matrix:
        print("   ", "  ".join(f"{'∞' if np.isinf(v) else f'{v:g}':>4}" for v in row))


def figure1() -> None:
    print("== Figure 1: the paper's 3-vertex example ==")
    edge = figure1_edge()
    show_matrix("edge (input)", edge)
    path = shortest_paths_sequential(edge)
    show_matrix("path (output)", path)
    assert np.array_equal(path, figure1_path())
    for solver, label in (
        (shortest_paths_barrier, "barrier  (§4.3)"),
        (shortest_paths_events, "events   (§4.4)"),
        (shortest_paths_counter, "counter  (§4.5)"),
    ):
        result = solver(edge, num_threads=3)
        status = "matches Figure 1" if np.array_equal(result, figure1_path()) else "MISMATCH"
        print(f"  {label}: {status}")
    print()


def one_counter_replaces_n_events() -> None:
    print("== §4.5: one counter instead of N condition variables ==")
    n = 64
    edge = random_dense_graph(n, seed=7)
    counter = MonotonicCounter(name="kCount")
    with observe(trace=False) as handle:
        result = shortest_paths_counter(edge, num_threads=4, counter=counter)
    live_levels = handle.metrics.series("kCount").live_levels_hw
    reference = shortest_paths_sequential(edge)
    assert np.allclose(result, reference)
    print(f"graph: {n} vertices, 4 threads")
    print(f"event-array version would allocate: {n} synchronization objects")
    print("counter version allocated:          1 counter")
    print(
        f"max simultaneously live wait levels: {live_levels} "
        f"(‘likely to be much less than N’ — §4.5)"
    )
    print()


def virtual_time_shapes() -> None:
    print("== why ragged beats the barrier (virtual time, N=64, 8 threads) ==")
    print(f"{'imbalance':>9}  {'barrier':>9}  {'counter':>9}  {'saving':>7}")
    for imbalance in (0.0, 0.3, 0.6, 0.9):
        barrier = sim_floyd_warshall(64, 8, "barrier", imbalance=imbalance, seed=1)
        counter = sim_floyd_warshall(64, 8, "counter", imbalance=imbalance, seed=1)
        saving = 1.0 - counter.makespan / barrier.makespan
        print(
            f"{imbalance:>9.1f}  {barrier.makespan:>9.1f}  "
            f"{counter.makespan:>9.1f}  {saving:>6.1%}"
        )
    print("\n(each thread proceeds the moment row k is staged, instead of")
    print(" waiting for every thread to finish iteration k — §4.4/§4.5)")


if __name__ == "__main__":
    figure1()
    one_counter_replaces_n_events()
    virtual_time_shapes()

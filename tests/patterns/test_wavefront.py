"""Dedicated tests for the 2-D wavefront pattern."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.patterns import wavefront_run


class TestValidation:
    def test_grid_bounds(self):
        with pytest.raises(ValueError):
            wavefront_run(0, 5, lambda i, j: None, num_threads=1)
        with pytest.raises(ValueError):
            wavefront_run(5, 0, lambda i, j: None, num_threads=1)

    def test_thread_and_block_bounds(self):
        with pytest.raises(ValueError):
            wavefront_run(3, 3, lambda i, j: None, num_threads=0)
        with pytest.raises(ValueError):
            wavefront_run(3, 3, lambda i, j: None, num_threads=1, col_block=0)


class TestCoverage:
    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 8), (8, 1), (5, 7)])
    @pytest.mark.parametrize("num_threads", [1, 3, 16])
    def test_every_cell_visited_exactly_once(self, rows, cols, num_threads):
        visits = np.zeros((rows, cols), dtype=int)
        lock = threading.Lock()

        def cell(i, j):
            with lock:
                visits[i, j] += 1

        wavefront_run(rows, cols, cell, num_threads=num_threads, col_block=2)
        assert (visits == 1).all()

    def test_col_block_larger_than_grid(self):
        visits = np.zeros((4, 4), dtype=int)
        lock = threading.Lock()

        def cell(i, j):
            with lock:
                visits[i, j] += 1

        wavefront_run(4, 4, cell, num_threads=2, col_block=100)
        assert (visits == 1).all()


class TestDependencyOrder:
    @pytest.mark.parametrize("col_block", [1, 3, 8])
    def test_dependencies_computed_first(self, col_block):
        """Record a global completion stamp per cell; every cell's up and
        left neighbours must carry earlier stamps."""
        rows, cols = 10, 12
        stamp = np.full((rows, cols), -1, dtype=int)
        tick = [0]
        lock = threading.Lock()

        def cell(i, j):
            if i > 0:
                assert stamp[i - 1, j] >= 0, f"({i},{j}) ran before ({i-1},{j})"
            if j > 0:
                assert stamp[i, j - 1] >= 0, f"({i},{j}) ran before ({i},{j-1})"
            with lock:
                stamp[i, j] = tick[0]
                tick[0] += 1

        wavefront_run(rows, cols, cell, num_threads=4, col_block=col_block)
        assert (stamp >= 0).all()

    def test_diagonal_parallelism_actually_happens(self):
        """With per-row threads and col_block=1, at least two threads are
        inside cell_fn simultaneously at some point (wavefront overlap),
        unlike a fully serialized schedule."""
        import time

        rows, cols = 4, 16
        inside = [0]
        peak = [0]
        lock = threading.Lock()

        def cell(i, j):
            with lock:
                inside[0] += 1
                peak[0] = max(peak[0], inside[0])
            time.sleep(0.001)
            with lock:
                inside[0] -= 1

        wavefront_run(rows, cols, cell, num_threads=rows, col_block=1)
        assert peak[0] >= 2, "no overlap observed: wavefront degenerated to serial"

    def test_dp_recurrence_end_to_end(self):
        """Compute a cumulative-sum DP over the wavefront; compare against
        the closed-form numpy result."""
        rows, cols = 9, 11
        values = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
        table = np.zeros((rows, cols), dtype=np.int64)

        def cell(i, j):
            up = table[i - 1, j] if i else 0
            left = table[i, j - 1] if j else 0
            diag = table[i - 1, j - 1] if i and j else 0
            table[i, j] = values[i, j] + up + left - diag

        wavefront_run(rows, cols, cell, num_threads=3, col_block=4)
        expected = values.cumsum(axis=0).cumsum(axis=1)
        assert np.array_equal(table, expected)


class TestSyncTile:
    @pytest.mark.parametrize("sync_tile", [1, 2, 3, 100])
    @pytest.mark.parametrize("num_threads", [1, 3, 5])
    def test_every_cell_visited_exactly_once(self, num_threads, sync_tile):
        rows, cols = 7, 13
        visits = np.zeros((rows, cols), dtype=int)
        lock = threading.Lock()

        def cell(i, j):
            with lock:
                visits[i, j] += 1

        wavefront_run(
            rows, cols, cell, num_threads=num_threads, col_block=2, sync_tile=sync_tile
        )
        assert (visits == 1).all()

    @pytest.mark.parametrize("sync_tile", [2, 4])
    def test_dependencies_still_respected(self, sync_tile):
        """Tiled synchronization coarsens the schedule but must never
        reorder it: up/left neighbours still complete first."""
        rows, cols = 8, 12
        done = np.zeros((rows, cols), dtype=bool)

        def cell(i, j):
            if i > 0:
                assert done[i - 1, j], f"({i},{j}) ran before ({i-1},{j})"
            if j > 0:
                assert done[i, j - 1], f"({i},{j}) ran before ({i},{j-1})"
            done[i, j] = True

        wavefront_run(rows, cols, cell, num_threads=4, col_block=1, sync_tile=sync_tile)
        assert done.all()

    def test_tiling_reduces_counter_traffic(self):
        """sync_tile=k must cut checks and increments by ~k: that is the
        batching the monotone levels make sound."""
        from tests.helpers import CallCountingCounter

        counts = {}
        for sync_tile in (1, 4):
            counters = []

            def factory(name, counters=counters):
                counter = CallCountingCounter(name=name)
                counters.append(counter)
                return counter

            wavefront_run(
                8,
                16,
                lambda i, j: None,
                num_threads=4,
                col_block=1,
                sync_tile=sync_tile,
                counter_factory=factory,
            )
            counts[sync_tile] = sum(c.increments for c in counters)
        assert counts[4] <= counts[1] / 2

    def test_validation(self):
        with pytest.raises(ValueError):
            wavefront_run(3, 3, lambda i, j: None, num_threads=1, sync_tile=0)

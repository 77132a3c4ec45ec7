"""Cross-module integration: patterns + apps + determinism + structured.

Each test wires at least three subsystems together the way a downstream
user would.
"""

from __future__ import annotations

import numpy as np

from repro.core import MonotonicCounter
from repro.determinism import DeterminismChecker, check_sequential_equivalence
from repro.patterns import ClosableBroadcast, OrderedRegion, SingleWriterBroadcast
from repro.structured import ThreadScope, multithreaded, multithreaded_for


class TestInstrumentedPatterns:
    def test_ordered_region_with_traced_counter(self):
        """OrderedRegion over a traced counter: checker certifies the
        §5.2 discipline end to end."""
        checker = DeterminismChecker()
        region = OrderedRegion(counter=checker.counter("order"))
        total = checker.shared(0.0, "total")

        def worker(i):
            with region.turn(i):
                total.modify(lambda v: v + float(i))

        multithreaded_for(worker, range(10))
        checker.assert_race_free()
        assert total.peek() == float(sum(range(10)))

    def test_broadcast_with_traced_counter(self):
        checker = DeterminismChecker()
        bc = SingleWriterBroadcast(16, counter=checker.counter("dataCount"))
        cells = [checker.shared(None, f"data[{i}]") for i in range(16)]

        def writer():
            for i in range(16):
                cells[i].write(i)
                bc.counter.increment(1)  # announce via the same counter

        def reader():
            out = []
            for i in range(16):
                bc.counter.check(i + 1)
                out.append(cells[i].read())
            assert out == list(range(16))

        multithreaded(writer, reader, reader)
        checker.assert_race_free()


class TestSequentialEquivalenceOfPatterns:
    def test_broadcast_pattern_sequentially_equivalent(self):
        """§6 grants sequential equivalence to the §5.3 program shape."""

        def program():
            bc = SingleWriterBroadcast(12)
            seen = []

            def writer():
                for i in range(12):
                    bc.publish(i * 3)

            def reader():
                seen.append(list(bc.read()))

            multithreaded(writer, reader, reader)
            return tuple(map(tuple, seen))

        verdict = check_sequential_equivalence(program, runs=5)
        assert verdict.equivalent

    def test_ordered_accumulation_sequentially_equivalent(self):
        from repro.apps.accumulate import (
            accumulate_counter,
            float_sum,
            ill_conditioned_terms,
        )

        terms = ill_conditioned_terms(12, seed=1)

        def program():
            return accumulate_counter(terms, float_sum, 0.0)

        verdict = check_sequential_equivalence(program, runs=5)
        assert verdict.equivalent

    def test_closable_broadcast_sequentially_equivalent(self):
        def program():
            stream = ClosableBroadcast()
            sums = []

            def writer():
                for i in range(20):
                    stream.publish(i)
                stream.close()

            def reader():
                sums.append(sum(stream.read()))

            multithreaded(writer, reader, reader, reader)
            return tuple(sums)

        verdict = check_sequential_equivalence(program, runs=5)
        assert verdict.equivalent
        assert verdict.sequential_result == (190, 190, 190)


class TestEndToEndApplications:
    def test_fw_heat_pipeline_composition(self):
        """Run Floyd-Warshall inside a scope alongside a heat simulation,
        with one counter coordinating their completion — the 'counters
        integrate with everything' claim exercised."""
        from repro.apps.floyd_warshall import (
            shortest_paths_counter,
            shortest_paths_reference,
        )
        from repro.apps.heat import heat_ragged, heat_sequential

        done = MonotonicCounter(name="jobs")
        edge = np.abs(np.random.default_rng(0).normal(5, 2, (24, 24)))
        np.fill_diagonal(edge, 0.0)
        rod = np.random.default_rng(1).uniform(0, 50, 18)
        results = {}

        def fw_job():
            results["fw"] = shortest_paths_counter(edge, 3)
            done.increment(1)

        def heat_job():
            results["heat"] = heat_ragged(rod, 40, num_threads=4)
            done.increment(1)

        def reporter():
            done.check(2, timeout=60)
            results["both_done_at"] = done.value

        with ThreadScope() as scope:
            scope.spawn(fw_job)
            scope.spawn(heat_job)
            scope.spawn(reporter)
        assert np.allclose(results["fw"], shortest_paths_reference(edge))
        assert np.allclose(results["heat"], heat_sequential(rod, 40))
        assert results["both_done_at"] >= 2

    def test_sim_model_agrees_with_real_implementation_structure(self):
        """The virtual-time FW model and the real counter FW must agree on
        sync-op counts (same protocol, different substrate)."""
        from repro.apps.sim_models import sim_floyd_warshall

        n, threads = 24, 4
        sim_result = sim_floyd_warshall(n, threads, "counter")
        sim_checks = sum(stats.sync_ops for stats in sim_result.tasks.values())

        from repro.apps.floyd_warshall import shortest_paths_counter
        from repro.apps.graphs import random_dense_graph
        from tests.helpers import CallCountingCounter

        counter = CallCountingCounter()
        shortest_paths_counter(random_dense_graph(n, seed=0), threads, counter=counter)
        real_checks = counter.checks + counter.increments
        # Same protocol: threads*n checks + (n-1) increments on each side.
        assert real_checks == threads * n + (n - 1)
        assert sim_checks == threads * n + (n - 1)

    def test_wavefront_with_injected_traced_counters(self):
        from repro.patterns import wavefront_run

        checker = DeterminismChecker()
        grid = np.zeros((12, 12), dtype=np.int64)

        def cell(i, j):
            up = grid[i - 1, j] if i else 0
            left = grid[i, j - 1] if j else 0
            grid[i, j] = max(up, left) + 1

        wavefront_run(
            12, 12, cell, num_threads=3, col_block=4,
            counter_factory=lambda name: checker.counter(name),
        )
        assert grid[11, 11] == 23  # longest monotone path: (rows-1)+(cols-1)+1
        checker.assert_race_free()

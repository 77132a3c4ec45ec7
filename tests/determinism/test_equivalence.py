"""Tests for determinacy-over-runs, sequential equivalence and sequential executability (§6)."""

from __future__ import annotations

import pytest

from repro.core import MonotonicCounter
from repro.determinism import (
    check_sequential_equivalence,
    collect_results,
    is_deterministic,
    scheduling_jitter,
    sequentially_executable,
)
from repro.structured import multithreaded


def ordered_counter_program():
    """The paper's deterministic program; fresh state per call."""
    c = MonotonicCounter()
    x = [0]

    def add_one():
        c.check(0)
        scheduling_jitter(0.0005)
        x[0] += 1
        c.increment(1)

    def double():
        c.check(1)
        scheduling_jitter(0.0005)
        x[0] *= 2
        c.increment(1)

    multithreaded(add_one, double)
    return x[0]


def lock_order_program():
    """Lock-style nondeterminism surrogate: first-come ordering."""
    import threading

    lock = threading.Lock()
    x = [0]

    def add_one():
        scheduling_jitter(0.002)
        with lock:
            x[0] += 1

    def double():
        scheduling_jitter(0.002)
        with lock:
            x[0] *= 2

    multithreaded(add_one, double)
    return x[0]


class TestDeterminacy:
    def test_counter_program_is_deterministic(self):
        assert is_deterministic(ordered_counter_program, runs=15)

    def test_counter_program_results_all_equal_two(self):
        assert set(collect_results(ordered_counter_program, runs=15)) == {2}

    def test_lock_program_can_produce_both_results(self):
        """Not asserted as *must* differ in any bounded sample (that would
        be flaky); instead: every observed result is one of the two legal
        lock outcomes, and over many runs we usually see both."""
        results = set(collect_results(lock_order_program, runs=40))
        assert results <= {1, 2}

    def test_collect_results_validates_runs(self):
        with pytest.raises(ValueError):
            collect_results(ordered_counter_program, runs=0)


class TestSequentialEquivalence:
    def test_counter_program_sequentially_equivalent(self):
        verdict = check_sequential_equivalence(ordered_counter_program, runs=10)
        assert verdict.equivalent
        assert verdict.sequential_result == 2
        assert verdict.distinct_threaded == 1

    def test_verdict_string(self):
        verdict = check_sequential_equivalence(ordered_counter_program, runs=3)
        assert "EQUIVALENT" in str(verdict)

    def test_non_equivalent_program_detected(self):
        """A program whose threaded result differs from sequential: thread
        order reversed relative to counter levels (sequential runs first
        statement first; threaded forces second-first via levels)."""

        def reversed_levels():
            c = MonotonicCounter()
            x = [0]

            def double():  # textually FIRST, but waits for level 1
                c.check(1)
                x[0] *= 2
                c.increment(1)

            def add_one():  # textually second, but runs first when threaded
                c.check(0)
                x[0] += 1
                c.increment(1)

            multithreaded(double, add_one)
            return x[0]

        # Sequential execution deadlocks -> the §6 precondition fails.  We
        # avoid the deadlock by checking threaded determinism only.
        assert is_deterministic(reversed_levels, runs=5)
        assert set(collect_results(reversed_levels, runs=5)) == {2}

    def test_floyd_warshall_is_deterministic_but_not_sequentially_executable(self):
        """§6 is precise about which programs get which guarantee: the
        counter FW program (§4.5) is *deterministic*, but its sequential
        execution deadlocks (thread 0's iteration 1 needs a row produced
        by thread 1), so the paper does NOT claim sequential equivalence
        for it — only for §5.2 and §5.3.  We verify both halves."""
        from repro.apps.floyd_warshall import figure1_edge, shortest_paths_counter
        from repro.core import CheckTimeout, MonotonicCounter
        from repro.structured import sequential_execution

        def program():
            return shortest_paths_counter(figure1_edge(), num_threads=3)

        # Half 1: threaded determinacy.
        assert is_deterministic(program, runs=5, key=lambda m: m.tobytes())

        # Half 2: sequential execution deadlocks.  A counter whose checks
        # time out turns the would-be infinite suspension into an error.
        class ImpatientCounter(MonotonicCounter):
            def check(self, level, timeout=None):  # noqa: D102
                super().check(level, timeout=0.05)

        from repro.structured import MultithreadedBlockError

        with sequential_execution():
            with pytest.raises(MultithreadedBlockError) as excinfo:
                shortest_paths_counter(
                    figure1_edge(), num_threads=3, counter=ImpatientCounter()
                )
        assert any(
            isinstance(e, CheckTimeout) for e in excinfo.value.exceptions
        )

    def test_jitter_bounds(self):
        # Smoke only: returns quickly and never raises for sane args.
        scheduling_jitter(0.0)
        scheduling_jitter(0.0001)


class TestSequentiallyExecutable:
    def test_section5_programs_are(self):
        from repro.apps.accumulate import accumulate_counter, float_sum

        assert sequentially_executable(
            lambda: accumulate_counter([1.0, 2.0, 3.0], float_sum, 0.0)
        )

    def test_broadcast_is(self):
        from repro.patterns import SingleWriterBroadcast
        from repro.structured import multithreaded

        def program():
            bc = SingleWriterBroadcast(5)

            def writer():
                for i in range(5):
                    bc.publish(i)

            def reader():
                return list(bc.read())

            multithreaded(writer, reader)

        assert sequentially_executable(program)

    def test_floyd_warshall_counter_version_is_not(self):
        """The §6 boundary case: deterministic but not sequentially
        executable (thread 0 needs a row thread 1 produces)."""
        from repro.apps.floyd_warshall import figure1_edge, shortest_paths_counter

        assert not sequentially_executable(
            lambda: shortest_paths_counter(figure1_edge(), num_threads=3),
            budget=0.5,
        )

    def test_failing_program_is_not(self):
        def program():
            raise ValueError("broken")

        assert not sequentially_executable(program)

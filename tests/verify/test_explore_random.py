"""Tests for random-schedule sampling (explore_random)."""

from __future__ import annotations

import pytest

from repro.verify import (
    counter_ordered_program,
    explore,
    explore_random,
    lock_program,
)


class TestExploreRandom:
    def test_finds_lock_nondeterminism(self):
        report = explore_random(lock_program, samples=200, seed=1)
        assert report.states == {1, 2}
        assert report.executions == 200
        assert report.truncated  # sampling never proves determinacy

    def test_single_state_for_ordered_program(self):
        report = explore_random(counter_ordered_program, samples=100, seed=2)
        assert report.states == {2}
        assert not report.deterministic  # honest: evidence, not proof

    def test_seeded_reproducibility(self):
        a = explore_random(lock_program, samples=50, seed=7)
        b = explore_random(lock_program, samples=50, seed=7)
        assert a.states == b.states
        assert a.deadlocks == b.deadlocks

    def test_counts_deadlocks(self):
        from repro.simthread import SimCounter
        from repro.verify import ExplorerProgram

        def factory():
            c = SimCounter()

            def stuck():
                yield c.check(5)

            return ExplorerProgram(tasks=[stuck()], observe=lambda: None)

        report = explore_random(factory, samples=10)
        assert report.deadlocks == 10

    def test_agrees_with_exhaustive_on_small_programs(self):
        exhaustive = explore(lock_program)
        sampled = explore_random(lock_program, samples=500, seed=3)
        assert sampled.states <= exhaustive.states
        # 500 samples of an 8-schedule space: both outcomes found w.h.p.
        assert sampled.states == exhaustive.states

    def test_unbounded_program_detected(self):
        from repro.simthread import Delay
        from repro.verify import ExplorerProgram

        def factory():
            def forever():
                while True:
                    yield Delay(0)

            return ExplorerProgram(tasks=[forever()], observe=lambda: 0)

        with pytest.raises(RuntimeError, match="max_steps"):
            explore_random(factory, samples=1, max_steps=50)

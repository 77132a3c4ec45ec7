"""Stress and failure-injection tests for the counter implementations."""

from __future__ import annotations

import random
import threading

import pytest

from repro.core import CheckTimeout, MonotonicCounter
from repro.obs import observe
from tests.helpers import join_all, series_of, spawn


class TestHeavyContention:
    def test_many_producers_many_level_consumers(self, counter):
        """8 producers x 500 increments, 8 consumers sweeping distinct
        level ladders: everything must release, value must be exact."""
        producers = 8
        per_producer = 500
        total = producers * per_producer
        finished = threading.Semaphore(0)

        def producer():
            for _ in range(per_producer):
                counter.increment(1)

        def consumer(stride):
            for level in range(stride, total + 1, stride):
                counter.check(level, timeout=60)
            finished.release()

        threads = [spawn(producer) for _ in range(producers)]
        threads += [spawn(consumer, stride) for stride in (1, 7, 13, 50, 99, 250, 499, 1000)]
        join_all(threads, timeout=90)
        for _ in range(8):
            assert finished.acquire(timeout=1)
        assert counter.value == total

    def test_randomized_mixed_workload_with_seed(self, counter_factory):
        """Seeded random mix of increments/checks across threads; checks
        always target levels the producers will reach, so the run must
        complete with the exact final value."""
        rng = random.Random(1234)
        counter = counter_factory()
        increments = [[rng.randint(0, 3) for _ in range(200)] for _ in range(4)]
        total = sum(map(sum, increments))

        def producer(chunks):
            for amount in chunks:
                counter.increment(amount)

        def checker():
            local = random.Random(99)
            for _ in range(50):
                counter.check(local.randint(0, total), timeout=60)

        threads = [spawn(producer, chunks) for chunks in increments]
        threads += [spawn(checker) for _ in range(4)]
        join_all(threads, timeout=90)
        assert counter.value == total


class TestTimeoutStorms:
    def test_interleaved_timeouts_and_successes(self, paper_counter):
        """Waves of timing-out checkers must not corrupt the wait list for
        the patient checkers that follow."""
        survivors = threading.Semaphore(0)

        def impatient():
            for _ in range(20):
                try:
                    paper_counter.check(10_000, timeout=0.001)
                except CheckTimeout:
                    pass

        def patient(level):
            paper_counter.check(level, timeout=60)
            survivors.release()

        threads = [spawn(impatient) for _ in range(4)]
        threads += [spawn(patient, level) for level in (5, 10, 15)]
        for _ in range(15):
            paper_counter.increment(1)
        for _ in range(3):
            assert survivors.acquire(timeout=30)
        join_all(threads, timeout=60)
        # After the storm: only reclaimable state may remain.
        snapshot = paper_counter.snapshot()
        assert all(node.level == 10_000 for node in snapshot.nodes) or not snapshot.nodes

    def test_timeout_churn_does_not_leak_nodes(self, paper_counter):
        with observe(trace=False) as h:
            for _ in range(100):
                with pytest.raises(CheckTimeout):
                    paper_counter.check(999, timeout=0)
        assert paper_counter.snapshot().nodes == ()
        assert series_of(h, paper_counter).timeouts == 100


class TestPhaseReuse:
    def test_reset_between_phases(self, counter):
        """The paper's Reset use case: reuse one counter across algorithm
        phases, with full quiescence between them."""
        for phase in range(5):
            releases = threading.Semaphore(0)
            threads = [
                spawn(lambda lv=level: (counter.check(lv, timeout=30), releases.release()))
                for level in (1, 2, 3)
            ]
            counter.increment(3)
            for _ in range(3):
                assert releases.acquire(timeout=30)
            join_all(threads)
            counter.reset()
            assert counter.value == 0

    def test_monotonic_value_observed_under_stress(self, counter):
        """Concurrent observers never see the value decrease."""
        observations: list[list[int]] = [[] for _ in range(3)]
        stop = threading.Event()

        def observer(slot):
            while not stop.is_set():
                observations[slot].append(counter.value)

        def producer():
            for _ in range(3000):
                counter.increment(1)
            stop.set()

        threads = [spawn(observer, i) for i in range(3)] + [spawn(producer)]
        join_all(threads, timeout=60)
        for series in observations:
            assert all(a <= b for a, b in zip(series, series[1:]))

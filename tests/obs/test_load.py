"""The open-loop load generator: determinism, CO-safety, recording."""

from __future__ import annotations

import math
import threading
import time

import pytest

import repro.obs as obs
from repro.obs.load import (
    LoadResult,
    RequestRecord,
    arrival_schedule,
    run_load,
    schedule_digest,
)


class AdmitAll:
    """A limiter stub that admits instantly (optionally after a delay)."""

    def __init__(self, delay: float = 0.0, admit=lambda key: True):
        self.delay = delay
        self.admit = admit
        self.calls = []
        self._lock = threading.Lock()

    def acquire(self, key, timeout=None, corr=None):
        with self._lock:
            self.calls.append((key, corr))
        if self.delay:
            time.sleep(self.delay)
        return self.admit(key)


class TestArrivalSchedule:
    @pytest.mark.parametrize("rate, kwargs", [
        pytest.param(0.0, {"count": 5}, id="rate-zero"),
        pytest.param(-1.0, {"count": 5}, id="rate-negative"),
        pytest.param(math.nan, {"duration": 1.0}, id="rate-nan"),
        pytest.param(math.inf, {"duration": 1.0}, id="rate-inf"),
        pytest.param(10.0, {"count": 0}, id="count-zero"),
        pytest.param(10.0, {"count": -3}, id="count-negative"),
        pytest.param(10.0, {"count": 2.5}, id="count-float"),
        pytest.param(10.0, {"count": True}, id="count-bool"),
        pytest.param(10.0, {"duration": 0.0}, id="duration-zero"),
        pytest.param(10.0, {"duration": math.nan}, id="duration-nan"),
        pytest.param(10.0, {"duration": math.inf}, id="duration-inf"),
    ])
    def test_rejects_invalid_inputs(self, rate, kwargs):
        # A non-finite rate or duration used to grow the schedule until
        # memory ran out, and a count below 1 still yielded one arrival.
        with pytest.raises(ValueError):
            arrival_schedule(rate, **kwargs)

    def test_exactly_one_of_count_and_duration(self):
        with pytest.raises(ValueError):
            arrival_schedule(10.0, count=5, duration=1.0)
        with pytest.raises(ValueError):
            arrival_schedule(10.0)

    def test_count_mode_yields_exactly_count_increasing_offsets(self):
        offsets = arrival_schedule(50.0, count=40, seed=3)
        assert len(offsets) == 40
        assert offsets == sorted(offsets)
        assert all(t > 0 for t in offsets)

    def test_duration_mode_stops_at_the_horizon(self):
        offsets = arrival_schedule(200.0, duration=0.5, seed=1)
        assert offsets and max(offsets) < 0.5

    def test_twenty_runs_are_byte_identical(self):
        # The determinacy contract the ISSUE names: the offered load is
        # a pure function of (rate, count, seed), hashed over the raw
        # IEEE-754 bytes — 20 regenerations, one digest.
        digests = {
            schedule_digest(arrival_schedule(123.0, count=200, seed=42))
            for _ in range(20)
        }
        assert len(digests) == 1

    def test_seed_and_rate_change_the_schedule(self):
        base = schedule_digest(arrival_schedule(100.0, count=50, seed=0))
        assert base != schedule_digest(arrival_schedule(100.0, count=50, seed=1))
        assert base != schedule_digest(arrival_schedule(90.0, count=50, seed=0))


class TestRecordsAndResult:
    def test_record_decomposition(self):
        r = RequestRecord(index=0, key="u", corr=None,
                          intended=10.0, start=10.4, end=11.0, ok=True)
        assert r.latency == pytest.approx(1.0)
        assert r.queue_s == pytest.approx(0.4)
        assert r.service_s == pytest.approx(0.6)

    def _result(self, latencies):
        records = [
            RequestRecord(index=i, key="u", corr=None, intended=0.0,
                          start=0.0, end=lat, ok=True)
            for i, lat in enumerate(latencies)
        ]
        return LoadResult(rate=10.0, seed=0, digest="d",
                          t0=0.0, t_end=max(latencies), records=records)

    def test_percentiles_are_exact_order_statistics(self):
        result = self._result([i / 100 for i in range(1, 101)])
        assert result.percentile(0.50) == pytest.approx(0.50)
        assert result.percentile(0.99) == pytest.approx(0.99)
        assert result.percentile(1.0) == pytest.approx(1.0)
        assert result.percentile(0.0) == pytest.approx(0.01)

    def test_percentile_validates_and_handles_empty(self):
        result = self._result([0.1])
        with pytest.raises(ValueError):
            result.percentile(1.5)
        empty = LoadResult(rate=1.0, seed=0, digest="d", t0=0.0, t_end=0.0)
        assert empty.percentile(0.99) == 0.0
        assert empty.admit_rate == 0.0

    def test_worst_returns_the_slowest_first(self):
        result = self._result([0.2, 0.9, 0.1, 0.5])
        assert [r.latency for r in result.worst(2)] == [0.9, 0.5]

    def test_summary_shape(self):
        summary = self._result([0.1, 0.2]).summary()
        for key in ("offered_rate", "achieved_rate", "requests", "admit_rate", "p50", "p99", "p999", "seed", "digest"):
            assert key in summary


class TestRunLoad:
    def test_validates_workers_and_keys(self):
        target = AdmitAll()
        with pytest.raises(ValueError):
            run_load(target, rate=10.0, count=1, workers=0)
        with pytest.raises(ValueError):
            run_load(target, rate=10.0, count=1, keys=())

    def test_open_loop_records_every_arrival(self):
        target = AdmitAll()
        result = run_load(target, rate=500.0, count=30, seed=7,
                          keys=("a", "b"), workers=3)
        assert len(result.records) == 30
        assert result.digest == schedule_digest(
            arrival_schedule(500.0, count=30, seed=7)
        )
        assert {key for key, _ in target.calls} == {"a", "b"}
        assert all(r.queue_s >= 0 for r in result.records)
        assert result.admit_rate == 1.0

    def test_open_loop_charges_queue_delay_to_latency(self):
        # One worker, a slow target, arrivals faster than service: the
        # queueing a closed-loop generator would hide must appear in
        # the open-loop latencies (the coordinated-omission point).
        target = AdmitAll(delay=0.02)
        result = run_load(target, rate=400.0, count=12, workers=1)
        assert max(r.queue_s for r in result.records) > 0.01
        worst = result.worst(1)[0]
        assert worst.latency >= worst.queue_s

    def test_acquire_exception_propagates_after_the_run(self):
        # A broken target must fail the run, not vanish into a worker:
        # every other request still executes, then the error surfaces.
        def admit(key):
            if key == "b":
                raise RuntimeError("target bug")
            return True

        target = AdmitAll(admit=admit)
        with pytest.raises(RuntimeError, match="target bug"):
            run_load(target, rate=500.0, count=6, keys=("a", "b"))
        assert len(target.calls) == 6

    def test_rejections_recorded_not_raised(self):
        target = AdmitAll(admit=lambda key: key == "a")
        result = run_load(target, rate=500.0, count=20, keys=("a", "b"))
        assert 0.0 < result.admit_rate < 1.0
        assert all(r.ok == (r.key == "a") for r in result.records)

    def test_observers_see_every_record_and_may_raise(self):
        seen = []

        def bad_observer(record):
            raise RuntimeError("observer bug")

        result = run_load(AdmitAll(), rate=500.0, count=15,
                          observers=(seen.append, bad_observer))
        assert len(seen) == len(result.records) == 15

    def test_disabled_obs_stamps_no_corr(self):
        obs.disable()
        result = run_load(AdmitAll(), rate=500.0, count=5)
        assert all(r.corr is None for r in result.records)

    def test_enabled_obs_emits_req_events_with_corr(self):
        handle = obs.enable()
        try:
            target = AdmitAll(admit=lambda key: False)
            result = run_load(target, rate=500.0, count=4)
        finally:
            events = handle.trace.snapshot()
            obs.disable()
        corrs = {r.corr for r in result.records}
        assert None not in corrs and len(corrs) == 4
        starts = [e for e in events if e.kind == "req_start"]
        dones = [e for e in events if e.kind == "req_done"]
        assert {e.corr for e in starts} == corrs
        assert {e.corr for e in dones} == corrs
        assert all(e.value == 0 for e in dones)  # every request rejected
        # The limiter stub saw the same tokens it can ride on frames.
        assert {c for _, c in target.calls} == corrs

"""Quota workloads: an open loop of seeded admits through ``RateLimiter``.

``quota_local``
    In-process ``RateLimiter.try_acquire`` (``LocalBackend``) over a key
    space eight times ``max_keys``, so about a fifth of the calls evict.
``quota_wire``
    The same traffic shape over ``ServiceBackend``: admission state lives
    in a ``CounterService`` child running ``serve_rolls``; the working set
    fits in ``max_keys``, so nothing is evicted.

The limiter's ``clock=`` returns each request's intended send time, so
on ``quota_local`` every decision is a pure function of the seed.
"""

from __future__ import annotations

import hashlib
import json
import time
from array import array
from bisect import bisect_left
from collections import deque

import measure
from gen import Schedule, poisson_zipf
from procs import Child

RATE = 4000.0        # offered admits per second
EXPONENT = 1.1       # Zipf exponent of key popularity
LIMIT = 10           # admits per key per window
WINDOW_S = 1.0
LOCAL_KEYS = 8192    # quota_local key space ...
MAX_KEYS = 1024      # ... against this LRU bound: ~19% of calls evict
WIRE_KEYS = 1024     # quota_wire key space: fits the LRU bound
WARMUP_S = 2.0       # fills the LRU and the first window; not measured
SLICE_S = 0.5        # slice length: the reference loop is sampled between
                     # slices, and traced runs rotate plain / traced / obs
NAME = "pb"


def make_inputs(workload: str, seed: int, seconds: float) -> Schedule:
    nkeys = LOCAL_KEYS if workload == "quota_local" else WIRE_KEYS
    return poisson_zipf(seed, rate=RATE, duration=WARMUP_S + seconds,
                        nkeys=nkeys, exponent=EXPONENT)


class _TimedCounter:
    """A ``retired`` counter whose ``increment`` (a roll) is timed."""

    __slots__ = ("_inner", "_tb")

    def __init__(self, inner, tb: "TracingBackend") -> None:
        self._inner = inner
        self._tb = tb

    def increment(self, amount: int = 1):
        tb = self._tb
        if not tb.on:
            return self._inner.increment(amount)
        t0 = time.perf_counter()
        result = self._inner.increment(amount)
        t1 = time.perf_counter()
        tb.retire.add(tb.req, t0, t1 - t0)
        tb.span_s += t1 - t0
        tb.calls += 1
        return result

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class TracingBackend:
    """Wraps the limiter's backend (the public ``backend=``) to time calls.

    In plain slices the backend methods are the inner backend's own bound
    methods, so only rolls pay for the wrapper.
    """

    def __init__(self, inner, cap: int, wire: bool) -> None:
        self.inner = inner
        self.rolls = inner.rolls
        self.wire = wire
        self.on = False
        self.req = 0
        self.span_s = 0.0
        self.calls = 0
        self.bump_spans = measure.Spans(cap)
        self.value_spans = measure.Spans(2 * cap)   # admitted reads (shard drains)
        self.read_spans = measure.Spans(2 * cap)    # retired reads
        self.retire = measure.Spans(cap)
        self.unacked = array("d", bytes(8 * cap))
        self.n_unacked = 0
        self.set_on(False)

    def set_on(self, on: bool) -> None:
        self.on = on
        inner = self.inner
        if on:
            self.bump = self._bump
            self.admitted_value = self._admitted_value
            self.retired_value = self._retired_value
        else:
            self.bump = inner.bump
            self.admitted_value = inner.admitted_value
            self.retired_value = inner.retired_value

    def admitted(self, name: str):
        return self.inner.admitted(name)

    def retired(self, name: str):
        return _TimedCounter(self.inner.retired(name), self)

    def close(self, counter) -> None:
        self.inner.close(counter._inner if isinstance(counter, _TimedCounter)
                         else counter)

    def _bump(self, counter, corr) -> None:
        t0 = time.perf_counter()
        self.inner.bump(counter, corr)
        t1 = time.perf_counter()
        self.bump_spans.add(self.req, t0, t1 - t0)
        self.span_s += t1 - t0
        self.calls += 1

    def _admitted_value(self, counter) -> int:
        t0 = time.perf_counter()
        value = self.inner.admitted_value(counter)
        t1 = time.perf_counter()
        self.value_spans.add(self.req, t0, t1 - t0)
        self.span_s += t1 - t0
        self.calls += 1
        if self.wire and self.n_unacked < len(self.unacked):
            snap = counter.dist_snapshot()
            self.unacked[self.n_unacked] = snap["contribution"] - snap["published"]
            self.n_unacked += 1
        return value

    def _retired_value(self, counter) -> int:
        t0 = time.perf_counter()
        value = self.inner.retired_value(counter)
        t1 = time.perf_counter()
        self.read_spans.add(self.req, t0, t1 - t0)
        self.span_s += t1 - t0
        self.calls += 1
        return value


def oracle(sched: Schedule, ok: array) -> tuple[int, int]:
    """(over-admits, oracle maximum) by exact per-key sliding windows.

    A window is ``(t - WINDOW_S, t]``, the limiter's own convention.  The
    maximum is the greedy replay (admit whenever the key's window has
    room), which is optimal for equal-length windows.
    """
    admitted: dict[int, deque] = {}
    allowed: dict[int, deque] = {}
    over = best = 0
    times, keys = sched.times, sched.keys
    for i in range(len(times)):
        t, k = times[i], keys[i]
        horizon = t - WINDOW_S
        q = allowed.get(k)
        if q is None:
            q = allowed[k] = deque()
        while q and q[0] <= horizon:
            q.popleft()
        if len(q) < LIMIT:
            q.append(t)
            best += 1
        if ok[i]:
            a = admitted.get(k)
            if a is None:
                a = admitted[k] = deque()
            while a and a[0] <= horizon:
                a.popleft()
            a.append(t)
            if len(a) > LIMIT:
                over += 1
    return over, best


def decision_digest(ok: array) -> str:
    return hashlib.sha256(ok.tobytes()).hexdigest()


class QuotaRun:
    """Set up once (timed as ``setup_s``), then drive the schedule."""

    def __init__(self, workload: str, sched: Schedule, trace: bool) -> None:
        from repro.apps.ratelimit import LocalBackend, RateLimiter, ServiceBackend

        self.workload = workload
        self.sched = sched
        self.trace = trace
        self.wire = workload == "quota_wire"
        self.names = [f"k{i}" for i in range(sched.nkeys)]
        self.child = None
        self.endpoint = None
        if self.wire:
            from repro.dist import open_threadside

            self.child = Child("serve", str(sched.nkeys), str(LIMIT),
                               repr(WINDOW_S), NAME)
            try:
                port = int(self.child.readline().split()[1])
                self.endpoint = open_threadside("127.0.0.1", port)
            except BaseException:
                self.child.stop()
                raise
            backend = ServiceBackend(self.endpoint)
        else:
            backend = LocalBackend()
        self.tb = None
        if trace:
            backend = self.tb = TracingBackend(backend, len(sched), self.wire)
        self.box = [0.0]
        box = self.box
        self.limiter = RateLimiter(
            LIMIT, WINDOW_S, name=NAME, backend=backend,
            max_keys=MAX_KEYS, clock=lambda: box[0],
        )

    # ------------------------------------------------------------ loops

    def _plain(self, lo: int, hi: int, t0: float) -> float:
        """Drive requests [lo, hi); returns the CPU seconds spent in calls."""
        times, keys, names = self.sched.times, self.sched.keys, self.names
        acquire = self.limiter.try_acquire
        box, ok, lat, lag = self.box, self.ok, self.lat, self.lag
        pc, sleep, cpu = time.perf_counter, time.sleep, time.thread_time
        busy = 0.0
        for i in range(lo, hi):
            due = t0 + times[i]
            now = pc()
            if now < due:
                sleep(due - now)
            box[0] = times[i]
            c0 = cpu()
            now = pc()
            ok[i] = acquire(names[keys[i]])
            end = pc()
            busy += cpu() - c0
            lat[i] = end - now
            lag[i] = now - due
        return busy

    def _traced(self, lo: int, hi: int, t0: float) -> None:
        times, keys, names = self.sched.times, self.sched.keys, self.names
        limiter, tb = self.limiter, self.tb
        acquire = limiter.try_acquire
        box, ok, lat, lag = self.box, self.ok, self.lat, self.lag
        call, own, evict = self.call, self.own, self.evict
        pc, sleep = time.perf_counter, time.sleep
        for i in range(lo, hi):
            due = t0 + times[i]
            now = pc()
            if now < due:
                sleep(due - now)
                now = pc()
            box[0] = times[i]
            tb.req = i
            evictions = limiter.evictions
            span0 = tb.span_s
            start = pc()
            ok[i] = acquire(names[keys[i]])
            end = pc()
            lag[i] = now - due
            lat[i] = end - now
            call[i] = end - start
            own[i] = end - start - (tb.span_s - span0)
            evict[i] = limiter.evictions != evictions

    # -------------------------------------------------------------- run

    def planned(self) -> int:
        """Operations the run sends: the whole schedule (an open loop)."""
        return len(self.sched)

    def _alloc(self) -> None:
        """Per-request records, preallocated: the loops allocate nothing."""
        n = len(self.sched)
        self.ok = array("b", bytes(n))
        self.lat = array("d", bytes(8 * n))
        self.lag = array("d", bytes(8 * n))
        self.mode = array("b", bytes(n))   # 0 plain, 1 traced, 2 obs
        if self.trace:
            self.call = array("d", bytes(8 * n))
            self.own = array("d", bytes(8 * n))
            self.evict = array("b", bytes(n))

    def run(self, seconds: float) -> dict:
        from repro import obs

        sched = self.sched
        n = len(sched)
        self._alloc()
        first = bisect_left(sched.times, WARMUP_S)
        child_pid = self.child.pid if self.child else None
        host = measure.HostRecord()
        obs_events = obs_dropped = obs_ops = 0

        t0 = self.t0 = time.perf_counter() + 0.01
        self._plain(0, first, t0)
        frames0 = self.endpoint.client.frames_out if self.wire else 0
        cpu0, main0 = time.process_time(), time.thread_time()
        child0 = measure.proc_cpu(child_pid) if child_pid else 0.0
        wall0 = time.perf_counter()
        host.start()
        busy = 0.0   # CPU inside plain-slice calls
        lo = first
        slot = 0
        while lo < n:
            host.sample_ref()
            hi = bisect_left(sched.times, sched.times[lo] + SLICE_S, lo)
            mode = slot % 3 if self.trace else 0
            self.mode[lo:hi] = array("b", [mode]) * (hi - lo)
            if mode == 1:
                self.tb.set_on(True)
                self._traced(lo, hi, t0)
                self.tb.set_on(False)
            elif mode == 2:
                handle = obs.enable()
                self._plain(lo, hi, t0)
                obs.disable()
                obs_events += handle.trace.emitted
                obs_dropped += handle.trace.dropped
                obs_ops += hi - lo
            else:
                busy += self._plain(lo, hi, t0)
            lo = hi
            slot += 1
        wall1 = time.perf_counter()
        host.stop()
        # Program CPU: the generator thread's time inside calls, plus every
        # other thread (the wire client's loop) and the child.
        others = (time.process_time() - cpu0) - (time.thread_time() - main0)
        child_cpu = measure.proc_cpu(child_pid) - child0 if child_pid else 0.0
        frames = (self.endpoint.client.frames_out - frames0) if self.wire else 0

        over, best = oracle(sched, self.ok)
        admits = sum(self.ok)
        if self.wire:
            # ServiceBackend documents a bounded overshoot (decisions read
            # a contribution the loop thread may not have applied yet), so
            # window excess is reported, not failed; the check is that the
            # service saw every admit.
            failed = self._check_service_totals(admits)
        else:
            failed = over
        rss = measure.self_peak_rss_mb()
        if child_pid:
            rss += measure.proc_peak_rss_mb(child_pid)

        measured = range(first, n)
        plain = [i for i in measured if self.mode[i] == 0]
        lat_plain = [self.lat[i] for i in plain]
        measured_admits = sum(self.ok[first:])
        res = {
            "attempted": n,
            "failed": failed,
            "lat": lat_plain,
            "ops": n - first,
            "wall_s": wall1 - wall0,
            "cpu_s": busy + others + child_cpu,
            "quota_use": admits / best,
            "peak_rss_mb": rss,
            "host": host,
            "digest": decision_digest(self.ok),
            "notes": {"admit_share": admits / n, "over_admits": over,
                      "oracle_max": best},
        }
        if self.trace:
            res["layers"] = self._layers(first, n, obs_events, obs_dropped,
                                         obs_ops, child_cpu, frames,
                                         measured_admits, lat_plain, over)
        return res

    def _check_service_totals(self, admits: int) -> int:
        """Flush, then compare the service's ``admitted`` sum with ours."""
        flusher = self.endpoint.counter(f"{NAME}:flush")
        flusher.flush()
        self.child.send("totals")
        served = json.loads(self.child.readline())["admitted"]
        return abs(served - admits)

    def _layers(self, first, n, obs_events, obs_dropped, obs_ops, child_cpu,
                frames, measured_admits, lat_plain, over) -> dict:
        tb = self.tb
        traced = [i for i in range(first, n) if self.mode[i] == 1]
        lat_t = [self.lat[i] for i in traced]
        lag = [self.lag[i] for i in range(first, n)]
        due_lat = [self.lag[i] + self.lat[i] for i in range(first, n)
                   if self.mode[i] == 0]
        call = [self.call[i] for i in traced]
        own = [self.own[i] for i in traced]
        evicting = [self.call[i] for i in traced if self.evict[i]]
        admits_t = sum(self.ok[i] for i in traced)
        obs_idx = [i for i in range(first, n) if self.mode[i] == 2]
        lat_obs = [self.lat[i] for i in obs_idx]
        sum_lat = sum(lat_t)
        # Latency not inside any span: the harness's own stamps between
        # the send and the call.
        unexplained = sum(self.lat[i] - self.call[i] for i in traced)
        bump = tb.bump_spans.durations()
        value = tb.value_spans.durations()
        snap = self.limiter.snapshot()
        us = 1e6
        layers = {
            "load.lag_p50_us": measure.pct(lag, 0.5) * us,
            "load.lag_p90_us": measure.pct(lag, 0.9) * us,
            "load.due_lat_p50_us": measure.pct(due_lat, 0.5) * us,
            "load.due_lat_p90_us": measure.pct(due_lat, 0.9) * us,
            "ratelimit.call_us_p50": measure.pct(call, 0.5) * us,
            "ratelimit.call_us_p90": measure.pct(call, 0.9) * us,
            "ratelimit.self_us_p50": measure.pct(own, 0.5) * us,
            "ratelimit.evict_share": len(evicting) / max(1, len(traced)),
            "ratelimit.evict_call_us_p50": measure.pct(evicting, 0.5) * us,
            "ratelimit.reject_share": 1 - admits_t / max(1, len(traced)),
            "ratelimit.marks_per_key": (sum(e["marks"] for e in snap.values())
                                        / max(1, len(snap))),
            "ratelimit.live_keys": len(self.limiter.keys()),
            "ratelimit.window_excess": over,
            "counter.calls_per_admit": tb.calls / max(1, admits_t),
            "trace.unexplained_share": unexplained / sum_lat if sum_lat else 0.0,
            "trace.overhead_p50": (measure.pct(lat_t, 0.5)
                                   / measure.pct(lat_plain, 0.5)),
            "obs.enabled_tax": (measure.pct(lat_obs, 0.5)
                                / measure.pct(lat_plain, 0.5)),
            "obs.events_per_op": obs_events / max(1, obs_ops),
            "obs.dropped": obs_dropped,
        }
        if self.wire:
            layers.update({
                "wire.hop_us_p50": measure.pct(bump, 0.5) * us,
                "wire.frames_per_admit": frames / max(1, measured_admits),
                "wire.server_cpu_us_per_admit": child_cpu * us / max(1, measured_admits),
                "wire.unacked_admits_p90": measure.pct(
                    tb.unacked[:tb.n_unacked], 0.9),
            })
        else:
            layers.update({
                "sharded.bump_us_p50": measure.pct(bump, 0.5) * us,
                "sharded.value_us_p50": measure.pct(value, 0.5) * us,
                "counter.retire_us_p50": measure.pct(tb.retire.durations(), 0.5) * us,
            })
        layer, reads = ("wire", "wire") if self.wire else ("sharded", "counter")
        calls = measure.Spans(len(traced))
        for i in traced:
            calls.add(i, self.t0 + self.sched.times[i] + self.lag[i], self.call[i])
        total = sum(lat_t) or 1.0
        self.self_share = {
            "ratelimit (self)": sum(own) / total,
            f"{layer}.increment": sum(bump) / total,
            f"{layer}.admitted_value": sum(value) / total,
            f"{reads}.retired_value": sum(tb.read_spans.durations()) / total,
            "unexplained": unexplained / total,
        }
        if not self.wire:
            self.self_share["counter.retire"] = sum(tb.retire.durations()) / total
        self.spans = {"ratelimit.try_acquire": calls,
                      f"{layer}.increment": tb.bump_spans,
                      f"{layer}.admitted_value": tb.value_spans,
                      f"{reads}.retired_value": tb.read_spans,
                      "counter.retire": tb.retire}
        return layers

    def close(self) -> None:
        try:
            self.limiter.close()
            if self.endpoint is not None:
                self.endpoint.close()
        finally:
            if self.child is not None:
                self.child.stop()

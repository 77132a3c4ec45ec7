"""Open-loop load generation with coordinated-omission-safe recording.

The measurement half of the tail-attribution pipeline: drive a target
(normally a :class:`repro.apps.ratelimit.RateLimiter`) with a seeded
Poisson arrival process and record per-request latency **from the
intended send time**, not from when the generator got around to
sending.  Arrivals come from a schedule fixed before the run
(:func:`arrival_schedule`); a slow response does not delay the requests
behind it, it *queues* them, and their latency includes the queueing.
A closed-loop generator, which sends the next request only when the
previous one returns, would coordinate with the system under test and
silently omit exactly the latencies a stall produces.

Every request draws a schema-v3 ``corr`` token and emits ``req_start``
(``wait_s`` = queue delay) and ``req_done`` (``wait_s`` = total latency
from intended time, ``value`` = admitted) when tracing is enabled — the
token also rides the limiter's counter traffic (increment riders, sub
frames), so a tail request's whole causal story is recoverable from the
merged trace (:mod:`repro.obs.slo`).  With observability disabled the
generator stamps no tokens and emits nothing.

Determinism: the schedule is a pure function of ``(rate, count or
duration, seed)`` — :func:`schedule_digest` hashes the packed doubles,
and the testsuite replays 20 runs byte-identical.  Execution timing is
of course not deterministic; the *offered load* is.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.obs import hooks as _obs

__all__ = [
    "arrival_schedule",
    "schedule_digest",
    "RequestRecord",
    "LoadResult",
    "run_load",
]


def arrival_schedule(rate: float, *, count: int | None = None,
                     duration: float | None = None,
                     seed: int = 0) -> list[float]:
    """Poisson arrival offsets (seconds from run start), seeded.

    Inter-arrival gaps are ``Random(seed).expovariate(rate)``; pass
    ``count`` for exactly that many arrivals or ``duration`` to stop at
    the first arrival past it (exactly one of the two).  The same
    arguments always produce the same floats — the determinism the
    replay test pins.
    """
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"rate must be finite and positive, got {rate!r}")
    if (count is None) == (duration is None):
        raise ValueError("exactly one of count/duration is required")
    if count is not None and (
        not isinstance(count, int) or isinstance(count, bool) or count < 1
    ):
        raise ValueError(f"count must be an int >= 1, got {count!r}")
    if duration is not None and not (math.isfinite(duration) and duration > 0):
        raise ValueError(
            f"duration must be finite and positive, got {duration!r}"
        )
    rng = random.Random(seed)
    offsets: list[float] = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if duration is not None and t >= duration:
            break
        offsets.append(t)
        if count is not None and len(offsets) >= count:
            break
    return offsets


def schedule_digest(offsets: Sequence[float]) -> str:
    """SHA-256 over the schedule's IEEE-754 bytes: byte-identity check."""
    return hashlib.sha256(
        struct.pack(f"<{len(offsets)}d", *offsets)
    ).hexdigest()


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """One request's timing, stamped from intended send time."""

    index: int                #: position in the arrival schedule
    key: str                  #: the quota key this request hit
    corr: str | None          #: its schema-v3 token (None with obs off)
    intended: float           #: when the schedule said to send
    start: float              #: when a worker actually began
    end: float                #: when the target returned
    ok: bool                  #: admitted (False: rejected or timed out)

    @property
    def latency(self) -> float:
        """End-to-end latency from *intended* time (CO-safe)."""
        return self.end - self.intended

    @property
    def queue_s(self) -> float:
        """Generator-side queue delay (intended → actually started)."""
        return self.start - self.intended

    @property
    def service_s(self) -> float:
        """Time inside the target (started → returned)."""
        return self.end - self.start


@dataclass(slots=True)
class LoadResult:
    """A finished run: every record plus the derived rates/percentiles."""

    rate: float               #: offered rate (arrivals/s of the schedule)
    seed: int
    digest: str               #: the schedule's :func:`schedule_digest`
    t0: float                 #: run start (time.monotonic)
    t_end: float              #: last request completion
    records: list[RequestRecord] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return max(self.t_end - self.t0, 0.0)

    @property
    def achieved_rate(self) -> float:
        """Completions per second — diverges from offered at the knee."""
        return len(self.records) / self.duration if self.duration else 0.0

    @property
    def admit_rate(self) -> float:
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.ok) / len(self.records)

    def latencies(self) -> list[float]:
        return sorted(r.latency for r in self.records)

    def percentile(self, q: float) -> float:
        """Exact order-statistic percentile over recorded latencies."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        lats = self.latencies()
        if not lats:
            return 0.0
        return lats[min(len(lats) - 1, max(0, math.ceil(q * len(lats)) - 1))]

    def worst(self, k: int = 3) -> list[RequestRecord]:
        """The ``k`` slowest requests — the tail exemplar candidates."""
        return sorted(self.records, key=lambda r: r.latency, reverse=True)[:k]

    def summary(self) -> dict:
        return {
            "offered_rate": self.rate,
            "achieved_rate": round(self.achieved_rate, 3),
            "requests": len(self.records),
            "admit_rate": round(self.admit_rate, 4),
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
            "p999": self.percentile(0.999),
            "seed": self.seed,
            "digest": self.digest,
        }


def run_load(limiter, *, rate: float, count: int | None = None,
             duration: float | None = None, seed: int = 0,
             keys: Sequence[str] = ("user0",), workers: int = 4,
             timeout: float | None = None,
             observers: Iterable[Callable[[RequestRecord], None]] = (),
             ) -> LoadResult:
    """Drive ``limiter.acquire`` open loop with a seeded schedule.

    ``limiter`` needs ``acquire(key, timeout=..., corr=...) -> bool`` —
    the rate limiter's blocking surface.  Keys round-robin over
    ``keys``.  ``observers`` are called with each finished
    :class:`RequestRecord` from the worker threads (the live feed an
    :class:`~repro.obs.slo.SloTracker` consumes); they must be cheap,
    and one that raises is ignored.

    The calling thread submits each request to a pool of ``workers``
    threads at its scheduled instant, never skipping: when every worker
    is busy, requests queue and their queue delay is part of their
    latency.  An exception raised by ``acquire`` propagates from here
    once the run has drained.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    if not keys:
        raise ValueError("at least one key is required")
    offsets = arrival_schedule(rate, count=count, duration=duration, seed=seed)
    digest = schedule_digest(offsets)
    observers = tuple(observers)

    def execute(index: int, key: str, intended: float) -> RequestRecord:
        obs_on = _obs.enabled
        corr = _obs.next_corr() if obs_on else None
        start = time.monotonic()
        if obs_on:
            _obs.on_dist("load", "req_start", corr=corr,
                         wait_s=start - intended)
        ok = limiter.acquire(key, timeout=timeout, corr=corr)
        end = time.monotonic()
        if obs_on and _obs.enabled:
            _obs.on_dist("load", "req_done", corr=corr, wait_s=end - intended,
                         value=1 if ok else 0)
        record = RequestRecord(index=index, key=key, corr=corr,
                               intended=intended, start=start, end=end, ok=ok)
        for observer in observers:
            try:
                observer(record)
            except Exception:
                pass  # an observer must never kill a worker
        return record

    t0 = time.monotonic()
    with ThreadPoolExecutor(workers, thread_name_prefix="repro-load") as pool:
        futures = []
        for index, offset in enumerate(offsets):
            intended = t0 + offset
            delay = intended - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            futures.append(pool.submit(
                execute, index, keys[index % len(keys)], intended))
    records = [future.result() for future in futures]
    t_end = max((r.end for r in records), default=t0)
    return LoadResult(rate=rate, seed=seed, digest=digest,
                      t0=t0, t_end=t_end, records=records)

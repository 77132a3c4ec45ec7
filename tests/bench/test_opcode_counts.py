"""Exact cost gates: executed-bytecode counts on the hot paths.

The timing gates (``immediate_check``, ``ratelimit_admit``, 2% same-runner
tolerance) cannot be decided on a shared host whose speed swings ~2x
between runs.  An opcode count can: ``sys.settrace`` with
``f_trace_opcodes`` sees every bytecode the interpreter executes, the
same way on every run, so one extra attribute test on a fast path moves
the count by two or three and fails here.

What the count cannot see: work inside C (a lock acquire, a deque
append, ``struct`` packing, an ``os.write``) is one ``CALL`` however long
it takes.  So a count is a floor on the Python-level work, not a timing.

The counts are pinned for CPython 3.11 (a CI tier-1 leg); other versions
compile to different bytecode, so the test skips there.  A count may go
down freely; raising one needs a CHANGES.md line saying why.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import random
import sys

import pytest

from repro.apps.ratelimit import RateLimiter
from repro.core import MonotonicCounter
from repro.core import syncpoints as _sp
from repro.dist import ShmCounter
from repro.dist.client import AsyncCounterClient
from repro.obs import hooks as _obs
from repro.obs import registry

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="opcode counts are pinned for CPython 3.11 bytecode",
)


def count_opcodes(fn, *args) -> int:
    """Bytecodes executed by ``fn(*args)``, its callees included.

    The calling frame is not traced, so only ``fn``'s own frame and
    everything below it count.  The cyclic collector is off while
    counting: a collection could run unrelated finalizers mid-call.
    """
    executed = 0

    def local(frame, event, arg):
        nonlocal executed
        if event == "opcode":
            executed += 1
        return local

    def enter(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    was_enabled = gc.isenabled()
    gc.disable()
    sys.settrace(enter)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
        if was_enabled:
            gc.enable()
    return executed


@pytest.fixture(autouse=True)
def fresh_registry(monkeypatch):
    """Seams off and an empty counter registry; returns a re-emptier.

    Registration prunes dead refs when the map doubles, so the prunes
    land on the same calls only if every count starts from the same map.
    """
    assert not _sp.enabled and not _obs.enabled, "a seam leaked on"

    def empty() -> None:
        monkeypatch.setattr(registry, "_refs", {})
        monkeypatch.setattr(registry, "_prune_at", registry._PRUNE_MIN)

    empty()
    return empty


def test_value_read():
    counter = MonotonicCounter()
    counter.increment(3)
    assert count_opcodes(MonotonicCounter.value.fget, counter) == 3


def test_check_fast_path():
    counter = MonotonicCounter()
    counter.increment(3)
    assert count_opcodes(counter.check, 2) == 23


def test_increment_without_waiters():
    counter = MonotonicCounter()
    assert count_opcodes(counter.increment, 1) == 55


def test_constructor():
    assert count_opcodes(MonotonicCounter) == 108


# The two hot paths of the ``dist_obs_disabled`` timing gate.  The shm
# scan is set up as ``repro.bench.dist_ops._measure_shm_scan`` sets it
# up; its sum over the slots is C work, one ``CALL`` here.


def test_shm_check_on_a_satisfied_level():
    with ShmCounter.publish(slots=16) as counter:
        counter.increment(1000)
        assert count_opcodes(counter.check, 1000) == 23


def test_pooled_client_increment():
    """Pooling touches no writer, so a client without a connection pins
    it: the first increment of a window sets the flusher's event, later
    ones find it set."""
    client = AsyncCounterClient(None, None, source="pin")
    assert count_opcodes(client.increment, "c") == 76
    assert count_opcodes(client.increment, "c") == 69


# The ``quota_local`` traffic shape (perfbench), replayed on a virtual
# clock so every decision, and so every path taken, is a function of the
# seed: Poisson arrivals at 4000/s, Zipf(1.1) keys over eight times
# ``max_keys``, so about a fifth of the calls evict.
RATE, KEYS, MAX_KEYS, WARMUP_S, MEASURED = 4000.0, 8192, 1024, 2.0, 400


def _replay_counts(seed: int) -> dict[str, list[int]]:
    rng = random.Random(seed)
    cum = list(itertools.accumulate(
        1.0 / (rank ** 1.1) for rank in range(1, KEYS + 1)))
    now = [0.0]
    limiter = RateLimiter(10, 1.0, max_keys=MAX_KEYS, clock=lambda: now[0])
    counts: dict[str, list[int]] = {"hit": [], "evict": []}
    t = 0.0
    while len(counts["hit"]) + len(counts["evict"]) < MEASURED:
        t += rng.expovariate(RATE)
        now[0] = t
        key = f"k{bisect.bisect(cum, rng.random() * cum[-1])}"
        if t < WARMUP_S:
            limiter.try_acquire(key)
            continue
        evictions = limiter.evictions
        cost = count_opcodes(limiter.try_acquire, key)
        counts["evict" if limiter.evictions != evictions else "hit"].append(cost)
    return counts


def test_try_acquire_on_a_seeded_replay():
    counts = _replay_counts(seed=5)
    hits, evicts = counts["hit"], counts["evict"]
    # (calls, total opcodes) of each kind over the measured calls.
    assert (len(hits), sum(hits)) == (321, 68912)
    assert (len(evicts), sum(evicts)) == (79, 62601)


def test_counts_repeat_exactly(fresh_registry):
    first = _replay_counts(seed=5)
    fresh_registry()
    assert _replay_counts(seed=5) == first

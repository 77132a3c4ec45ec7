"""The live-counter registry: an ``id -> weakref`` map under one lock."""

from __future__ import annotations

import gc
import sys
import threading
from collections import deque

import pytest

from repro.core import MonotonicCounter
from repro.obs import registry


@pytest.fixture
def fresh(monkeypatch):
    """An empty registry for this test; the process's own is restored."""
    monkeypatch.setattr(registry, "_refs", {})
    monkeypatch.setattr(registry, "_prune_at", registry._PRUNE_MIN)


class _Plain:
    """A weakly referenceable object that does not register itself."""


def test_a_dropped_counter_leaves_live_counters(fresh):
    kept = MonotonicCounter(name="kept")
    dropped = MonotonicCounter(name="dropped")
    assert registry.live_counters() == [kept, dropped]
    del dropped
    gc.collect()
    assert registry.live_counters() == [kept]


def test_creating_and_dropping_100k_counters_keeps_the_map_bounded(fresh):
    # A sliding window of live counters, so freed ids are not all
    # handed straight back to the next counter.
    live = deque(maxlen=100)
    biggest = 0
    for _ in range(100_000):
        live.append(MonotonicCounter())
        biggest = max(biggest, len(registry._refs))
    assert biggest <= max(registry._PRUNE_MIN, 2 * (live.maxlen + 1))
    assert len(registry.live_counters()) == live.maxlen


def test_deregister_after_an_id_is_reused_removes_only_its_own(fresh):
    old = _Plain()
    registry.register(old)
    reused = id(old)
    del old
    # CPython hands the freed block to the next object of that size.
    new = _Plain()
    if id(new) != reused:
        pytest.skip("the allocator did not reuse the id")
    registry.deregister(new)  # not registered: the entry is old's
    assert reused in registry._refs
    registry.register(new)
    assert registry.live_counters() == [new]
    registry.deregister(new)
    assert registry.live_counters() == []


def test_register_from_four_threads_while_a_fifth_lists(fresh):
    per_thread = 2000
    kept: list[list[MonotonicCounter]] = [[] for _ in range(4)]
    errors: list[BaseException] = []
    done = threading.Event()

    def make(out: list) -> None:
        try:
            for i in range(per_thread):
                counter = MonotonicCounter()
                if i % 2:
                    out.append(counter)  # the other half die at once
        except BaseException as exc:
            errors.append(exc)

    def lister() -> None:
        try:
            while not done.is_set():
                registry.live_counters()
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        reader = threading.Thread(target=lister)
        makers = [threading.Thread(target=make, args=(out,)) for out in kept]
        reader.start()
        for thread in makers:
            thread.start()
        for thread in makers:
            thread.join(timeout=60.0)
        done.set()
        reader.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in (reader, *makers))
    assert errors == []
    live = {id(c) for c in registry.live_counters()}
    assert all(id(c) in live for out in kept for c in out)

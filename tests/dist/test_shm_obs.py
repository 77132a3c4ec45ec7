"""Tracing the shm fabric across real process boundaries.

The fork-based counterpart of ``test_obs_dist.py``: a writer child and
the waiting parent each keep their own event ring, the child ships its
ring to disk with :func:`repro.obs.collect.write_jsonl` before exiting,
and the parent merges the rings into one timeline.  The assertions pin
the cross-process doorbell chain — the writer's ``bell_ring``, the
reading seat holder's ``bell_wake`` and its ``unpark`` share one bell
correlation token, the holder's ``park`` and ``unpark`` one wait token,
and a follower's ``release`` carries the bell token too — and the
crash-recovery breadcrumb (a SIGKILLed writer's slot reclaimed with
``op="reclaim"`` naming the dead pid).

Same ground rules as ``test_shm.py``: fork start method, module-level
child functions, everything timeout-bounded.  Observability is enabled
*after* forking (and independently inside the child) so the two rings
never share pre-fork events.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

import repro.obs as obs
from repro.dist.shm import ShmCounter
from repro.obs.causal import CausalGraph
from repro.obs.collect import load_jsonl, merge, write_jsonl
from tests.helpers import join_all, spawn, wait_until

ctx = multiprocessing.get_context("fork")


@pytest.fixture(autouse=True)
def _obs_clean_slate():
    obs.disable()
    yield
    obs.disable()


def _traced_writer(name: str, ring_path: str, amount: int, go) -> None:
    """Attach, wait for the parent's go signal, ring the bell, ship the ring.

    ``go`` is set by the parent only once its waiter is *parked* (its
    ``park`` event is in the ring) — an armed doorbell alone is not
    enough, because the increment could land in the waiter's
    post-registration re-scan window and satisfy the check without any
    park/bell chain to trace.
    """
    handle = obs.enable()
    with ShmCounter.attach(name) as counter:
        assert go.wait(10), "parent never signalled a parked waiter"
        counter.increment(amount)
    write_jsonl(handle.trace.snapshot(), ring_path)


def _parked(handle, counter: ShmCounter) -> bool:
    """The seat holder failed its re-scan and is about to poll."""
    return any(e.kind == "park" and e.source == counter.name
               for e in handle.trace.snapshot())


def _crash_loop(name: str, started) -> None:  # pragma: no cover - SIGKILLed
    counter = ShmCounter.attach(name)
    started.set()
    while True:
        counter.increment()


class TestBellChainAcrossProcesses:
    def test_merged_trace_links_writer_bell_to_reader_unpark(self, tmp_path):
        child_ring = str(tmp_path / "writer.jsonl")
        parent_ring = str(tmp_path / "reader.jsonl")
        with ShmCounter.publish(slots=4) as owner:
            go = ctx.Event()
            child = ctx.Process(target=_traced_writer,
                                args=(owner.name, child_ring, 3, go))
            child.start()
            handle = obs.enable()
            waiter = spawn(lambda: owner.check(3, timeout=15))
            wait_until(lambda: _parked(handle, owner))
            go.set()
            join_all([waiter])
            child.join(10)
            assert child.exitcode == 0
        write_jsonl(handle.trace.snapshot(), parent_ring)
        obs.disable()

        merged = merge(load_jsonl(parent_ring), load_jsonl(child_ring))
        by_kind = {e.kind: e for e in merged}

        # The writer's slot claim and bell live in the child's pid...
        claim = by_kind["slot_claim"]
        assert claim.op == "claim" and claim.pid == child.pid
        bell = by_kind["bell_ring"]
        assert bell.pid == child.pid
        assert bell.corr is not None and bell.corr.startswith("bell:")
        # ...the park, wake and unpark in the parent's: the seat holder
        # itself woke, so the bell corr runs straight to its return.
        wake = by_kind["bell_wake"]
        assert wake.pid == os.getpid()
        assert wake.corr == bell.corr
        park, unpark = by_kind["park"], by_kind["unpark"]
        assert park.pid == unpark.pid == os.getpid()
        assert unpark.corr == bell.corr
        assert unpark.token == park.token is not None
        assert "release" not in by_kind  # no engine hop for a lone waiter
        assert park.seq < wake.seq < unpark.seq

    def test_follower_release_carries_the_bell_corr(self, tmp_path):
        """A ring that wakes the seat holder short of its own level is
        passed on through the mirror: the follower's release names the
        writer's bell."""
        child_ring = str(tmp_path / "writer.jsonl")
        parent_ring = str(tmp_path / "reader.jsonl")
        with ShmCounter.publish(slots=4) as owner:
            go = ctx.Event()
            child = ctx.Process(target=_traced_writer,
                                args=(owner.name, child_ring, 3, go))
            child.start()
            handle = obs.enable()
            holder = spawn(lambda: owner.check(5, timeout=15))
            wait_until(lambda: _parked(handle, owner))
            follower = spawn(lambda: owner.check(3, timeout=15))
            wait_until(lambda: any(e.kind == "mw_park"
                                   for e in handle.trace.snapshot()))
            go.set()
            join_all([follower])
            owner.increment(2)
            join_all([holder])
            child.join(10)
            assert child.exitcode == 0
        write_jsonl(handle.trace.snapshot(), parent_ring)
        obs.disable()

        merged = merge(load_jsonl(parent_ring), load_jsonl(child_ring))
        bell = next(e for e in merged if e.kind == "bell_ring")
        wake = next(e for e in merged if e.kind == "bell_wake")
        release = next(e for e in merged if e.kind == "release")
        assert wake.corr == release.corr == bell.corr
        assert release.level == 3 and release.pid == os.getpid()

    def test_causal_graph_blames_the_writer_process(self, tmp_path):
        child_ring = str(tmp_path / "writer.jsonl")
        with ShmCounter.publish(slots=4) as owner:
            go = ctx.Event()
            child = ctx.Process(target=_traced_writer,
                                args=(owner.name, child_ring, 2, go))
            child.start()
            handle = obs.enable()
            waiter = spawn(lambda: owner.check(2, timeout=15))
            wait_until(lambda: _parked(handle, owner))
            go.set()
            join_all([waiter])
            child.join(10)
            assert child.exitcode == 0
        parent_events = handle.trace.snapshot()
        obs.disable()

        merged = merge(
            [e.as_dict() | {"pid": os.getpid()} for e in parent_events],
            load_jsonl(child_ring),
        )
        graph = CausalGraph.from_events(merged)
        assert graph.multi_pid
        edge = next(e for e in graph.edges if e.origin is not None)
        assert edge.origin.kind == "bell_ring"
        assert edge.origin.pid == child.pid
        assert edge.crosses_pid
        path = graph.critical_path()
        assert {graph.thread_pid(s.thread) for s in path} >= {
            os.getpid(), child.pid
        }


class TestCrashReclamationIsTraced:
    def test_sigkilled_writers_slot_claim_shows_in_merged_trace(self, tmp_path):
        ring_path = str(tmp_path / "survivor.jsonl")
        with ShmCounter.publish(slots=4) as owner:
            started = ctx.Event()
            crasher = ctx.Process(target=_crash_loop,
                                  args=(owner.name, started))
            crasher.start()
            assert started.wait(10)
            wait_until(lambda: any(
                s.pid == crasher.pid for s in owner.slot_snapshot()
            ))
            os.kill(crasher.pid, signal.SIGKILL)
            crasher.join(10)

            handle = obs.enable()
            with ShmCounter.attach(owner.name):
                pass
            write_jsonl(handle.trace.snapshot(), ring_path)
            obs.disable()

        merged = merge(load_jsonl(ring_path))
        claim = next(e for e in merged if e.kind == "slot_claim")
        assert claim.op == "reclaim"
        assert claim.count == crasher.pid  # the displaced dead owner
        assert claim.pid == os.getpid()

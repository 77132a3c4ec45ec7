"""The thread-side increment pool of ``open_threadside`` endpoints.

``ServiceCounter.increment`` adds to a per-counter pool in the endpoint;
only the increment that finds the pool unarmed wakes the connection's
loop, which ships the pool at once and then once per chained window, in
one ``inc`` frame per socket write, until a window finds it empty.
``flush``, ``check`` and ``close`` drain the pool first, and a closed
handle or endpoint refuses every call that would need the loop.

The service runs in this process on a private daemon loop, so the tests
read its totals directly; everything is bounded by timeouts.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

import repro.obs as obs
from repro.dist import CounterService, open_threadside, wire
from repro.obs.collect import frame_riders
from tests.helpers import join_all, spawn, wait_until


@pytest.fixture
def service():
    """A CounterService on a private daemon loop."""
    ready = threading.Event()
    box = {}

    async def serve():
        box["stop"] = asyncio.Event()
        async with CounterService() as svc:
            box["service"] = svc
            ready.set()
            await box["stop"].wait()

    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_until_complete, args=(serve(),),
                              daemon=True)
    thread.start()
    assert ready.wait(10)
    yield box["service"]
    loop.call_soon_threadsafe(box["stop"].set)
    thread.join(10)
    loop.close()


@pytest.fixture(autouse=True)
def _obs_clean_slate():
    obs.disable()
    yield
    obs.disable()


def served(service, name: str) -> int:
    return service.counter(name).value


def spy_wakes_and_writes(endpoint, monkeypatch):
    """Record the endpoint loop's thread wakes and its socket writes."""
    wakes, writes = [], []
    loop, writer = endpoint._loop, endpoint.client._writer
    call_soon_threadsafe, write = loop.call_soon_threadsafe, writer.write

    def spy_wake(*args, **kwargs):
        wakes.append(args)
        return call_soon_threadsafe(*args, **kwargs)

    def spy_write(data):
        writes.append(data)
        return write(data)

    monkeypatch.setattr(loop, "call_soon_threadsafe", spy_wake)
    monkeypatch.setattr(writer, "write", spy_write)
    return wakes, writes


class TestPool:
    def test_many_threads_then_flush_total_is_exact(self, service):
        threads_n, per_thread = 8, 250
        with open_threadside(*service.address, source="t") as endpoint:
            jobs = endpoint.counter("jobs")
            bytes_ = endpoint.counter("bytes")

            def worker():
                for _ in range(per_thread):
                    jobs.increment()
                    bytes_.increment(3)

            join_all([spawn(worker) for _ in range(threads_n)])
            jobs.flush()
            assert served(service, "jobs") == threads_n * per_thread
            assert served(service, "bytes") == 3 * threads_n * per_thread
            assert jobs.dist_snapshot()["contribution"] == threads_n * per_thread

    def test_check_on_own_pooled_increments_does_not_wait_out_the_window(
            self, service):
        with open_threadside(*service.address, source="t",
                             flush_interval=5.0) as endpoint:
            counter = endpoint.counter("mine")
            counter.increment(3)
            assert counter.dist_snapshot()["contribution"] == 3
            start = time.monotonic()
            counter.check(3, timeout=10)
            assert time.monotonic() - start < 1.0  # the window is 5 s
            assert served(service, "mine") == 3

    def test_close_ships_what_is_still_pooled(self, service):
        endpoint = open_threadside(*service.address, source="t",
                                   flush_interval=60.0)
        counter = endpoint.counter("late")
        counter.increment(4)
        counter.increment(3)
        assert served(service, "late") == 0  # still pooled
        endpoint.close()
        assert served(service, "late") == 7

    def test_pooled_riders_ride_the_frame_that_carried_them(self, service):
        handle = obs.enable()
        with open_threadside(*service.address, source="t",
                             flush_interval=60.0) as endpoint:
            a, b = endpoint.counter("a"), endpoint.counter("b")
            a.increment(1)  # the leading edge ships this one at once
            wait_until(lambda: served(service, "a") == 1, timeout=10)
            for i in range(3):
                a.increment(1, corr=f"a{i}")
            b.increment(5, corr="b0")
            b.increment(5)  # anonymous: no rider
            b.increment(5, corr="b1")
            a.flush()
            assert (served(service, "a"), served(service, "b")) == (4, 15)
        events = handle.trace.snapshot()
        obs.disable()
        sends = {e.corr: e for e in events
                 if e.kind == "frame_send" and e.op == "inc"}
        riders = frame_riders(events)
        assert set(riders) == {"a0", "a1", "a2", "b0", "b1"}
        # Every rider, on both counters, rode the flush's one frame, and
        # that frame carried both counters' floors.
        (frame,) = set(riders.values())
        assert sends[frame].count == 2
        assert sends[frame].value is None

    def test_one_wake_and_one_write_per_window(self, service, monkeypatch):
        k = 100
        with open_threadside(*service.address, source="t",
                             flush_interval=0.5) as endpoint:
            counters = [endpoint.counter(f"w{i}") for i in range(4)]
            wakes, writes = spy_wakes_and_writes(endpoint, monkeypatch)
            for i in range(k):
                counters[i % 4].increment()
            assert len(wakes) == 1
            wait_until(lambda: [served(service, f"w{i}") for i in range(4)]
                       == [k // 4] * 4, timeout=10)
            # The leading edge, then at most one chained window: each
            # write is one inc frame, whatever the counter count.
            frames = [wire.decode(data) for data in writes]
            assert 1 <= len(frames) <= 2
            assert all(data.count(b"\n") == 1 for data in writes)
            assert all(f["op"] == "inc" and f["s"] == "t" for f in frames)
            assert {c: floor for f in frames for c, floor in f["f"]} == {
                f"w{i}": k // 4 for i in range(4)}
            monkeypatch.undo()


class TestWindow:
    def test_leading_edge_ships_a_lone_increment_at_once(self, service):
        with open_threadside(*service.address, source="t",
                             flush_interval=60.0) as endpoint:
            counter = endpoint.counter("lone")
            start = time.monotonic()
            counter.increment(2)
            wait_until(lambda: served(service, "lone") == 2, timeout=10)
            assert time.monotonic() - start < 1.0  # the window is 60 s

    def test_chained_windows_wake_the_loop_once(self, service, monkeypatch):
        window = 0.2
        with open_threadside(*service.address, source="t",
                             flush_interval=window) as endpoint:
            counters = [endpoint.counter(f"c{i}") for i in range(3)]
            wakes, writes = spy_wakes_and_writes(endpoint, monkeypatch)
            n = 0
            end = time.monotonic() + 3.5 * window
            while time.monotonic() < end:  # traffic in every window
                counters[n % 3].increment()
                n += 1
                time.sleep(0.005)
            wait_until(lambda: sum(served(service, f"c{i}")
                                   for i in range(3)) == n, timeout=10)
            assert len(wakes) == 1  # only the leading edge woke the loop
            assert len(writes) >= 4  # the leading edge and three windows
            assert all(data.count(b"\n") == 1 for data in writes)
            monkeypatch.undo()

    def test_an_empty_window_disarms_and_the_next_increment_wakes(
            self, service, monkeypatch):
        with open_threadside(*service.address, source="t",
                             flush_interval=0.1) as endpoint:
            counter = endpoint.counter("idle")
            wakes, writes = spy_wakes_and_writes(endpoint, monkeypatch)
            counter.increment()
            wait_until(lambda: served(service, "idle") == 1, timeout=10)
            # The chained window finds the pool empty and disarms.
            wait_until(lambda: not endpoint._armed, timeout=10)
            assert len(wakes) == 1
            counter.increment()
            assert len(wakes) == 2
            wait_until(lambda: served(service, "idle") == 2, timeout=10)
            assert len(writes) == 2
            monkeypatch.undo()

    def test_riders_on_several_counters_ride_one_window_frame(self, service):
        handle = obs.enable()
        with open_threadside(*service.address, source="t",
                             flush_interval=0.3) as endpoint:
            counters = [endpoint.counter(f"r{i}") for i in range(3)]
            counters[0].increment()  # the leading edge, then the window
            wait_until(lambda: served(service, "r0") == 1, timeout=10)
            for i, counter in enumerate(counters):
                counter.increment(corr=f"req{i}")
            wait_until(lambda: [served(service, f"r{i}") for i in range(3)]
                       == [2, 1, 1], timeout=10)
        events = handle.trace.snapshot()
        obs.disable()
        riders = frame_riders(events)
        assert set(riders) == {"req0", "req1", "req2"}
        (frame,) = set(riders.values())
        send = next(e for e in events if e.kind == "frame_send"
                    and e.op == "inc" and e.corr == frame)
        assert send.count == 3


class TestClosed:
    def test_closed_handle_refuses_calls(self, service):
        with open_threadside(*service.address, source="t") as endpoint:
            counter = endpoint.counter("c")
            counter.increment(3)
            counter.flush()
            counter.close()
            with pytest.raises(ValueError, match="closed"):
                counter.increment(1)
            with pytest.raises(ValueError, match="closed"):
                counter.check(1, timeout=1)
            with pytest.raises(ValueError, match="closed"):
                counter.flush()
            other = endpoint.counter("c")  # the endpoint is still open
            other.flush()
            assert other.value_rpc() == 3

    def test_handles_of_a_closed_endpoint_refuse_calls(self, service):
        endpoint = open_threadside(*service.address, source="t")
        counter = endpoint.counter("c")
        counter.increment(2)
        endpoint.close()
        endpoint.close()  # idempotent
        for call in (lambda: counter.increment(1),
                     lambda: counter.check(1, timeout=1),
                     counter.flush,
                     lambda: endpoint.counter("d")):
            with pytest.raises(ValueError, match="closed"):
                call()
        assert served(service, "c") == 2

"""The thread-side increment pool of ``open_threadside`` endpoints.

``ServiceCounter.increment`` adds to a per-counter pool in the endpoint;
only the increment that arms an empty window wakes the connection's
loop, and the loop ships the whole pool once per window in one socket
write.  ``flush``, ``check`` and ``close`` drain the pool first, and a
closed handle or endpoint refuses every call that would need the loop.

The service runs in this process on a private daemon loop, so the tests
read its totals directly; everything is bounded by timeouts.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

import repro.obs as obs
from repro.dist import CounterService, open_threadside
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
            for i in range(3):
                a.increment(1, corr=f"a{i}")
            b.increment(5, corr="b0")
            b.increment(5)  # anonymous: no rider
            b.increment(5, corr="b1")
            a.flush()
        events = handle.trace.snapshot()
        obs.disable()
        sends = {e.corr: e.value for e in events
                 if e.kind == "frame_send" and e.op == "inc"}
        riders = frame_riders(events)
        assert set(riders) == {"a0", "a1", "a2", "b0", "b1"}
        # Each counter's riders share one frame, and that frame carried
        # the counter's floor (3 for a, 15 for b).
        assert {sends[riders[f"a{i}"]] for i in range(3)} == {3}
        assert {sends[riders[c]] for c in ("b0", "b1")} == {15}

    def test_one_wake_and_one_write_per_window(self, service, monkeypatch):
        k = 100
        with open_threadside(*service.address, source="t",
                             flush_interval=2.0) as endpoint:
            counters = [endpoint.counter(f"w{i}") for i in range(4)]
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
            for i in range(k):
                counters[i % 4].increment()
            assert len(wakes) == 1
            wait_until(lambda: [served(service, f"w{i}") for i in range(4)]
                       == [k // 4] * 4, timeout=10)
            assert len(writes) == 1
            assert writes[0].count(b"\n") == 4  # one inc frame per counter
            # The next increment arms the next window.
            counters[0].increment()
            assert len(wakes) == 2
            monkeypatch.undo()


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

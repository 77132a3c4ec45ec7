"""Per-request correlation riders on the batched client.

A request token (``corr``) handed to ``increment``/``check`` must stay
joinable to the wire frame that actually carried the operation — that is
what lets a tail exemplar's report blame a specific flushed batch.  The
client keeps a riders map per counter; every flush pops it and, with
observability on, emits one ``frame_ride`` event per rider whose ``op``
is the frame's own correlation token.
"""

from __future__ import annotations

import asyncio

import pytest

import repro.obs as obs
from repro.dist import AsyncCounterClient, CounterService, open_threadside
from repro.obs.collect import frame_riders


def run(coro, timeout: float = 30.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


@pytest.fixture(autouse=True)
def _obs_clean_slate():
    obs.disable()
    yield
    obs.disable()


class TestIncrementRiders:
    def test_batched_increments_ride_their_flush_frame(self):
        handle = obs.enable()

        async def scenario():
            async with CounterService() as service:
                client = await AsyncCounterClient.connect(
                    *service.address, source="app"
                )
                try:
                    client.increment("orders", 1, corr="req-a")
                    client.increment("orders", 1, corr="req-b")
                    client.increment("orders", 1)  # anonymous: no rider
                    await client.flush()
                finally:
                    await client.close()

        run(scenario())
        events = handle.trace.snapshot()
        send = next(e for e in events
                    if e.kind == "frame_send" and e.op == "inc")
        rides = [e for e in events if e.kind == "frame_ride"]
        assert {e.corr for e in rides} == {"req-a", "req-b"}
        assert {e.op for e in rides} == {send.corr}  # both rode one frame
        riders = frame_riders(events)
        assert riders == {"req-a": send.corr, "req-b": send.corr}

    def test_riders_split_across_flushes(self):
        handle = obs.enable()

        async def scenario():
            async with CounterService() as service:
                client = await AsyncCounterClient.connect(
                    *service.address, source="app"
                )
                try:
                    client.increment("orders", 1, corr="first")
                    await client.flush()
                    client.increment("orders", 1, corr="second")
                    await client.flush()
                finally:
                    await client.close()

        run(scenario())
        events = handle.trace.snapshot()
        riders = frame_riders(events)
        assert set(riders) == {"first", "second"}
        assert riders["first"] != riders["second"]  # two distinct frames

    def test_disabled_obs_never_accumulates_riders(self):
        # The rider list is taken unconditionally on flush: toggling
        # obs off must not leak tokens that were queued while off.
        client_box = {}

        async def scenario():
            async with CounterService() as service:
                client = await AsyncCounterClient.connect(
                    *service.address, source="app"
                )
                try:
                    client.increment("orders", 1, corr="ghost")
                    await client.flush()
                    client_box["riders"] = list(client._riders)
                finally:
                    await client.close()

        run(scenario())
        assert client_box["riders"] == []

    def test_frame_riders_keeps_the_first_frame(self):
        # A retried rider (same corr on two frames) attributes to the
        # frame that first carried it.
        class E:
            def __init__(self, kind, corr, op):
                self.kind, self.corr, self.op = kind, corr, op

        events = [
            E("frame_ride", "req-1", "frame-a"),
            E("frame_ride", "req-1", "frame-b"),
            E("frame_ride", None, "frame-c"),
            E("other", "req-2", "frame-d"),
        ]
        assert frame_riders(events) == {"req-1": "frame-a"}


class TestThreadsideCorr:
    def test_service_counter_wait_carries_the_request_corr(self):
        handle = obs.enable()

        async def host():
            async with CounterService() as service:
                box["address"] = service.address
                started.set()
                await done.wait()

        import threading

        box = {}
        started = threading.Event()
        done = asyncio.Event()
        loop_box = {}

        def serve():
            loop = asyncio.new_event_loop()
            loop_box["loop"] = loop
            loop.run_until_complete(host())
            loop.close()

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        assert started.wait(10.0)
        endpoint = open_threadside(*box["address"], source="worker")
        try:
            counter = endpoint.counter("jobs")
            counter.increment(2, corr="req-w")
            assert counter.check(2, timeout=10.0, corr="req-w") is None
        finally:
            endpoint.close()
            loop_box["loop"].call_soon_threadsafe(done.set)
            server.join(timeout=10.0)
        events = handle.trace.snapshot()
        obs.disable()
        # The worker-thread wrapper wait carries the request token…
        parks = [e for e in events if e.kind == "park" and e.corr == "req-w"]
        unparks = [e for e in events if e.kind == "unpark" and e.corr == "req-w"]
        assert parks and unparks
        assert unparks[0].wait_s is not None
        # …and the increment rode a frame joinable via frame_riders.
        assert "req-w" in frame_riders(events)

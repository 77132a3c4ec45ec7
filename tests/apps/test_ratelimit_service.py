"""The rate limiter over a counter service: ``ServiceBackend`` and
``serve_rolls``.

The service runs in this process, on a private daemon loop (or inside
one ``asyncio.run`` scenario for the roller), so no child process is
involved; everything is bounded by timeouts.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.apps.ratelimit import RateLimiter, ServiceBackend, serve_rolls
from repro.dist import CounterService, GCounter, open_threadside
from repro.testkit import run_script, run_thread, until


def _start_service():
    """A CounterService on a private daemon loop; returns (address, stop)."""
    ready = threading.Event()
    box = {}

    async def serve():
        box["stop"] = asyncio.Event()
        async with CounterService() as service:
            box["address"] = service.address
            ready.set()
            await box["stop"].wait()

    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_until_complete, args=(serve(),),
                              daemon=True)
    thread.start()
    assert ready.wait(10)

    def stop():
        loop.call_soon_threadsafe(box["stop"].set)
        thread.join(10)
        loop.close()

    return box["address"], stop


class TestServiceBackend:
    def test_own_admits_count_before_the_hop(self):
        """Decisions taken while the endpoint's loop thread is busy must
        still see this client's earlier admits: the loop has applied
        none of the increments, so only a thread-side tally stops the
        ``limit + 1``-th admit."""
        address, stop = _start_service()
        try:
            with open_threadside(*address, source="t") as endpoint:
                limiter = RateLimiter(3, 60.0, name="rl", max_keys=1,
                                      backend=ServiceBackend(endpoint))
                gate = threading.Event()
                parked = threading.Event()

                def block_loop():
                    parked.set()
                    gate.wait(10)

                endpoint._loop.call_soon_threadsafe(block_loop)
                assert parked.wait(10)
                try:
                    grants = [limiter.try_acquire("k") for _ in range(4)]
                    # Evicting "k" keeps the tally: its re-created entry
                    # still counts the admits the loop has not applied.
                    assert limiter.try_acquire("j") is True
                    assert limiter.evictions == 1
                    grants.append(limiter.try_acquire("k"))
                finally:
                    gate.set()
                assert grants == [True, True, True, False, False]
                limiter.close()
        finally:
            stop()

    def test_pin_keeps_the_admit_off_a_closed_handle(self):
        """Eviction closes a key's handles, and a closed handle raises on
        ``increment``.  A thread paused at the decision gate (touched,
        not yet decided) while another key floods the LRU holds its pin,
        so its admit lands on the open handle and reaches the service."""
        address, stop = _start_service()
        try:
            with open_threadside(*address, source="t") as endpoint:
                limiter = RateLimiter(3, 60.0, name="rl", max_keys=1,
                                      backend=ServiceBackend(endpoint))
                results = {}

                def acquire(label, key):
                    results[label] = limiter.try_acquire(key)

                run_script(
                    [
                        until("t1", "ratelimit.lock"),       # "a" touched, pinned
                        run_thread("flood", expect="done"),  # "b" sweeps the LRU
                        run_thread("t1", expect="done"),     # decides on "a"
                    ],
                    {"t1": (acquire, "t1", "a"), "flood": (acquire, "flood", "b")},
                )
                assert results == {"t1": True, "flood": True}
                assert limiter.evictions == 0  # the sweep skipped "a"
                admitted = endpoint.counter("rl:a:admitted")
                admitted.flush()
                assert admitted.value_rpc() == 1
                limiter.close()
        finally:
            stop()


    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: pooled inc frames are never acked, so a "
        "ServiceBackend never sees another client's admits and a second "
        "client admits a full limit of its own"))
    def test_second_client_cannot_admit_past_the_limit(self):
        """Two clients share one key's quota.  Client A's admits have
        reached the service before client B decides, so B must reject;
        today B admits its own 3 and the service holds 6 for a limit
        of 3."""
        address, stop = _start_service()
        try:
            with open_threadside(*address, source="a") as one, \
                    open_threadside(*address, source="b") as two:
                first = RateLimiter(3, 60.0, name="rl",
                                    backend=ServiceBackend(one))
                second = RateLimiter(3, 60.0, name="rl",
                                     backend=ServiceBackend(two))
                try:
                    assert [first.try_acquire("k") for _ in range(3)] == [True] * 3
                    shared = one.counter("rl:k:admitted")
                    shared.flush()
                    assert shared.value_rpc() == 3
                    assert [second.try_acquire("k") for _ in range(3)] == [False] * 3
                finally:
                    first.close()
                    second.close()
        finally:
            stop()


class TestServeRolls:
    def test_retired_is_raised_only_on_a_real_step(self, monkeypatch):
        """Each ``raise_source`` call moves ``retired``, and every
        admission still retires a window after it was admitted."""
        calls = []
        raise_source = GCounter.raise_source

        def counted(self, source, value):
            before = self.value
            total = raise_source(self, source, value)
            calls.append(total > before)
            return total

        monkeypatch.setattr(GCounter, "raise_source", counted)
        keys = ["a", "b"]
        bursts = {"a": (3, 2, 4), "b": (1, 0, 5)}

        async def scenario():
            async with CounterService() as service:
                rolls = asyncio.ensure_future(serve_rolls(
                    service, keys=keys, limit=10, window_s=0.1,
                    name="rl", interval=0.01,
                ))
                try:
                    for step in range(3):
                        for key in keys:
                            admitted = service.counter(f"rl:{key}:admitted")
                            for _ in range(bursts[key][step]):
                                admitted.bump("client")
                        await asyncio.sleep(0.05)
                    await asyncio.sleep(0.4)  # every window has passed
                finally:
                    rolls.cancel()
                    try:
                        await rolls
                    except asyncio.CancelledError:
                        pass
                return {key: service.counter(f"rl:{key}:retired").value
                        for key in keys}

        retired = asyncio.run(asyncio.wait_for(scenario(), 30))
        assert retired == {key: sum(bursts[key]) for key in keys}
        assert calls and all(calls), f"{calls.count(False)} no-op raises"

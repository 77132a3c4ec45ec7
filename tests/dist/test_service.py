"""The asyncio counter service, its pipelined client, and the thread shim.

No pytest-asyncio in the toolchain, deliberately: each test is a plain
sync function running one ``asyncio.run`` scenario (the service and
client live and die inside it), which also guarantees no loop state
leaks between tests.  Thread-shim tests drive a real service loop on a
background thread through ``open_threadside``.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.core.errors import CheckTimeout
from repro.dist import (
    AsyncCounterClient,
    CounterService,
    GCounter,
    digests_equal,
    open_threadside,
    wire,
)
from tests.helpers import join_all, spawn, wait_until


def run(coro, timeout: float = 30.0):
    """asyncio.run with a suite-protecting deadline."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


class TestServiceBasics:
    def test_pipelined_increments_coalesce(self):
        async def scenario():
            async with CounterService() as service:
                client = await AsyncCounterClient.connect(
                    *service.address, source="s1"
                )
                try:
                    for _ in range(1000):
                        client.increment("jobs")
                    await client.flush()
                    assert await client.value("jobs") == 1000
                    # The whole burst rode a handful of frames, not 1000.
                    assert client.frames_out < 20
                finally:
                    await client.close()

        run(scenario())

    def test_inc_is_retransmit_safe(self):
        async def scenario():
            async with CounterService() as service:
                client = await AsyncCounterClient.connect(
                    *service.address, source="s1"
                )
                try:
                    assert await client.increment_rpc("c", 5) == 5
                    # A duplicate of the same absolute floor is a no-op.
                    counter = service.counter("c")
                    counter.raise_source("s1", 5)
                    counter.raise_source("s1", 5)
                    assert await client.value("c") == 5
                finally:
                    await client.close()

        run(scenario())

    def test_two_sources_sum(self):
        async def scenario():
            async with CounterService() as service:
                one = await AsyncCounterClient.connect(*service.address, source="a")
                two = await AsyncCounterClient.connect(*service.address, source="b")
                try:
                    one.increment("c", 3)
                    two.increment("c", 4)
                    await one.flush()
                    await two.flush()
                    assert await one.value("c") == 7
                finally:
                    await one.close()
                    await two.close()

        run(scenario())

    def test_get_unknown_counter_is_zero(self):
        async def scenario():
            async with CounterService() as service:
                client = await AsyncCounterClient.connect(*service.address)
                try:
                    assert await client.value("never-touched") == 0
                    assert "never-touched" not in service.counters
                finally:
                    await client.close()

        run(scenario())

    @staticmethod
    async def error_then_serves(bad: bytes) -> None:
        async with CounterService() as service:
            reader, writer = await asyncio.open_connection(*service.address)
            writer.write(bad + b"\n")
            await writer.drain()
            line = await reader.readline()
            assert b'"error"' in line
            # Connection still serves afterwards.
            writer.write(b'{"op":"get","c":"x","id":1}\n')
            await writer.drain()
            line = await reader.readline()
            assert b'"value"' in line
            writer.close()
            await writer.wait_closed()

    def test_bad_frame_gets_error_not_disconnect(self):
        run(self.error_then_serves(b'{"op":"???"}'))

    @pytest.mark.parametrize("bad", [
        b'{"op":"inc","c":"x","s":"a","v":1}',   # no f: another shape
        b'{"op":"inc","s":"a","f":[["x"]]}',     # a floor without a value
        b'{"op":"inc","s":"a","f":7}',
    ])
    def test_mis_shaped_inc_gets_error_not_disconnect(self, bad):
        run(self.error_then_serves(bad))

    def test_rejected_request_fails_instead_of_hanging(self):
        """The error reply echoes the request's ``id``, so the client's
        pending request resolves with the service's message."""
        async def scenario():
            async with CounterService() as service:
                client = await AsyncCounterClient.connect(*service.address)
                try:
                    with pytest.raises(RuntimeError, match="unknown op 'bogus'"):
                        await asyncio.wait_for(client._request({"op": "bogus"}), 2)
                    assert await client.value("x") == 0  # still serving
                finally:
                    await client.close()

        run(scenario())


class TestIncFrame:
    """One ``inc`` frame carries any number of floors, on the raw wire."""

    @staticmethod
    async def ask(reader, writer, frame: dict) -> dict:
        writer.write(wire.encode(frame))
        await writer.drain()
        return wire.decode(await reader.readline())

    def test_one_inc_raises_every_floor_it_carries(self):
        async def scenario():
            async with CounterService() as service:
                reader, writer = await asyncio.open_connection(*service.address)
                writer.write(wire.encode(
                    {"op": "inc", "s": "a", "f": [["x", 1], ["y", 2], ["z", 3]]}
                ))
                # An unacked inc is answered by nothing: the next line
                # read is the barrier's reply.
                reply = await self.ask(reader, writer,
                                       {"op": "get", "c": "z", "id": 1})
                assert (reply["op"], reply["v"]) == ("value", 3)
                assert {n: service.counter(n).value for n in "xyz"} == {
                    "x": 1, "y": 2, "z": 3}
                writer.close()
                await writer.wait_closed()

        run(scenario())

    def test_acked_inc_returns_every_total(self):
        async def scenario():
            async with CounterService() as service:
                service.counter("y").raise_source("b", 10)  # another source
                reader, writer = await asyncio.open_connection(*service.address)
                reply = await self.ask(reader, writer, {
                    "op": "inc", "s": "a", "id": 7,
                    "f": [["x", 1], ["y", 2], ["z", 3]],
                })
                assert reply == {"op": "ack", "id": 7,
                                 "f": [["x", 1], ["y", 12], ["z", 3]]}
                writer.close()
                await writer.wait_closed()

        run(scenario())

    def test_replayed_or_older_frames_change_nothing(self):
        async def scenario():
            async with CounterService() as service:
                reader, writer = await asyncio.open_connection(*service.address)
                newer = {"op": "inc", "s": "a", "id": 1,
                         "f": [["x", 4], ["y", 5], ["z", 6]]}
                older = {"op": "inc", "s": "a", "id": 2,
                         "f": [["x", 1], ["y", 2], ["z", 3]]}
                totals = [["x", 4], ["y", 5], ["z", 6]]
                assert (await self.ask(reader, writer, newer))["f"] == totals
                assert (await self.ask(reader, writer, newer))["f"] == totals
                assert (await self.ask(reader, writer, older))["f"] == totals
                assert {n: service.counter(n).digest() for n in "xyz"} == {
                    "x": {"a": 4}, "y": {"a": 5}, "z": {"a": 6}}
                writer.close()
                await writer.wait_closed()

        run(scenario())


class TestSubscriptionPush:
    def test_check_wakes_on_push(self):
        async def scenario():
            async with CounterService() as service:
                waiter = await AsyncCounterClient.connect(*service.address, source="w")
                incr = await AsyncCounterClient.connect(*service.address, source="i")
                try:
                    task = asyncio.ensure_future(waiter.check("c", 10))
                    await asyncio.sleep(0.02)
                    assert not task.done()
                    incr.increment("c", 10)
                    await incr.flush()
                    await asyncio.wait_for(task, 5)
                    assert waiter.known_value("c") >= 10
                finally:
                    await waiter.close()
                    await incr.close()

        run(scenario())

    def test_check_already_satisfied_returns_immediately(self):
        async def scenario():
            async with CounterService() as service:
                service.counter("c").bump("seed", 5)
                client = await AsyncCounterClient.connect(*service.address)
                try:
                    await asyncio.wait_for(client.check("c", 5), 5)
                finally:
                    await client.close()

        run(scenario())

    def test_check_flushes_own_pending_first(self):
        """A waiter must not deadlock on increments it already pooled."""
        async def scenario():
            async with CounterService() as service:
                client = await AsyncCounterClient.connect(
                    *service.address, source="s", flush_interval=60.0
                )
                try:
                    client.increment("c", 7)  # would otherwise pool for 60s
                    await asyncio.wait_for(client.check("c", 7), 5)
                finally:
                    await client.close()

        run(scenario())

    def test_timeout_adjudicated_and_raises(self):
        async def scenario():
            async with CounterService() as service:
                client = await AsyncCounterClient.connect(*service.address)
                try:
                    with pytest.raises(CheckTimeout):
                        await client.check("c", 100, timeout=0.1)
                    assert not service._subs  # unsub cleaned the server side
                finally:
                    await client.close()

        run(scenario())

    def test_anti_entropy_merge_fires_subscriptions(self):
        """A level first reached by a gossip merge (not a client inc)
        still pushes `reached` — wakeups ride the counter, not the op."""
        async def scenario():
            async with CounterService() as service:
                client = await AsyncCounterClient.connect(*service.address)
                try:
                    task = asyncio.ensure_future(client.check("c", 8))
                    await asyncio.sleep(0.02)
                    service.merge_digests({"c": {"peer": 8}})
                    await asyncio.wait_for(task, 5)
                finally:
                    await client.close()

        run(scenario())


class TestAntiEntropy:
    def test_two_nodes_converge(self):
        async def scenario():
            async with CounterService(node_id="n1") as one:
                async with CounterService(node_id="n2") as two:
                    one.counter("c").bump("a", 3)
                    two.counter("c").bump("b", 4)
                    two.counter("other").bump("b", 1)

                    await one.anti_entropy(*two.address)
                    # One two-leg round: both sides now identical.
                    assert one.counter("c").value == 7
                    assert two.counter("c").value == 7
                    assert one.counter("other").value == 1
                    assert digests_equal(
                        one.counter("c").digest(), two.counter("c").digest()
                    )

                    # Idempotent: replaying the round changes nothing.
                    await one.anti_entropy(*two.address)
                    assert one.counter("c").value == 7

        run(scenario())

    def test_three_node_gossip_chain(self):
        async def scenario():
            async with CounterService(node_id="n1") as one, \
                    CounterService(node_id="n2") as two, \
                    CounterService(node_id="n3") as three:
                one.counter("c").bump("a", 1)
                two.counter("c").bump("b", 2)
                three.counter("c").bump("c", 4)
                # A chain of rounds propagates everything everywhere.
                await one.anti_entropy(*two.address)
                await two.anti_entropy(*three.address)
                await one.anti_entropy(*three.address)
                values = {
                    node.counter("c").value for node in (one, two, three)
                }
                assert values == {7}

        run(scenario())


class TestThreadShim:
    def _start_service(self):
        """A CounterService on a private daemon loop; returns (address, stop)."""
        ready = threading.Event()
        box = {}

        async def serve():
            async with CounterService() as service:
                box["address"] = service.address
                box["service"] = service
                ready.set()
                await box["stop"].wait()

        def drive():
            loop = asyncio.new_event_loop()
            box["loop"] = loop
            asyncio.set_event_loop(loop)
            box["stop"] = asyncio.Event()
            loop.run_until_complete(serve())
            loop.close()

        thread = threading.Thread(target=drive, daemon=True)
        thread.start()
        assert ready.wait(10)

        def stop():
            box["loop"].call_soon_threadsafe(box["stop"].set)
            thread.join(10)

        return box, stop

    def test_threads_increment_and_wait(self):
        box, stop = self._start_service()
        try:
            with open_threadside(*box["address"], source="t") as endpoint:
                counter = endpoint.counter("work")
                released = []

                def waiter():
                    counter.check(300, timeout=10)
                    released.append(True)

                thread = spawn(waiter)
                for _ in range(300):
                    counter.increment()
                join_all([thread])
                assert released == [True]
                counter.flush()
                assert counter.value_rpc() == 300
                assert counter.value >= 300  # acked lower bound caught up
        finally:
            stop()

    def test_shim_timeout_raises_checktimeout(self):
        box, stop = self._start_service()
        try:
            with open_threadside(*box["address"]) as endpoint:
                counter = endpoint.counter("never")
                with pytest.raises(CheckTimeout):
                    counter.check(1, timeout=0.1)
        finally:
            stop()

    def test_shim_visible_in_obs_dump(self):
        from repro.obs.dump import dump_state

        box, stop = self._start_service()
        try:
            with open_threadside(*box["address"], source="t") as endpoint:
                counter = endpoint.counter("observed")
                thread = spawn(counter.check, 50, 10)
                wait_until(
                    lambda: counter.snapshot().waiting_levels == (50,), timeout=10
                )
                docs = [
                    d for d in dump_state()["counters"]
                    if d.get("dist", {}).get("backend") == "service"
                    and d["dist"]["counter"] == "observed"
                ]
                assert len(docs) == 1
                assert docs[0]["waiting"] == [
                    {"level": 50, "waiters": 1, "signaled": False}
                ]
                counter.increment(50)
                join_all([thread])
            # close() deregisters the handle.
            assert not any(
                d.get("dist", {}).get("counter") == "observed"
                for d in dump_state()["counters"]
            )
        finally:
            stop()


class TestGCounterServiceEquivalence:
    def test_service_state_is_a_gcounter(self):
        """The service's per-name state and a locally merged GCounter
        agree after any sequence of client traffic — the network layer
        adds transport, never semantics."""
        async def scenario():
            async with CounterService() as service:
                client = await AsyncCounterClient.connect(*service.address, source="x")
                try:
                    client.increment("c", 2)
                    await client.flush()
                    await client.increment_rpc("c", 3)
                    service.merge_digests({"c": {"peer": 4}})

                    local = GCounter()
                    local.merge({"x": 5, "peer": 4})
                    assert digests_equal(service.counter("c").digest(), local.digest())
                    assert service.counter("c").value == local.value == 9
                finally:
                    await client.close()

        run(scenario())

"""Tests for the asyncio counter and the thread->loop bridge."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.aio import AsyncCounter, CounterBridge
from repro.core import CheckTimeout, CounterValueError, ResetConcurrencyError
from repro.obs import observe
from tests.helpers import series_of


def run(coro):
    return asyncio.run(coro)


class TestAsyncCounterBasics:
    def test_initial_value(self):
        assert AsyncCounter().value == 0

    def test_increment_returns_new_value(self):
        c = AsyncCounter()
        assert c.increment(3) == 3
        assert c.increment() == 4

    def test_immediate_check(self):
        async def scenario():
            c = AsyncCounter()
            c.increment(5)
            await c.check(5)
            await c.check(0)
            return c.value

        assert run(scenario()) == 5

    def test_validation(self):
        c = AsyncCounter()
        with pytest.raises(CounterValueError):
            c.increment(-1)
        with pytest.raises(CounterValueError):
            run(c.check(-1))
        with pytest.raises(ValueError):
            AsyncCounter(max_value=-2)

    def test_overflow(self):
        from repro.core import CounterOverflowError

        c = AsyncCounter(max_value=2)
        c.increment(2)
        with pytest.raises(CounterOverflowError):
            c.increment(1)
        assert c.value == 2

    def test_repr(self):
        assert "kCount" in repr(AsyncCounter(name="kCount"))


class TestAsyncSuspension:
    def test_check_suspends_until_level(self):
        async def scenario():
            c = AsyncCounter()
            order = []

            async def waiter():
                await c.check(3)
                order.append("woke")

            task = asyncio.ensure_future(waiter())
            await asyncio.sleep(0)
            order.append("inc2")
            c.increment(2)
            await asyncio.sleep(0)
            assert "woke" not in order
            order.append("inc1")
            c.increment(1)
            await task
            return order

        assert run(scenario()) == ["inc2", "inc1", "woke"]

    def test_multiple_levels_one_counter(self):
        async def scenario():
            c = AsyncCounter()
            woke = []

            async def waiter(level):
                await c.check(level)
                woke.append(level)

            tasks = [asyncio.ensure_future(waiter(level)) for level in (3, 1, 2)]
            await asyncio.sleep(0)
            assert c.snapshot().waiting_levels == (1, 2, 3)
            c.increment(2)
            await asyncio.sleep(0)
            assert sorted(woke) == [1, 2]
            c.increment(1)
            await asyncio.gather(*tasks)
            return woke

        woke = run(scenario())
        assert sorted(woke) == [1, 2, 3]

    def test_storage_proportional_to_levels(self):
        async def scenario():
            c = AsyncCounter()
            with observe(trace=False) as h:
                tasks = [
                    asyncio.ensure_future(c.check((i % 3) + 1)) for i in range(12)
                ]
                await asyncio.sleep(0)
                snapshot = c.snapshot()
                assert snapshot.total_waiters == 12
                assert len(snapshot.nodes) == 3  # L, not W
                c.increment(3)
                await asyncio.gather(*tasks)
            tallies = series_of(h, c)
            assert tallies.live_levels_hw == 3
            assert tallies.live_waiters_hw == 12
            assert (tallies.parks, tallies.releases, tallies.unparks) == (12, 3, 12)

        run(scenario())

    def test_check_timeout(self):
        async def scenario():
            c = AsyncCounter()
            with pytest.raises(CheckTimeout):
                await c.check(1, timeout=0.01)
            # state unperturbed, level reclaimed
            assert c.snapshot().nodes == ()
            c.increment(1)
            await c.check(1)

        run(scenario())

    def test_timeout_does_not_disturb_other_waiters(self):
        async def scenario():
            c = AsyncCounter()
            patient = asyncio.ensure_future(c.check(5))
            await asyncio.sleep(0)
            with pytest.raises(CheckTimeout):
                await c.check(5, timeout=0.01)
            assert c.snapshot().total_waiters == 1
            c.increment(5)
            await patient

        run(scenario())

    def test_timeout_leaves_no_pending_task(self):
        """A timed-out check must not strand a pending task on the loop.

        A shield around ``event.wait()`` would protect the inner task
        from ``wait_for``'s cancellation; with the level popped by the
        timed-out last waiter its event is never set, so that task would
        pend forever — one leak per timeout, surfacing as "Task was
        destroyed but it is pending!" at loop shutdown."""

        async def scenario():
            c = AsyncCounter()
            with pytest.raises(CheckTimeout):
                await c.check(1, timeout=0.01)
            await asyncio.sleep(0)
            leftovers = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
            assert leftovers == []

        run(scenario())

    def test_cancelled_waiter_reclaims_level(self):
        async def scenario():
            c = AsyncCounter()
            task = asyncio.ensure_future(c.check(7))
            await asyncio.sleep(0)
            assert c.snapshot().waiting_levels == (7,)
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            assert c.snapshot().nodes == ()

        run(scenario())

    def test_reset_contract(self):
        async def scenario():
            c = AsyncCounter()
            task = asyncio.ensure_future(c.check(1))
            await asyncio.sleep(0)
            with pytest.raises(ResetConcurrencyError):
                c.reset()
            c.increment(1)
            await task
            c.reset()
            assert c.value == 0

        run(scenario())


class TestAsyncPatterns:
    def test_writer_reader_broadcast(self):
        """The §5.3 pattern, coroutine edition."""

        async def scenario():
            n = 20
            data = [None] * n
            c = AsyncCounter()
            seen = []

            async def writer():
                for i in range(n):
                    data[i] = i * i
                    c.increment(1)
                    if i % 5 == 0:
                        await asyncio.sleep(0)

            async def reader():
                out = []
                for i in range(n):
                    await c.check(i + 1)
                    out.append(data[i])
                seen.append(out)

            await asyncio.gather(writer(), reader(), reader())
            return seen

        seen = run(scenario())
        assert seen == [[i * i for i in range(20)]] * 2

    def test_ordered_sections(self):
        """§5.2 ordering with coroutines."""

        async def scenario():
            c = AsyncCounter()
            order = []

            async def worker(i):
                await c.check(i)
                order.append(i)
                c.increment(1)

            await asyncio.gather(*(worker(i) for i in reversed(range(8))))
            return order

        assert run(scenario()) == list(range(8))


class TestCounterBridge:
    def test_thread_increments_wake_coroutine(self):
        async def scenario():
            bridge = CounterBridge(asyncio.get_running_loop(), name="bridge")

            def worker():
                for _ in range(5):
                    bridge.increment(1)

            thread = threading.Thread(target=worker)
            thread.start()
            await asyncio.wait_for(bridge.async_counter.check(5), timeout=10)
            thread.join()
            return bridge.async_counter.value, bridge.thread_counter.value

        async_value, thread_value = run(scenario())
        assert async_value == 5
        assert thread_value == 5

    def test_threads_can_also_check_the_thread_side(self):
        async def scenario():
            bridge = CounterBridge(asyncio.get_running_loop())
            observed = []

            def thread_waiter():
                bridge.thread_counter.check(3, timeout=10)
                observed.append(bridge.thread_counter.value)

            thread = threading.Thread(target=thread_waiter)
            thread.start()
            bridge.increment(3)
            await bridge.async_counter.check(3)
            thread.join(10)
            return observed

        assert run(scenario()) == [3]

    def test_direct_check_wakes_from_thread_increment(self):
        """The engine-era handoff: ``await bridge.check(level)`` parks on
        a loop future the releasing thread completes directly — no
        mirrored AsyncCounter in the wait path."""
        async def scenario():
            bridge = CounterBridge(asyncio.get_running_loop())

            def worker():
                for _ in range(5):
                    bridge.increment(1)

            thread = threading.Thread(target=worker)
            thread.start()
            await asyncio.wait_for(bridge.check(5), timeout=10)
            thread.join()
            return bridge.thread_counter.value

        assert run(scenario()) == 5

    def test_direct_check_already_satisfied_never_parks(self):
        async def scenario():
            bridge = CounterBridge(asyncio.get_running_loop())
            bridge.increment(2)
            await bridge.check(2)  # immediate: no subscription left behind
            await bridge.check(1)
            return bridge.thread_counter.snapshot().waiting_levels

        assert run(scenario()) == ()

    def test_direct_check_timeout_deregisters(self):
        async def scenario():
            bridge = CounterBridge(asyncio.get_running_loop())
            with pytest.raises(CheckTimeout):
                await bridge.check(3, timeout=0.02)
            # The subscription was cancelled: the wait node is reclaimed
            # and a later increment fires nothing stale.
            levels = bridge.thread_counter.snapshot().waiting_levels
            bridge.thread_counter.increment(3)
            return levels

        assert run(scenario()) == ()

    def test_direct_check_satisfaction_racing_expiry_is_success(self):
        """Stability adjudication: if the level is reached by the time the
        expiry fires, the check reports success even when the future's
        completion callback lost the race."""
        async def scenario():
            bridge = CounterBridge(asyncio.get_running_loop())
            # Satisfy on the thread counter *behind the bridge's back* so
            # no deliver callback is ever scheduled, then let an
            # effectively-instant timeout expire: the re-read must win.
            bridge.thread_counter.increment(4)
            task = asyncio.ensure_future(bridge.check(4, timeout=5))
            await task
            return bridge.thread_counter.value

        assert run(scenario()) == 4

    def test_direct_check_cancellation_deregisters(self):
        async def scenario():
            bridge = CounterBridge(asyncio.get_running_loop())
            task = asyncio.ensure_future(bridge.check(7))
            await asyncio.sleep(0)  # let it subscribe and park
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            return bridge.thread_counter.snapshot().waiting_levels

        assert run(scenario()) == ()

    def test_mirror_is_idempotent_under_batching(self):
        async def scenario():
            bridge = CounterBridge(asyncio.get_running_loop())
            for _ in range(10):
                bridge.increment(1)
            await bridge.async_counter.check(10)
            # Duplicate absolute-floor callbacks must not overshoot.
            bridge._raise_to(10)
            bridge._raise_to(4)
            return bridge.async_counter.value

        assert run(scenario()) == 10

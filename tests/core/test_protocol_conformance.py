"""Every counter in the repo satisfies the one §2 contract.

Conformance matrix over: the thread counters (linked, heap, broadcast),
the traced counter, the asyncio counter (via a sync adapter), and the
simulator counter (via a micro-simulation adapter).  Each must expose
``value``/``increment``/``check`` with identical observable semantics on
a shared scenario.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import BroadcastCounter, CounterProtocol, MonotonicCounter
from repro.determinism import DeterminismChecker


def make_async_adapter():
    """Run an AsyncCounter under a private loop, synchronously."""
    from repro.aio import AsyncCounter

    class Adapter:
        def __init__(self):
            self._inner = AsyncCounter()

        @property
        def value(self):
            return self._inner.value

        def increment(self, amount=1):
            return self._inner.increment(amount)

        def check(self, level, timeout=None):
            async def go():
                await self._inner.check(level, timeout=timeout)

            asyncio.run(go())

    return Adapter()


IMPLEMENTATIONS = {
    "linked": lambda: MonotonicCounter(strategy="linked"),
    "linked-locked": lambda: MonotonicCounter(strategy="linked", fast_path=False),
    "heap": lambda: MonotonicCounter(strategy="heap"),
    "broadcast": BroadcastCounter,
    "traced": lambda: DeterminismChecker().counter("c"),
    "async-adapter": make_async_adapter,
}


@pytest.fixture(params=sorted(IMPLEMENTATIONS))
def impl(request):
    return IMPLEMENTATIONS[request.param]()


class TestConformance:
    def test_satisfies_protocol(self, impl):
        assert isinstance(impl, CounterProtocol)

    def test_shared_scenario(self, impl):
        """The same op script must observe the same values everywhere."""
        assert impl.value == 0
        assert impl.increment(0) == 0
        assert impl.increment(2) == 2
        assert impl.increment() == 3
        impl.check(0)
        impl.check(3)
        assert impl.value == 3

    def test_rejects_bad_operands(self, impl):
        from repro.core import CounterValueError

        with pytest.raises(CounterValueError):
            impl.increment(-1)
        with pytest.raises(CounterValueError):
            impl.check(-1)

    def test_timeout_semantics(self, impl):
        from repro.core import CheckTimeout

        impl.increment(1)
        impl.check(1, timeout=5)  # satisfied: no exception
        with pytest.raises(CheckTimeout):
            impl.check(99, timeout=0.01)

    def test_value_never_decreases_over_script(self, impl):
        last = impl.value
        for amount in (3, 0, 1, 5, 0, 2):
            value = impl.increment(amount)
            assert value >= last
            last = value


class TestSimCounterConformance:
    """SimCounter lives in virtual time, so its conformance scenario runs
    inside a micro-simulation."""

    def test_shared_scenario(self):
        from repro.simthread import Simulation

        sim = Simulation()
        counter = sim.counter("c")
        observed = []

        def script():
            yield counter.increment(0)
            yield counter.increment(2)
            yield counter.increment(1)
            yield counter.check(0)
            yield counter.check(3)
            observed.append(counter.value)

        sim.spawn(script())
        sim.run()
        assert observed == [3]

    def test_blocking_semantics(self):
        from repro.simthread import Compute, Simulation

        sim = Simulation()
        counter = sim.counter("c")
        wake = []

        def producer():
            yield Compute(5.0)
            yield counter.increment(3)

        def consumer():
            yield counter.check(3)
            wake.append(sim.now)

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert wake == [5.0]

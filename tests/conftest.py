"""Suite-wide fixtures: every counter implementation, parametrized.

Most counter tests run against all three implementations —
``MonotonicCounter(strategy="linked")`` (the paper's §7 algorithm),
``MonotonicCounter(strategy="heap")``, and the naive
``BroadcastCounter`` — because they promise identical semantics and the
differential coverage is nearly free.
"""

from __future__ import annotations

import pytest

from repro.core import BroadcastCounter, MonotonicCounter

COUNTER_FACTORIES = {
    "linked": lambda **kw: MonotonicCounter(strategy="linked", **kw),
    "heap": lambda **kw: MonotonicCounter(strategy="heap", **kw),
    "broadcast": lambda **kw: BroadcastCounter(**kw),
}


@pytest.fixture(params=sorted(COUNTER_FACTORIES))
def counter_factory(request):
    """A zero-state counter factory, parametrized over implementations."""
    return COUNTER_FACTORIES[request.param]


@pytest.fixture(params=sorted(COUNTER_FACTORIES))
def counter(request):
    """A fresh counter instance, parametrized over implementations."""
    return COUNTER_FACTORIES[request.param]()


@pytest.fixture(params=["linked", "heap"])
def paper_counter(request):
    """Only the per-level-queue implementations (snapshot-accurate)."""
    return MonotonicCounter(strategy=request.param)

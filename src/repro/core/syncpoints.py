"""Named synchronization points — the instrumentation seam for ``repro.testkit``.

The production counter code is sprinkled with *sync points*: named
positions in the synchronization protocol (immediately before a lock
acquisition, a flag write, a drain-set mutation) where a
schedule-injection harness may interpose.  Each site compiles to

.. code-block:: python

    if _sp.enabled:
        _sp.fire("increment.drain", self)

so the disabled cost is one module-attribute read and a branch — and the
sites are chosen so that **no sync point lies on the lock-free
immediate-``check`` fast path**: an already-satisfied ``check`` never
touches this module at all.  ``docs/testing.md`` lists every point and
its position in the protocol; ``docs/api.md`` records the measured
(non-)impact.

Only one hook can be installed at a time (the testkit serializes
schedules through :func:`install`/:func:`uninstall`).  The hook receives
``(point, obj)`` where ``obj`` is the primitive firing the point — a
counter for ``increment.*``/``check.*``/``park.*``/``subscribe.*`` points, a
:class:`~repro.core.waitlist.WaitNode` for ``node.*`` points, a
:class:`~repro.core.multiwait.MultiWait` for ``multiwait.*`` points, a
:class:`~repro.core.engine.WheelEntry` for ``wheel.*`` points.  The
hook runs in the thread executing the operation, possibly while that
thread holds the primitive's internal locks (each point's docstring entry
in ``docs/testing.md`` says which); it may block the thread (that is the
point), but must not call back into the primitive.
"""

from __future__ import annotations

import threading
from typing import Callable

__all__ = [
    "enabled",
    "install",
    "uninstall",
    "fire",
    "POINTS",
    "BLOCKING_POINTS",
]

#: Read by every instrumented site; True only between install/uninstall.
enabled = False

_hook: Callable[[str, object], None] | None = None
_install_lock = threading.Lock()

#: Every compiled-in sync point, grouped by protocol position.  Kept as
#: data so the testkit and the docs can enumerate them; the strings at
#: the call sites are the source of truth, and the testkit's self-test
#: (``TestPointRegistry``) asserts the two sets are equal.
POINTS = frozenset(
    {
        # MonotonicCounter.increment
        "increment.lock",      # before acquiring the counter lock
        "increment.release",   # inside the lock, before marking nodes released
        "increment.drain",     # inside the lock, before the _draining insert
        "increment.unlock",    # after the critical section, before the signal pass
        "increment.signal",    # before each node.signal() of the coalesced pass
        # MonotonicCounter.check / _park
        "check.lock",          # slow path, before acquiring the counter lock
        "park.enter",          # registered, before parking on the engine slot
        "park.verdict",        # no lock held, after the timer wheel won the claim
        "park.adjudicate",     # timeout path, before acquiring the counter lock
        "park.drain",          # last leaver, before the _draining pop
        # MonotonicCounter.subscribe / CounterSubscription.cancel
        "subscribe.lock",      # before acquiring the counter lock to register
        "subscribe.cancel",    # before acquiring the counter lock to deregister
        # WaitNode.signal (fired with the node, not the counter)
        "node.signal",         # before publishing signaled + the slot sets
        "node.subscribers",    # outside both locks, before firing callbacks
        # MultiWait
        "multiwait.fire",      # subscription callback, before taking the MultiWait lock
        "multiwait.park",      # wait_all/wait_any, before taking the MultiWait lock
        "multiwait.close",     # close, before taking the MultiWait lock
        # repro.dist.GCounter (replication state of the counter fabric)
        "gcounter.lock",       # bump/merge, before acquiring the contributions lock
        "gcounter.merge",      # inside the lock, before applying a digest's maxes
        "gcounter.publish",    # after the lock, before raising the wait mirror
        # repro.apps.ratelimit (the counter-backed quota service)
        "ratelimit.lock",      # try_acquire, before acquiring the entry lock
        "ratelimit.roll",      # inside the entry lock, before retiring a window
        "ratelimit.evict",     # limiter lock held, before evicting an LRU entry
        # Engine claim race (fired with the WheelEntry)
        "wheel.release",       # release pass, before the entry's claim pop
        "wheel.timeout",       # sweeper/timeout side, before the claim pop
    }
)

#: Points after which the firing thread is expected to block in a real
#: primitive (an engine parking-slot wait).  Schedulers treat a thread
#: granted through one of these as immediately off-schedule instead of
#: waiting out a stall timeout.  A pending *timed* wake from any of them
#: is always visible to the harness: counter and MultiWait parks stage
#: their timeouts through the shared timer wheel (after a ~20ms grace
#: wait), so "every unfinished worker parked here + wheel empty + short
#: silence" proves a deadlock instantly.
BLOCKING_POINTS = frozenset({"park.enter", "multiwait.park"})


def install(hook: Callable[[str, object], None]) -> None:
    """Install ``hook`` as the process-wide sync-point hook.

    Raises :class:`RuntimeError` if one is already installed — schedules
    must not overlap.
    """
    global _hook, enabled
    if not callable(hook):
        raise TypeError(f"hook must be callable, got {hook!r}")
    with _install_lock:
        if _hook is not None:
            raise RuntimeError("a sync-point hook is already installed")
        _hook = hook
        enabled = True


def uninstall() -> None:
    """Remove the installed hook (idempotent)."""
    global _hook, enabled
    with _install_lock:
        enabled = False
        _hook = None


def fire(point: str, obj: object) -> None:
    """Deliver ``point`` to the installed hook, if any.

    Snapshots the hook before calling so a concurrent :func:`uninstall`
    can never produce a ``None`` call — late fires from threads that
    outlive their schedule simply fall through.
    """
    hook = _hook
    if hook is not None:
        hook(point, obj)

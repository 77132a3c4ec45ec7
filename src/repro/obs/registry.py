"""Weakref registry of live counters — who can be observed right now.

Every concrete counter registers itself at construction (one
``WeakSet.add``, off every hot path); the set holds only weak
references, so a counter that the program drops disappears from the
registry with it — observation never extends a counter's lifetime.

The registry is what makes ambient introspection possible at all: the
stall watchdog scans it, ``repro.obs.dump_state()`` renders it, and the
metrics registry folds the live counters' opt-in ``CounterStats`` into
its export.  Handles that keep internal counters (an shm handle's
waiter mirror and seat count) deregister them so each logical counter
appears exactly once, and the shm and service handles deregister
themselves on ``close()``.
"""

from __future__ import annotations

import weakref

__all__ = ["register", "deregister", "live_counters", "label"]

_counters: "weakref.WeakSet[object]" = weakref.WeakSet()


def register(counter: object) -> None:
    """Add ``counter`` to the live registry (constructor-time, weakly)."""
    _counters.add(counter)


def deregister(counter: object) -> None:
    """Drop ``counter`` from the registry (used by wrapping counters)."""
    _counters.discard(counter)


def live_counters() -> list[object]:
    """A snapshot list of every registered counter still alive."""
    return list(_counters)


def label(obj: object) -> str:
    """Stable display label: the primitive's ``name`` if given, else
    ``ClassName@0xADDR``.  Name long-lived counters — unnamed ones get
    per-instance labels, which fragment metric series.

    The computed label is memoized on the instance (the ``_obs_label``
    slot the instrumented primitives carry) so the per-event cost is one
    attribute read instead of a string format; objects without the slot
    just recompute.  Sound to cache: ``_name`` is set once at
    construction and never mutated.
    """
    cached = getattr(obj, "_obs_label", None)
    if cached is not None:
        return cached
    name = getattr(obj, "_name", None)
    text = str(name) if name else f"{type(obj).__name__}@{id(obj):#x}"
    try:
        obj._obs_label = text  # type: ignore[attr-defined]
    except AttributeError:
        pass  # no slot / frozen object: skip the memo
    return text

"""Weakref registry of live counters — who can be observed right now.

Every concrete counter registers itself at construction: one plain
``weakref.ref`` with no callback, stored under the counter's ``id`` in a
dict.  A counter's death runs no Python code (the interpreter clears
the ref), so observation never extends a counter's lifetime and never
taxes a short-lived one.  Registration is one dict store, atomic under
the GIL, and takes no lock (the rate limiter builds two counters per
new key, so it is on the limiter's evicting call).  Everything that
removes an entry (:func:`deregister` and the prune) runs under one
lock.  Dead refs are pruned when the map has doubled since the last
prune, which keeps it within about twice the live count at amortized
O(1) per registration.

The registry is what makes ambient introspection possible at all: the
stall watchdog scans it and ``repro.obs.dump_state()`` renders it.
Handles that keep internal counters (an shm handle's
waiter mirror and seat count) deregister them so each logical counter
appears exactly once, and the shm and service handles deregister
themselves on ``close()``.
"""

from __future__ import annotations

import threading
import weakref

__all__ = ["register", "deregister", "live_counters", "label"]

#: Smallest map size that triggers a prune of dead refs.
_PRUNE_MIN = 64

_ref = weakref.ref
#: Serializes removals (deregister, prune); inserts do not take it.
_lock = threading.Lock()
#: id(counter) -> weakref.ref(counter).  A dead counter's id can be
#: reused by a new one, which then overwrites the stale entry.
_refs: dict[int, weakref.ref] = {}
_prune_at = _PRUNE_MIN


def register(counter: object) -> None:
    """Add ``counter`` to the live registry (constructor-time, weakly)."""
    _refs[id(counter)] = _ref(counter)
    if len(_refs) >= _prune_at:
        _prune()


def _prune() -> None:
    """Drop dead refs and move the next prune to twice the survivors.

    Registrations keep landing while this runs.  The entries are read
    from a copy (one C call that allocates nothing per entry, so no
    insert lands mid-copy), and a dead entry is popped, not deleted: if
    a new counter took its id after the copy, the pop returns that
    counter's live ref, which goes straight back.  No other removal can
    interleave (both take the lock), and the live counter's id cannot
    be reused while it lives.
    """
    global _prune_at
    with _lock:
        for key, ref in _refs.copy().items():
            if ref() is None:
                popped = _refs.pop(key, None)
                if popped is not None and popped is not ref:
                    _refs.setdefault(key, popped)
        _prune_at = max(_PRUNE_MIN, 2 * len(_refs))


def deregister(counter: object) -> None:
    """Drop ``counter`` from the registry (used by wrapping counters).

    Only ``counter``'s own entry goes: the entry under its id may be a
    dead ref left by an earlier counter that had the same id.
    """
    key = id(counter)
    with _lock:
        ref = _refs.get(key)
        if ref is not None and ref() is counter:
            del _refs[key]


def live_counters() -> list[object]:
    """A snapshot list of every registered counter still alive."""
    refs = _refs.copy().values()  # see _prune: no insert lands mid-copy
    return [counter for ref in refs if (counter := ref()) is not None]


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

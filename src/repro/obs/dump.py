"""Live state introspection: who waits on what, right now.

``dump_state()`` walks the weakref registry of live counters and renders
each one as a plain dict — current value, every waiting level with its
waiter count and signaled flag, and (for fabric-backed counters) the
published cross-process total.  The result is JSON-ready, suitable for
a debug endpoint, a crash handler, or the ``python -m repro.obs dump``
CLI.

Consistency contract: every number is captured with the same discipline
the primitives' own ``snapshot()`` methods use, and a fabric total (an
shm slot scan or a service's last-acknowledged total) only ever lags
the true total, so the reported value is always a *lower bound* — a
dump can under-report in-flight units, it can never invent them.
Monotonicity is what makes the stale read sound: the value only ever
increases, so a lower bound stays a lower bound.

The dump never blocks on a wedged counter (snapshot reads take the
counter lock only briefly) and never crashes on a racing asyncio
counter (a mid-mutation capture is retried, then skipped with a note).
"""

from __future__ import annotations

from typing import Any

from repro.core import engine
from repro.obs import registry

__all__ = ["dump_state", "dump_counter"]


def dump_counter(counter: object) -> dict[str, Any] | None:
    """One live counter as a JSON-ready dict; None if capture failed."""
    for _ in range(2):
        try:
            return _render(counter)
        except RuntimeError:
            # An asyncio counter's loop mutated the level dict mid-read;
            # one retry, then report the failure rather than guessing.
            continue
        except Exception as exc:
            return {
                "name": registry.label(counter),
                "type": type(counter).__name__,
                "error": f"{type(exc).__name__}: {exc}",
            }
    return {
        "name": registry.label(counter),
        "type": type(counter).__name__,
        "error": "capture raced concurrent mutation twice; skipped",
    }


def _render(counter: object) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "name": registry.label(counter),
        "type": type(counter).__name__,
    }
    dist_snapshot = getattr(counter, "dist_snapshot", None)
    if dist_snapshot is not None:
        # Fabric-backed counters (repro.dist): the published sum is read
        # with the same lower-bound discipline — a shm scan brackets
        # between the true totals at scan start and end, a service
        # handle reports the last server-acknowledged total.  Stale can
        # only under-report; monotonicity keeps the bound sound.
        doc["dist"] = dist_snapshot()
        doc["published"] = doc["dist"]["published"]
    snap = counter.snapshot()
    doc["value"] = snap.value
    doc["waiting"] = [
        {"level": node.level, "waiters": node.count, "signaled": bool(node.signaled)}
        for node in snap.nodes
        if node.count > 0
    ]
    doc["waiting_levels"] = sum(1 for w in doc["waiting"] if not w["signaled"])
    doc["total_waiters"] = sum(w["waiters"] for w in doc["waiting"] if not w["signaled"])
    return doc


def dump_state() -> dict[str, Any]:
    """Every live registered counter, rendered for humans and JSON alike.

    The top-level ``counters`` list is sorted by label for stable diffs;
    ``totals`` aggregates the headline numbers so a glance answers "is
    anything waiting, and how much".
    """
    counters = []
    for counter in registry.live_counters():
        doc = dump_counter(counter)
        if doc is not None:
            counters.append(doc)
    counters.sort(key=lambda d: d["name"])
    return {
        "counters": counters,
        "totals": {
            "counters": len(counters),
            "waiting_levels": sum(d.get("waiting_levels", 0) for d in counters),
            "waiters": sum(d.get("total_waiters", 0) for d in counters),
        },
        # Wakeup-engine internals: the shared timer wheel's armed
        # deadlines and the live parking-slot population.  Both reads
        # are diagnostic snapshots (wheel lock held briefly; the slot
        # count is a weak-set len) — a wedged waiter shows up here as an
        # armed entry whose deadline_in_s keeps shrinking.
        "engine": {
            "timer_wheel": engine.wheel().snapshot(),
            "parking_slots": engine.live_slot_count(),
        },
    }

"""Partial-order machinery over grant traces: the DPOR substrate.

A scheduler-driven run is fully described by its grant sequence (the
:class:`~repro.testkit.trace.Trace`).  Because a controller-owned worker
stops at **every** sync point it reaches, the code a grant releases runs
from one gate to the next — so the grant's footprint (which shared
primitive it may touch next) is exactly its gate's ``(point, obj)``
label.  That observation turns the grant trace into a Mazurkiewicz
trace: two grants *commute* (swapping them cannot change any reachable
state) whenever they are by different workers **and** their footprints
touch different primitives.

This module defines that dependence relation and the three derived
objects the explorer (:mod:`repro.testkit.explore`) needs:

* :func:`happens_before_clocks` — one vector clock per grant (reusing
  :class:`repro.determinism.VectorClock`), where grant *i* happens
  before grant *j* iff there is a chain of dependent grants from *i*
  to *j*;
* :func:`racing_pairs` — the adjacent-in-the-partial-order dependent
  pairs by different workers that are not otherwise ordered: exactly
  the places where reversing the pair may reach a new state (DPOR's
  backtracking points);
* :func:`canonical_key` — the Foata normal form of the trace's
  dependence DAG: equivalent interleavings (equal up to commuting
  adjacent independent grants) map to the same key, so "how many
  *inequivalent* schedules did we cover" is a set of keys.

Object identities are run-specific (``id()`` changes between the
re-executions DPOR performs), so footprints name objects through an
:class:`ObjLabeler` — a per-run map from primitive to a stable
first-sighting label (``"o0"``, ``"o1"``...).  Deterministic models
sight their primitives in the same order on every execution, which is
what makes labels comparable across runs (the explorer cross-checks
this with its divergence counter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from repro.determinism import VectorClock

__all__ = [
    "GrantEvent",
    "ObjLabeler",
    "READ_POINTS",
    "LOCAL_POINTS",
    "SYMMETRIC_POINTS",
    "family_of",
    "conflicts",
    "footprints_conflict",
    "annotate",
    "happens_before_clocks",
    "racing_pairs",
    "canonical_key",
]

#: Point prefixes whose object is the primitive that scopes the
#: dependence: two grants on different primitives of these kinds touch
#: disjoint state and commute.
_OBJECT_SCOPED_PREFIXES = (
    "increment.",
    "check.",
    "park.",
    "subscribe.",
    "gcounter.",
    "wheel.",
)


#: Points whose grant segment only *reads* shared state: the code from
#: thread launch to the first real gate performs at most a lock-free
#: value read (``check``'s fast path) — every mutation of a shared
#: primitive fires a gate first.  Two read-only segments of different
#: workers always commute, whatever they read.  (This holds for worker
#: bodies that only touch instrumented primitives; a body mutating
#: bare shared objects before its first gate is outside the testkit's
#: dependence model.)
READ_POINTS = frozenset({"start"})

#: Points whose grant segment touches only the granting thread's own
#: state.  ``park.enter`` fires immediately before ``slot.block()`` on
#: the thread's private parking slot, so the granted segment is exactly
#: "this thread parks" — the post-wake bookkeeping (countdown pop,
#: draining-set removal) runs later, inside the wake-*delivering*
#: grant's window, and is ordered by that grant's wildcard footprint.
#: A local grant therefore commutes with everything except wildcard
#: (wake-delivery) grants: parking before or after a value publication
#: reaches the same state because a slot set is banked, never lost.
#: Only sound for **untimed** waits (a timed park's segment also arms
#: the shared timer wheel) — which explorer models must use anyway.
LOCAL_POINTS = frozenset({"park.enter"})

#: Points where two grants by *different* workers on the *same*
#: primitive still commute with each other: ``check.lock`` segments
#: register wait-nodes (insertion order into the waitlist is
#: unobservable — a release pass wakes whole levels, and the value read
#: both segments make cannot change between them); ``park.drain``
#: segments pop distinct per-node entries from the draining set.
SYMMETRIC_POINTS = frozenset({"check.lock", "park.drain"})

#: Points whose segment never publishes a counter value — the only
#: shared state a :data:`READ_POINTS` segment can observe.  A read
#: segment commutes with these; against anything else (``increment.lock``
#: assigns the new value inside its segment, wildcards are unknown) the
#: read stays conservatively ordered.
VALUE_READ_COMPAT = frozenset(
    {
        "check.lock",
        "park.enter",
        "park.drain",
        "park.verdict",
        "park.adjudicate",
        "subscribe.lock",
        "subscribe.cancel",
        # Engine plumbing mutates slots/claims, never a value a
        # fast-path read could observe.
        "wheel.release",
        "wheel.timeout",
    }
)


def family_of(point: str, label: Hashable | None) -> Hashable | None:
    """The dependence family of a grant at ``point`` on object ``label``.

    Returns a hashable family key, or ``None`` for the *wildcard*
    family that conflicts with everything (modulo read-read, see
    :data:`READ_POINTS`).  ``start`` grants (the code from thread
    launch to the first real gate) and ``node.*`` / ``multiwait.*``
    grants (wait-node and fan-in plumbing that reaches across
    primitives via subscriptions) are wildcards: treating them as
    dependent on everything is always sound, it only costs reduction.
    """
    for prefix in _OBJECT_SCOPED_PREFIXES:
        if point.startswith(prefix):
            return None if label is None else ("obj", label)
    return None


@dataclass(frozen=True, slots=True)
class GrantEvent:
    """One grant, annotated for dependence analysis."""

    index: int
    thread: str
    point: str
    family: Hashable | None  #: None = wildcard (conflicts with all)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.thread}:{self.point}"


def _pair_conflicts(
    pa: str, fa: Hashable | None, pb: str, fb: Hashable | None
) -> bool:
    """Cross-worker dependence between two (point, family) footprints."""
    a_read, b_read = pa in READ_POINTS, pb in READ_POINTS
    if a_read and b_read:
        return False
    a_local, b_local = pa in LOCAL_POINTS, pb in LOCAL_POINTS
    if a_local or b_local:
        if a_local and b_local:
            return False  # two threads parking their own slots
        # A local grant orders only against wake-delivery (wildcard,
        # non-read) grants — those are what set its slot.
        point, family, read = (pb, fb, b_read) if a_local else (pa, fa, a_read)
        return family is None and not read
    if a_read or b_read:
        # A read segment commutes with value-preserving segments; only
        # a value publication (or an unknown wildcard) orders it.
        other = pb if a_read else pa
        return other not in VALUE_READ_COMPAT
    if pa == pb and pa in SYMMETRIC_POINTS and fa == fb:
        return False
    return fa is None or fb is None or fa == fb


def footprints_conflict(
    a: tuple[str, Hashable | None], b: tuple[str, Hashable | None]
) -> bool:
    """Do two (point, label) footprints of *different* workers touch
    common state?  (Callers handle the same-worker case — program order
    always conflicts.)"""
    return _pair_conflicts(
        a[0], family_of(a[0], a[1]), b[0], family_of(b[0], b[1])
    )


def conflicts(a: GrantEvent, b: GrantEvent) -> bool:
    """Dependence relation: same worker, or overlapping footprints.

    Same-worker grants never commute (program order); cross-worker
    grants conflict when either footprint is wildcard or both name the
    same primitive family — refined by the read-only
    (:data:`READ_POINTS`), thread-local (:data:`LOCAL_POINTS`) and
    symmetric (:data:`SYMMETRIC_POINTS`) commutation facts above.
    """
    if a.thread == b.thread:
        return True
    return _pair_conflicts(a.point, a.family, b.point, b.family)


class ObjLabeler:
    """Stable per-run labels for the primitives a schedule touches.

    Labels are assigned in first-sighting order (``"o0"``, ``"o1"``...)
    and the labeled objects are kept referenced so ``id()`` reuse can
    never alias two primitives to one label within a run.
    """

    __slots__ = ("_labels", "_keep")

    def __init__(self) -> None:
        self._labels: dict[int, str] = {}
        self._keep: list[object] = []

    def label(self, obj: object) -> str | None:
        if obj is None:
            return None
        key = id(obj)
        label = self._labels.get(key)
        if label is None:
            label = f"o{len(self._keep)}"
            self._labels[key] = label
            self._keep.append(obj)
        return label


def annotate(
    steps: Iterable[object], labeler: ObjLabeler | None = None
) -> list[GrantEvent]:
    """Turn trace steps (``.thread``/``.point``/optional ``.obj``) into
    :class:`GrantEvent`\\ s, labeling objects through ``labeler``."""
    labeler = labeler or ObjLabeler()
    events: list[GrantEvent] = []
    for index, step in enumerate(steps):
        label = labeler.label(getattr(step, "obj", None))
        events.append(
            GrantEvent(index, step.thread, step.point, family_of(step.point, label))
        )
    return events


def _dependence_edges(events: Sequence[GrantEvent]) -> list[list[int]]:
    """For each event index j, the sorted indices i < j with conflicts(i, j)."""
    preds: list[list[int]] = []
    for j, ej in enumerate(events):
        preds.append([i for i in range(j) if conflicts(events[i], ej)])
    return preds


def happens_before_clocks(events: Sequence[GrantEvent]) -> list[VectorClock]:
    """One vector clock per grant; ``clocks[i].happens_before(clocks[j])``
    iff grant *i* is ordered before grant *j* by a dependent chain.

    Threads are mapped to clock components by first appearance; the
    clock of event *j* joins every earlier conflicting event's clock and
    then ticks *j*'s own thread component.
    """
    tids: dict[str, int] = {}
    clocks: list[VectorClock] = []
    for j, event in enumerate(events):
        tid = tids.setdefault(event.thread, len(tids))
        clock = VectorClock()
        for i in range(j):
            if conflicts(events[i], event):
                clock.join(clocks[i])
        clock.tick(tid)
        clocks.append(clock)
    return clocks


def racing_pairs(events: Sequence[GrantEvent]) -> list[tuple[int, int]]:
    """Dependent cross-worker pairs with no *other* ordering between them.

    A pair ``(i, j)`` races when the grants conflict, belong to
    different workers, and removing the direct ``i -> j`` dependence
    edge leaves them concurrent — i.e. their order in this trace is a
    genuine scheduling choice, not a consequence of other dependences.
    These are the reversal candidates a DPOR explorer backtracks on.
    """
    races: list[tuple[int, int]] = []
    n = len(events)
    for j in range(n):
        ej = events[j]
        for i in range(j):
            ei = events[i]
            if ei.thread == ej.thread or not conflicts(ei, ej):
                continue
            # Is i -> j implied transitively without the direct edge?
            # Recompute j's clock joining every predecessor except i.
            tids: dict[str, int] = {}
            clocks: list[VectorClock] = []
            for k in range(j + 1):
                tid = tids.setdefault(events[k].thread, len(tids))
                clock = VectorClock()
                for m in range(k):
                    if k == j and m == i:
                        continue
                    if conflicts(events[m], events[k]):
                        clock.join(clocks[m])
                clock.tick(tid)
                clocks.append(clock)
            if not clocks[i].happens_before(clocks[j]):
                races.append((i, j))
    return races


def canonical_key(events: Sequence[GrantEvent]) -> tuple:
    """Foata normal form of the trace's dependence DAG.

    Repeatedly peel the dependence-minimal events into a level and sort
    each level by ``(thread, point)`` label.  Two interleavings that
    differ only by commuting adjacent independent grants share their
    DAG and therefore their key — the explorer counts distinct keys as
    *inequivalent schedules covered*.
    """
    preds = _dependence_edges(events)
    remaining = set(range(len(events)))
    levels: list[tuple[tuple[str, str], ...]] = []
    while remaining:
        frontier = [j for j in remaining if not any(i in remaining for i in preds[j])]
        levels.append(
            tuple(sorted((events[j].thread, events[j].point) for j in frontier))
        )
        remaining.difference_update(frontier)
    return tuple(levels)

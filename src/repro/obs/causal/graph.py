"""The causal graph: who released whom, reconstructed from a trace.

A schema-v2/v3 trace is a flat event stream; this module rebuilds the
structures the analyses need:

* **Wait intervals** — for every suspended ``check`` (and MultiWait
  wait), the ``park`` event and the ``unpark``/``timeout`` that ended
  it, matched per thread by correlation ``token`` (FIFO per
  ``(thread, source, level)`` for token-less pre-v2 / baseline events).
* **Release edges** — for every interval that ended in a wakeup, the
  ``release`` event that unlinked its wait node (same ``token``) and,
  through the release's ``cause_seq``, the increment whose advance did
  it.  An edge is the trace-level form of the paper's synchronization
  arrow: *thread R's increment happened-before thread W's resumption*.
* **Wire edges** — in merged multi-process traces (schema v3), waits
  whose wakeup crossed the wire.  A dist client's ``unpark`` carries
  the correlation token of its subscription; the server's
  ``push_deliver`` carries the same token plus the ``cause_seq`` of the
  increment that satisfied it, so the edge runs *server increment →
  push → client unpark* with no token-matched local release at all.
  Likewise a shm seat holder's ``unpark`` (and a shm follower's
  locally-matched release) carries the bell correlation, which names
  the writer-side ``bell_ring`` that rang it — the edge's
  :attr:`Edge.origin` is then the foreign bell event.

Events are ordered by ``seq`` (the process-global emission counter),
not buffer position or timestamp: the deferred release emission means
physical append order can interleave, but seq order is causal order by
construction (:mod:`repro.obs.hooks` pre-allocates the seqs).  Traces
without seqs (pre-v2 JSONL) fall back to timestamp order.  Merged
multi-pid traces order by ``(ts, pid, seq)`` — seqs from different
processes are incomparable, so the (offset-rebased, see
:mod:`repro.obs.collect`) timestamp is the only global axis, with the
per-pid seq still breaking ties causally within a process.

Thread identity follows the trace: in a single-process trace a thread
is its raw ident (an ``int``, as in schema v2); in a multi-pid trace it
is the ``(pid, ident)`` pair — raw idents can collide across processes.
:meth:`CausalGraph.thread_pid` / :meth:`~CausalGraph.thread_tid` split
a key without caring which form it takes.

Everything here is read-side analysis over a detached snapshot — it
never touches the live primitives and is free to take its time.
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Iterable

from repro.obs.events import Event

__all__ = ["CausalGraph", "Edge", "WaitInterval", "PathStep"]

#: Event kinds that open a wait interval, mapped to the kinds that close it.
_PARK_KINDS = {
    "park": ("unpark", "timeout"),
    "mw_park": ("mw_wake", "mw_timeout"),
}
_END_KINDS = {"unpark", "timeout", "mw_wake", "mw_timeout"}

#: A thread key: raw ident in single-pid traces, (pid, ident) in merged ones.
ThreadKey = "int | tuple[int, int]"


@dataclass(frozen=True)
class WaitInterval:
    """One thread's suspension: ``park`` event through its ending event."""

    thread: int
    source: str
    level: int | None
    token: int | None
    park: Event
    end: Event
    pid: int | None = None

    @property
    def timed_out(self) -> bool:
        return self.end.kind in ("timeout", "mw_timeout")

    @property
    def duration(self) -> float:
        return self.end.ts - self.park.ts


@dataclass(frozen=True)
class Edge:
    """A cross-thread wakeup: ``release`` (and its increment) → a wait's end.

    ``from_thread``/``to_thread`` are thread *keys* (see module
    docstring); when not supplied they default to the raw idents of the
    release and waiting events, which is exactly the single-pid case.
    ``origin``, when set, is the foreign-process event the release was
    correlated to (a shm ``bell_ring`` or a service ``push_deliver``) —
    the true cross-process start of the arrow.
    """

    release: Event
    increment: Event | None
    wait: WaitInterval
    from_thread: "ThreadKey | None" = None
    to_thread: "ThreadKey | None" = None
    origin: Event | None = None

    def __post_init__(self) -> None:
        if self.from_thread is None:
            object.__setattr__(self, "from_thread", self.release.thread)
        if self.to_thread is None:
            object.__setattr__(self, "to_thread", self.wait.thread)

    @property
    def crosses_pid(self) -> bool:
        return (
            isinstance(self.from_thread, tuple)
            and isinstance(self.to_thread, tuple)
            and self.from_thread[0] != self.to_thread[0]
        )


@dataclass(frozen=True)
class PathStep:
    """One segment of the critical path, on one thread."""

    thread: "ThreadKey"
    kind: str  # "run" | "wakeup" | "wait"
    start: float
    end: float
    detail: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CausalGraph:
    """The analyzed trace: events, wait intervals, release + wire edges.

    Build with :meth:`from_events` (any iterable of :class:`Event` or
    ``as_dict``-shaped mappings) or :meth:`from_jsonl`.
    """

    events: list[Event]
    waits: list[WaitInterval] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)
    #: Release edge lookup by the wait's ending event (seq, or (pid, seq)).
    edge_by_end: dict[object, Edge] = field(default_factory=dict)
    #: Thread keys in order of first appearance, mapped to display index.
    thread_index: dict[object, int] = field(default_factory=dict)
    #: Distinct stamped pids, in order of first appearance.
    pids: list[int] = field(default_factory=list)
    #: frame_send/push_deliver → frame_recv pairs by correlation token.
    wire_edges: list[tuple[Event, Event]] = field(default_factory=list)

    # ------------------------------------------------------------ construction

    @classmethod
    def from_events(cls, events: Iterable[Event | dict]) -> "CausalGraph":
        evs = [e if isinstance(e, Event) else Event.from_dict(e) for e in events]
        pids: list[int] = []
        for e in evs:
            if e.pid is not None and e.pid not in pids:
                pids.append(e.pid)
        if len(pids) > 1:
            # Cross-process: per-pid seqs don't compare; (rebased) time is
            # the shared axis, seq still breaks same-pid ties causally.
            evs.sort(key=lambda e: (e.ts, e.pid or 0, e.seq or 0))
        elif evs and all(e.seq is not None for e in evs):
            evs.sort(key=lambda e: e.seq)
        else:
            evs.sort(key=lambda e: e.ts)
        graph = cls(events=evs, pids=pids)
        graph._build()
        return graph

    @classmethod
    def from_jsonl(cls, path: str) -> "CausalGraph":
        with open(path, "r", encoding="utf-8") as fh:
            docs = [json.loads(line) for line in fh if line.strip()]
        return cls.from_events(docs)

    # Thread/event keying.  Single-pid graphs keep the schema-v2 shapes
    # (ints and bare seqs) so v2 traces and their tests read identically;
    # multi-pid graphs qualify everything by pid.

    @property
    def multi_pid(self) -> bool:
        return len(self.pids) > 1

    def _pid_of(self, event: Event) -> int | None:
        if not self.multi_pid:
            return None
        return event.pid if event.pid is not None else 0

    def _tkey(self, event: Event):
        if self.multi_pid:
            return (self._pid_of(event), event.thread)
        return event.thread

    def _wkey(self, wait: WaitInterval):
        if self.multi_pid:
            return (wait.pid if wait.pid is not None else 0, wait.thread)
        return wait.thread

    def _end_key(self, event: Event):
        if event.seq is None:
            return None
        if self.multi_pid:
            return (self._pid_of(event), event.seq)
        return event.seq

    def edge_for(self, wait: WaitInterval) -> Edge | None:
        """The release edge that ended ``wait``, if the trace shows one."""
        key = self._end_key(wait.end)
        return self.edge_by_end.get(key) if key is not None else None

    def _build(self) -> None:
        for event in self.events:
            key = self._tkey(event)
            if key not in self.thread_index:
                self.thread_index[key] = len(self.thread_index)
        # Pass 1: match each park with the event that ended it.  Tokened
        # parks match exactly (a thread has at most one live wait per
        # token); token-less ones (BroadcastCounter, pre-v2 traces) match
        # FIFO per (thread, source, level) — sound because one thread's
        # waits on one level cannot overlap.  Every key is pid-qualified
        # via _tkey/_pid_of: tokens and seqs are per-process counters.
        pending_token: dict[tuple, Event] = {}
        pending_fifo: dict[tuple, deque[Event]] = defaultdict(deque)
        releases_by_token: dict[tuple, list[Event]] = defaultdict(list)
        increments: dict[tuple, Event] = {}
        for event in self.events:
            kind = event.kind
            if kind == "increment" and event.seq is not None:
                increments[(self._pid_of(event), event.seq)] = event
            elif kind == "release" and event.token is not None:
                releases_by_token[(self._pid_of(event), event.token)].append(event)
            elif kind in _PARK_KINDS:
                if event.token is not None:
                    pending_token[(self._tkey(event), event.token)] = event
                else:
                    pending_fifo[(self._tkey(event), event.source, event.level)].append(event)
            elif kind in _END_KINDS:
                park = None
                if event.token is not None:
                    park = pending_token.pop((self._tkey(event), event.token), None)
                if park is None:
                    queue = pending_fifo.get((self._tkey(event), event.source, event.level))
                    if queue:
                        park = queue.popleft()
                if park is None:
                    continue  # truncated trace: the park fell off the ring
                self.waits.append(
                    WaitInterval(
                        thread=event.thread, source=event.source,
                        level=park.level, token=park.token, park=park, end=event,
                        pid=self._pid_of(event),
                    )
                )
        # Correlation indexes (v3 traces).  Not gated on multi_pid: an
        # in-process service (server loop and client threads sharing one
        # pid) still wakes its waiters through push_deliver, and that
        # edge has no token-matched local release to find in pass 2.
        push_by_corr: dict[str, Event] = {}
        bell_by_corr: dict[str, Event] = {}
        for event in self.events:
            if event.corr is None:
                continue
            if event.kind == "push_deliver":
                push_by_corr.setdefault(event.corr, event)
            elif event.kind == "bell_ring":
                bell_by_corr.setdefault(event.corr, event)
        if self.multi_pid:
            self._pair_wire_events()
        # Pass 2: tie each woken wait to the release that caused it — the
        # release sharing its token with the greatest seq not after the
        # wakeup (tokens are per wait node, so normally exactly one).
        for wait in self.waits:
            if wait.timed_out or wait.token is None:
                continue
            release = None
            candidates = releases_by_token.get((self._wkey(wait)[0] if self.multi_pid
                                                else None, wait.token))
            if candidates:
                end_seq = wait.end.seq
                for cand in candidates:
                    if end_seq is None or cand.seq is None or cand.seq < end_seq:
                        release = cand
            if release is not None:
                # A shm mirror release rings with the writer's bell corr:
                # the true origin of the arrow is the foreign bell_ring.
                origin = None
                if release.corr is not None:
                    bell = bell_by_corr.get(release.corr)
                    if bell is not None and self._pid_of(bell) != self._pid_of(release):
                        origin = bell
                increment = (
                    increments.get((self._pid_of(release), release.cause_seq))
                    if release.cause_seq is not None else None
                )
                source = origin if origin is not None else release
                edge = Edge(release=release, increment=increment, wait=wait,
                            from_thread=self._tkey(source),
                            to_thread=self._wkey(wait), origin=origin)
            else:
                # Pass 3 (wire): no local release — a dist client unpark
                # carries the subscription corr; the server push_deliver
                # echoing it names the satisfying increment by cause_seq.
                # A shm seat holder's unpark carries the bell corr of
                # the writer's bell_ring, which has no cause_seq.
                corr = wait.end.corr or wait.park.corr
                push = (push_by_corr.get(corr) or bell_by_corr.get(corr)
                        if corr is not None else None)
                if push is None:
                    continue
                increment = (
                    increments.get((self._pid_of(push), push.cause_seq))
                    if push.cause_seq is not None else None
                )
                edge = Edge(release=push, increment=increment, wait=wait,
                            from_thread=self._tkey(push),
                            to_thread=self._wkey(wait), origin=push)
            self.edges.append(edge)
            key = self._end_key(wait.end)
            if key is not None:
                self.edge_by_end[key] = edge

    def _pair_wire_events(self) -> None:
        """Pair frame_send → frame_recv across pids by correlation token.

        One corr covers a whole RPC (request and reply reuse it), so the
        pairing is greedy in time order: each ``frame_recv`` closes the
        most recent unclosed ``frame_send`` from a *different* pid.
        """
        open_sends: dict[str, list[Event]] = defaultdict(list)
        for event in self.events:
            if event.corr is None:
                continue
            if event.kind == "frame_send":
                open_sends[event.corr].append(event)
            elif event.kind == "frame_recv":
                sends = open_sends.get(event.corr)
                if not sends:
                    continue
                for i in range(len(sends) - 1, -1, -1):
                    if self._pid_of(sends[i]) != self._pid_of(event):
                        self.wire_edges.append((sends.pop(i), event))
                        break

    # -------------------------------------------------------------- structure

    @property
    def threads(self) -> list:
        """Thread keys, in order of first appearance in the trace."""
        return list(self.thread_index)

    def thread_pid(self, key) -> int | None:
        """The pid component of a thread key (stamped pid, if any)."""
        if isinstance(key, tuple):
            return key[0]
        return self.pids[0] if self.pids else None

    def thread_tid(self, key) -> int:
        """The raw thread-ident component of a thread key."""
        return key[1] if isinstance(key, tuple) else key

    def thread_name(self, key) -> str:
        index = self.thread_index.get(key, "?")
        if isinstance(key, tuple):
            return f"p{key[0]}/T{index}"
        return f"T{index}"

    def span(self) -> tuple[float, float]:
        """(first, last) timestamp in the trace; (0, 0) when empty."""
        if not self.events:
            return (0.0, 0.0)
        return (min(e.ts for e in self.events), max(e.ts for e in self.events))

    def thread_span(self, key) -> tuple[float, float]:
        ts = [e.ts for e in self.events if self._tkey(e) == key]
        if not ts:
            return (0.0, 0.0)
        return (min(ts), max(ts))

    def segments(self, key) -> list[tuple[str, float, float, WaitInterval | None]]:
        """The thread's timeline as ``(kind, start, end, wait)`` tuples.

        ``kind`` is ``"run"`` or ``"wait"``; consecutive segments tile the
        thread's span.  Run time here means "not suspended in a traced
        wait" — compute and untraced blocking are indistinguishable.
        """
        first, last = self.thread_span(key)
        waits = sorted(
            (w for w in self.waits if self._wkey(w) == key), key=lambda w: w.park.ts
        )
        out: list[tuple[str, float, float, WaitInterval | None]] = []
        cursor = first
        for wait in waits:
            if wait.park.ts > cursor:
                out.append(("run", cursor, wait.park.ts, None))
            out.append(("wait", wait.park.ts, wait.end.ts, wait))
            cursor = wait.end.ts
        if last > cursor or not out:
            out.append(("run", cursor, last, None))
        return out

    # ---------------------------------------------------------- critical path

    def critical_path(self, end: "Event | None" = None) -> list[PathStep]:
        """The dependency chain ending at ``end`` (default: the last event).

        Walks backward from the final event: across a thread's run
        segment, then — at a traced wait — jumps along the release edge
        to the thread whose increment ended it, and continues there.
        Wire edges jump *processes*: a dist client's wakeup continues on
        the server thread that pushed it (at the push/bell timestamp, in
        the merged clock).  A wait with no edge (timeout, truncated
        trace) is attributed to the waiting thread itself.  Returned
        oldest-first.

        Passing ``end`` anchors the walk at one specific event — how the
        SLO engine explains one tail request (its ``req_done``) instead
        of whatever happened to finish last in the ring.
        """
        if not self.events:
            return []
        last = end if end is not None else max(self.events, key=lambda e: e.ts)
        steps: list[PathStep] = []
        cur_thread, cur_ts = self._tkey(last), last.ts
        waits_by_thread: dict[object, list[WaitInterval]] = defaultdict(list)
        for wait in self.waits:
            waits_by_thread[self._wkey(wait)].append(wait)
        for waits in waits_by_thread.values():
            waits.sort(key=lambda w: w.end.ts)
        fuel = 2 * len(self.waits) + 2 * len(self.thread_index) + 4
        while fuel > 0:
            fuel -= 1
            prior = [w for w in waits_by_thread.get(cur_thread, ()) if w.end.ts <= cur_ts]
            if not prior:
                first, _ = self.thread_span(cur_thread)
                if cur_ts > first:
                    steps.append(PathStep(cur_thread, "run", first, cur_ts))
                break
            wait = prior[-1]
            if cur_ts > wait.end.ts:
                steps.append(PathStep(cur_thread, "run", wait.end.ts, cur_ts))
            edge = self.edge_for(wait)
            detail = f"{wait.source}>= {wait.level}" if wait.level is not None else wait.source
            jump = None
            if edge is not None:
                src = edge.origin if edge.origin is not None else edge.release
                if src.ts < wait.end.ts:
                    jump = (edge.from_thread, src.ts)
            if jump is not None:
                via = " over the wire" if edge.origin is not None else ""
                steps.append(
                    PathStep(cur_thread, "wakeup", jump[1], wait.end.ts,
                             detail=f"{detail} released by "
                                    f"{self.thread_name(edge.from_thread)}{via}")
                )
                if jump[0] == cur_thread and jump[1] >= cur_ts:
                    break  # no progress possible; malformed trace
                cur_thread, cur_ts = jump
            else:
                steps.append(PathStep(cur_thread, "wait", wait.park.ts, wait.end.ts,
                                      detail=detail))
                cur_ts = wait.park.ts
        steps.reverse()
        return steps

    def critical_path_duration(self) -> float:
        """End-to-end duration of the critical path (0.0 when trivial)."""
        path = self.critical_path()
        if not path:
            return 0.0
        return path[-1].end - path[0].start

    # ------------------------------------------------------------------ blame

    def blame(self) -> dict[object, list[dict]]:
        """Per-thread blocked time, attributed to what it waited on.

        For each thread key, entries ``{source, level, released_by,
        wait_s, count, pct}`` sorted by descending total wait;
        ``released_by`` is the releasing thread's key (None for timeouts
        / unmatched) and ``pct`` is the share of the thread's own span
        spent in that wait.
        """
        buckets: dict[object, dict[tuple, list[float]]] = defaultdict(lambda: defaultdict(list))
        for wait in self.waits:
            edge = self.edge_for(wait)
            releaser = edge.from_thread if edge is not None else None
            buckets[self._wkey(wait)][(wait.source, wait.level, releaser)].append(wait.duration)
        out: dict[object, list[dict]] = {}
        for key, groups in buckets.items():
            first, last = self.thread_span(key)
            span = max(last - first, 1e-12)
            entries = [
                {
                    "source": source,
                    "level": level,
                    "released_by": releaser,
                    "wait_s": sum(durations),
                    "count": len(durations),
                    "pct": 100.0 * sum(durations) / span,
                }
                for (source, level, releaser), durations in groups.items()
            ]
            entries.sort(key=lambda e: e["wait_s"], reverse=True)
            out[key] = entries
        return out

    def __repr__(self) -> str:
        pids = f", {len(self.pids)} pids" if self.multi_pid else ""
        return (
            f"<CausalGraph {len(self.events)} events, {len(self.thread_index)} threads"
            f"{pids}, {len(self.waits)} waits, {len(self.edges)} edges>"
        )

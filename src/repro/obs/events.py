"""Typed trace events and the bounded ring buffer they land in.

One :class:`Event` is recorded per observable protocol action — an
increment, a release, a park/unpark pair, a timeout, a subscription
fire, a MultiWait park, a wire frame, a stall report — when tracing is
enabled via :func:`repro.obs.enable`.  Events are immutable named
tuples so they serialize trivially (``as_dict`` drops unused fields),
a sink can pattern-match on ``kind`` without string parsing beyond the
kind itself, and — the reason they are tuples rather than the frozen
dataclasses they once were — construction is a single tuple allocation
instead of one guarded ``__setattr__`` per field, which is most of what
the enabled-mode wait-path tax used to be.

The :class:`TraceBuffer` is a fixed-capacity ring: appends never block
and never grow memory, the oldest events fall off the far end, and
``emitted`` keeps the lifetime total so a reader can tell how much
history the ring no longer holds.  Appends rely on ``deque.append``
being atomic under the GIL (and internally locked on free-threaded
builds); the tallies around it are racy by design — observability must
never add a lock to the paths it observes.

Internally the ring stores *payload tuples* in :class:`Event` field
order, not ``Event`` instances: the hot emit path (what
:meth:`TraceBuffer.emitter` hands the hooks — with no sink installed,
the deque's bound C ``append`` itself) lands the raw 16-tuple and the
``Event`` objects are materialized lazily by
:meth:`TraceBuffer.snapshot` — readers pay the namedtuple wrap once per
read instead of every park/unpark paying it per emit, and the per-event
lifetime tally is recovered from the seq counter's watermark instead of
being paid per emit (see :meth:`TraceBuffer.emitted`).  ``append``
still takes a full ``Event`` (an ``Event`` is itself a valid payload,
so the two populations coexist in the ring), and a sink always receives
constructed ``Event`` objects.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Iterator, NamedTuple

_tuple_new = tuple.__new__

__all__ = ["Event", "TraceBuffer", "KINDS", "next_seq", "next_token"]

#: Process-global monotonic event sequence (schema v2).  ``itertools.count``
#: advances in C, so allocation is a single atomic-under-the-GIL call; two
#: events allocated by racing threads get distinct, ordered seqs.  Seqs are
#: allocated at the emit site (or pre-allocated by the deferred release
#: emission) so *causal* order — increment before its releases before the
#: unparks they cause — is preserved even when the ring's physical append
#: order interleaves.  Consumers should sort by ``seq``, not buffer order.
_seq_counter = itertools.count(1)
next_seq = _seq_counter.__next__


def seq_watermark() -> int:
    """The seq :data:`next_seq` would hand out next, without consuming it.

    ``itertools.count`` exposes its current position through its pickle
    protocol (``count(n).__reduce__() == (count, (n,))``), which lets the
    trace ring account for hook-emitted events by *differencing
    watermarks* instead of paying a per-event tally on the hot emit path
    — see :meth:`TraceBuffer.emitted`.
    """
    return _seq_counter.__reduce__()[1][0]

#: Correlation-token space for wait nodes (schema v2): one token per
#: ``WaitNode`` / asyncio ``_Level`` / ``MultiWait``, allocated at
#: construction (the park slow path — never a lock-free fast path).  The
#: ``release`` event for a node and every ``park``/``unpark``/``timeout``/
#: ``sub_fire`` on it carry the same token, which is what lets the causal
#: analyzer tie a release to exactly the unparks it caused.
next_token = itertools.count(1).__next__

#: Every event kind the instrumented paths can emit.  Kept as data so the
#: docs and the self-tests can enumerate them; the strings at the emit
#: sites are the source of truth and are asserted against this registry.
KINDS = frozenset(
    {
        "increment",       # a counter's value advanced (amount, new value)
        "release",         # one wait node unlinked by an increment (level, waiters)
        "park",            # a check registered and is about to suspend
        "unpark",          # a suspended check resumed (wait + wakeup latency)
        "timeout",         # a check's wait expired (genuine timeout)
        "sub_fire",        # a level's subscription callbacks are about to run
        "mw_park",         # a MultiWait is about to suspend
        "mw_wake",         # a MultiWait wait completed
        "mw_timeout",      # a MultiWait wait expired
        "stall",           # the watchdog flagged a blocked check
        # --- schema v3: the cross-process fabric (repro.dist) ---
        "frame_send",      # one wire frame written to a peer (op, corr)
        "frame_recv",      # one wire frame read from a peer (op, corr)
        "batch_flush",     # a client flushed its dirty-counter batch
        "push_deliver",    # the service pushed a satisfied subscription
        "bell_ring",       # a shm writer rang a sleeping reader's doorbell
        "bell_wake",       # a shm seat holder noticed a new doorbell generation
        "gossip_round",    # one anti-entropy digest exchange completed
        "slot_claim",      # a shm process claimed (or reclaimed) a writer slot
        # --- schema v3.1: the load/SLO layer (repro.obs.load / .slo) ---
        "req_start",       # a load-generator request began executing (corr;
                           #   wait_s carries the open-loop queue delay:
                           #   actual start minus intended send time)
        "req_done",        # a request completed (corr; wait_s carries the
                           #   coordinated-omission-safe total latency,
                           #   stamped from intended send time; value is
                           #   1 admitted / 0 rejected-or-failed)
        "frame_ride",      # one logical client increment rode a batched inc
                           #   frame: corr is the *request's* token, op is
                           #   the frame's corr (see collect.frame_riders)
        "slo_breach",      # an SLO window burned past its budget (value is
                           #   the violation count, count the window total,
                           #   wait_s the observed objective quantile)
    }
)


class Event(NamedTuple):
    """One observed protocol action.

    ``ts`` is :func:`time.monotonic` at emit time; ``source`` is the
    emitting primitive's label (its ``name`` if given, else
    ``ClassName@0x...``); ``thread`` is the emitting thread's ident.
    The remaining fields are kind-specific and ``None`` when not
    applicable: ``level``/``value``/``count``/``amount`` carry the
    counter-shaped payload, ``wait_s`` is park-to-unpark latency and
    ``wakeup_s`` is release-to-unpark latency (the wakeup path itself).

    Schema v2 adds three correlation fields (``None`` on events emitted
    by pre-v2 writers, so old JSONL replays still load):

    * ``seq`` — position in the process-global emission order
      (:data:`next_seq`); the causal sort key.
    * ``token`` — the wait node's correlation token: a ``release`` and
      the ``park``/``unpark``/``timeout``/``sub_fire`` events on the
      same node share it (``mw_*`` events share their MultiWait's own
      token; ``sub_fire`` carries the *node* token so a MultiWait wake
      is still traceable to the releasing increment).
    * ``cause_seq`` — on ``release`` events, the ``seq`` of the
      increment whose advance unlinked the node (on ``push_deliver``
      events, the seq of the increment whose advance satisfied the
      pushed subscription).

    Schema v3 adds three cross-process fields (again ``None`` — and
    omitted from ``as_dict`` — on events emitted by pre-v3 writers, so
    v1/v2 JSONL consumers are untouched):

    * ``pid`` — the emitting process.  Not stamped at the emit sites
      (the hot paths stay pid-free); stamped at *collection* time by
      :func:`repro.obs.collect.write_jsonl` and the service's
      ``fetch_trace`` reply, which is where a trace first leaves its
      process.  ``seq`` is only meaningful *within* one pid — merged
      timelines order by ``(ts, seq)`` and qualify every seq lookup by
      pid (see :mod:`repro.obs.collect`).
    * ``op`` — on ``frame_send``/``frame_recv``, the wire op the frame
      carried (``"inc"``, ``"sub"``, ``"reached"``, ...).
    * ``corr`` — the wire correlation token (a string, globally unique
      across processes: ``"<pid:x>-<n:x>"``).  A client stamps it on
      each outgoing frame, the server echoes it on replies and stamps
      it on every event the frame causes, which is what lets the
      causal analyzer link a client-side ``check`` to the server-side
      ``increment`` that satisfied it.
    """

    ts: float
    kind: str
    source: str
    thread: int
    level: int | None = None
    value: int | None = None
    count: int | None = None
    amount: int | None = None
    wait_s: float | None = None
    wakeup_s: float | None = None
    seq: int | None = None
    token: int | None = None
    cause_seq: int | None = None
    pid: int | None = None
    op: str | None = None
    corr: str | None = None

    _OPTIONAL = ("level", "value", "count", "amount", "wait_s", "wakeup_s",
                 "seq", "token", "cause_seq", "pid", "op", "corr")

    def as_dict(self) -> dict:
        """JSON-ready mapping with the unused optional fields dropped.

        Backward-compatible with v1 consumers: the v2 fields appear only
        when set, so a pre-v2 event round-trips to exactly its old form.
        """
        doc = {"ts": self.ts, "kind": self.kind, "source": self.source, "thread": self.thread}
        for field in self._OPTIONAL:
            val = getattr(self, field)
            if val is not None:
                doc[field] = val
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Event":
        """Rebuild an event from an :meth:`as_dict`/JSONL mapping.

        Unknown keys are ignored (forward compatibility with later
        schema revisions); missing optional fields stay ``None``.
        """
        return cls(
            ts=doc["ts"], kind=doc["kind"], source=doc["source"], thread=doc["thread"],
            **{f: doc[f] for f in cls._OPTIONAL if f in doc},
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        extras = " ".join(
            f"{k}={v}" for k, v in self.as_dict().items() if k not in ("ts", "kind", "source")
        )
        return f"[{self.ts:.6f}] {self.kind} {self.source} {extras}"


class TraceBuffer:
    """Fixed-capacity event ring with an optional per-event sink.

    The sink (if given) is called with every event, in the emitting
    thread, possibly at delicate points of the synchronization protocol:
    it must be fast, must not raise, and must never call back into the
    primitives being traced.  A raising sink is dropped after the first
    failure (recorded in ``sink_errors``) rather than poisoning the hot
    path.
    """

    __slots__ = ("_events", "_sink", "capacity", "_appended", "_seq_base",
                 "_seq_final", "sink_errors")

    def __init__(
        self,
        capacity: int = 65536,
        sink: Callable[[Event], None] | None = None,
    ) -> None:
        if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity < 1:
            raise ValueError(f"capacity must be a positive int, got {capacity!r}")
        if sink is not None and not callable(sink):
            raise TypeError(f"sink must be callable, got {sink!r}")
        self._events: deque[Event] = deque(maxlen=capacity)
        self._sink = sink
        self.capacity = capacity
        #: Events that arrived through :meth:`append` (racy tally).
        self._appended = 0
        #: Seq watermarks bracketing this ring's hot-emit window; see
        #: :meth:`emitted`.
        self._seq_base: int | None = None
        self._seq_final: int | None = None
        #: Sink invocations that raised (the sink is dropped on the first).
        self.sink_errors = 0

    def append(self, event: Event) -> None:
        self._appended += 1
        self._events.append(event)
        sink = self._sink
        if sink is not None:
            try:
                sink(event)
            except BaseException:
                self.sink_errors += 1
                self._sink = None

    def emitter(self):
        """The hot-path emit callable handed to the hooks at enable time.

        Takes one raw payload tuple in :class:`Event` field order.  With
        no sink installed this is the deque's bound C ``append`` itself —
        no Python frame per event; the lifetime tally is recovered by
        differencing seq watermarks (every hook emission allocates
        exactly one seq, so seqs-consumed-while-active ≈ events-emitted;
        :func:`repro.obs.disable` seals the window).  With a sink, it
        falls back to :meth:`append` so the sink contract (constructed
        ``Event``, in the emitting thread, dropped on first raise) is
        unchanged.
        """
        if self._sink is not None:
            append = self.append
            return lambda payload: append(_tuple_new(Event, payload))
        if self._seq_base is None:
            self._seq_base = seq_watermark()
        return self._events.append

    def seal(self) -> None:
        """Freeze the hot-emit accounting window (idempotent).

        Called by :func:`repro.obs.disable` (and by a re-``enable`` that
        replaces this ring) after emission stops, so :attr:`emitted`
        stops tracking the process-global seq counter on behalf of a
        ring that is no longer the active one.
        """
        if self._seq_base is not None and self._seq_final is None:
            self._seq_final = seq_watermark()

    @property
    def emitted(self) -> int:
        """Lifetime events recorded (approximate while hot-emitting).

        Direct :meth:`append` calls are tallied exactly; events from the
        hooks' hot emit path are counted as seqs allocated during the
        active window (exact once sealed, transiently high by the few
        seqs the deferred release emission pre-allocates before its
        events land — the same "racy by design" precision as every other
        tally here).
        """
        base = self._seq_base
        if base is None:
            return self._appended
        final = self._seq_final
        return self._appended + (seq_watermark() if final is None else final) - base

    @property
    def dropped(self) -> int:
        """Events that have fallen off the far end of the ring."""
        return max(0, self.emitted - len(self._events))

    def snapshot(self) -> list[Event]:
        """The buffered events, oldest first (detached copy).

        Materializes the lazily-stored payload tuples; wrapping an
        already-constructed ``Event`` yields an equal ``Event``, so the
        mixed ring needs no type branch.
        """
        return [_tuple_new(Event, payload) for payload in list(self._events)]

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.snapshot())

    def __repr__(self) -> str:
        return (
            f"<TraceBuffer {len(self._events)}/{self.capacity} buffered, "
            f"{self.emitted} emitted>"
        )

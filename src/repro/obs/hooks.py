"""The zero-cost-when-off observability seam.

This module is the production twin of :mod:`repro.core.syncpoints` and
reuses its trick verbatim: every instrumented site in the counter code
compiles to

.. code-block:: python

    if _obs.enabled:
        _obs.on_park(self, level, value, live_levels, live_waiters)

so the disabled cost is one module-attribute read and an untaken branch
— and, exactly as with the sync points, **no site lies on the lock-free
fast paths** (`MonotonicCounter.check`'s immediate return, the sharded
counter's published-value return): an already-satisfied ``check`` never
touches this module at all, so its cost is unchanged *by construction*,
enabled or not.  The quick bench's
``obs_overhead`` series records the measurement.

``enabled`` is flipped only by :func:`repro.obs.enable` /
:func:`repro.obs.disable`, which install the active
:class:`~repro.obs.events.TraceBuffer` and
:class:`~repro.obs.metrics.MetricsRegistry` here.  The ``on_*``
functions below are the only writers; each snapshots the tracer/metrics
reference before use so a concurrent ``disable`` can never produce a
``None`` call — late emissions from threads mid-operation simply fall
through.

Emission sites are chosen to run **outside** the primitives' locks
wherever the protocol allows (the coalesced release pass, the unpark
path); the exceptions — :class:`~repro.core.counter.BroadcastCounter`'s
park and the MultiWait timeout — are noted at the call sites.  Sink
callbacks therefore must be quick, must not raise, and must never call
back into the primitives being traced.

Enabled-mode cost: the unified engine (PR 6) cut the *disabled* wait
path roughly in half, which turned the per-event emission cost into the
dominant share of the enabled-mode handoff tax — so the hot sites here
are tuned to the same standard as the paths they observe:

* Events are emitted as raw *payload tuples* in declaration order —
  ``(ts, kind, source, thread, level, value, count, amount, wait_s,
  wakeup_s, seq, token, cause_seq, pid, op, corr)`` — through ``_emit``, the callable
  :meth:`~repro.obs.events.TraceBuffer.emitter` hands over at enable
  time (the ring deque's bound C ``append`` when no sink is installed);
  the ``Event`` objects are materialized lazily at snapshot time, and
  the ring's lifetime tally is recovered from the seq watermark rather
  than paid per emit — which is why **every** ``next_seq()`` call here
  is paired with exactly one emit.  Unused fields are spelled ``None``
  explicitly, and the tuples follow :class:`~repro.obs.events.Event`'s
  field order.
* The label → metrics-series resolution is memoized per primitive in
  its ``_obs_chan`` slot as ``(generation, label, series, wait_append,
  wakeup_append)`` — the last two are the latency histograms' bound
  staging-deque appends, so the unpark sites record a latency sample
  with one C call; :func:`enable`/:func:`disable` bump the generation,
  invalidating every cache at once (see :func:`_chan`).
* Each wait-path step has one emitter, shared by every counter kind:
  :func:`on_park`; :func:`on_release_stamp` before the signal pass and
  :func:`on_increment_released` after it; :func:`on_wake` for every
  resume (``node=None`` for :class:`~repro.core.counter.BroadcastCounter`,
  which has no wait node); and :func:`on_timeout`.
"""

from __future__ import annotations

import itertools
import os
import threading
import time

from repro.obs.events import TraceBuffer, next_seq
from repro.obs.metrics import MetricsRegistry
from repro.obs.registry import label

__all__ = ["enabled", "clock", "next_corr", "WireContext",
           "set_wire_context", "wire_context", "last_increment_seq"]

#: Read by every instrumented site; True only while obs is enabled.
enabled = False

#: The timestamp source for every event and latency measurement.
clock = time.monotonic

_trace: TraceBuffer | None = None
_metrics: MetricsRegistry | None = None

#: The active trace ring's fast emit closure (None while tracing is
#: off); takes one raw payload tuple in Event field order.
_emit = None

#: Enable/disable generation.  Bumped by repro.obs.enable()/disable();
#: stale ``_obs_chan`` caches are detected by comparing against it.
_gen = 0

_get_ident = threading.get_ident


def _chan(obj: object) -> tuple:
    """The per-primitive emission channel:
    ``(generation, label, series, wait_append, wakeup_append)``.

    Memoized on the instance's ``_obs_chan`` slot so a hot emit site
    pays one attribute read and an int compare instead of the label
    lookup plus the registry's dict hit; a new :func:`repro.obs.enable`
    (or disable) bumps ``_gen``, invalidating every cached channel.
    ``series`` (and with it the two bound histogram staging appends) is
    ``None`` when metrics are off.  Objects without the slot just
    rebuild the channel per call.
    """
    ch = getattr(obj, "_obs_chan", None)
    if ch is not None and ch[0] == _gen:
        return ch
    metrics = _metrics
    src = label(obj)
    if metrics is None:
        ch = (_gen, src, None, None, None)
    else:
        series = metrics.series(src)
        ch = (_gen, src, series,
              series.wait_latency._pending.append,
              series.wakeup_latency._pending.append)
    try:
        obj._obs_chan = ch  # type: ignore[attr-defined]
    except AttributeError:
        pass  # no slot / frozen object: skip the memo
    return ch


# -------------------------------------------------------- wire correlation
#
# Schema v3: the dist layer (repro.dist) stamps a *correlation token* on
# every wire frame, and the side that processes the frame stamps the
# same token on the events the frame causes.  Tokens are strings,
# globally unique across processes (``"<pid:x>-<n:x>"``); the pid prefix
# is refreshed after fork so a forked shm worker never collides with its
# parent.  The ambient :class:`WireContext` is a thread-local the
# service (around frame dispatch) and a shm seat holder (around the
# mirror raise a bell announced) set — core emit sites read it
# only on the *enabled* tracing path, so the disabled contract (one
# attr-read + false branch) is untouched.

_corr_pid = os.getpid()
_next_corr_n = itertools.count(1).__next__


def _refresh_corr_pid() -> None:
    global _corr_pid
    _corr_pid = os.getpid()


if hasattr(os, "register_at_fork"):  # pragma: no branch - always true on POSIX
    os.register_at_fork(after_in_child=_refresh_corr_pid)


def next_corr() -> str:
    """A fresh wire correlation token, unique across cooperating pids."""
    return f"{_corr_pid:x}-{_next_corr_n():x}"


class WireContext:
    """The ambient "this thread is processing wire frame X" marker.

    ``corr`` is the frame's correlation token (or ``None``).  ``inc_seq``
    is filled in by the increment emit sites below: the seq of the
    increment event the frame's processing produced, which is what the
    service's subscription callback reads to stamp ``cause_seq`` on the
    ``push_deliver`` it emits — the wire half of the causal chain.
    """

    __slots__ = ("corr", "inc_seq")

    def __init__(self, corr: str | None) -> None:
        self.corr = corr
        self.inc_seq: int | None = None


_wire_local = threading.local()


def set_wire_context(ctx: "WireContext | None") -> "WireContext | None":
    """Install ``ctx`` as this thread's ambient wire context.

    Returns the previous context so a dispatcher can restore it (frame
    dispatch nests during anti-entropy: a sync_reply is processed while
    the gossip round's own context is live).
    """
    prev = getattr(_wire_local, "ctx", None)
    _wire_local.ctx = ctx
    return prev


def wire_context() -> "WireContext | None":
    return getattr(_wire_local, "ctx", None)


def last_increment_seq() -> int | None:
    """The seq of the newest increment event emitted by *this thread*.

    Subscription callbacks fire synchronously inside the increment's
    release/signal pass, on the incrementing thread — so at fire time
    this is exactly the satisfying increment, even when the increment
    was process-local and no :class:`WireContext` is ambient (a service
    node raising its own counter, an anti-entropy merge).  Stale between
    increments; only meaningful from within a subscription callback.
    """
    return getattr(_wire_local, "last_inc_seq", None)


# --------------------------------------------------------------- increment

def on_increment(counter: object, amount: int, value: int) -> int | None:
    """An increment's critical section completed (emitted outside the lock).

    Returns the increment event's ``seq`` when tracing is on (the caller
    threads it into the ``cause_seq`` of the releases this increment
    performs), else ``None``.
    """
    ch = _chan(counter)
    series = ch[2]
    if series is not None:
        series.increments += 1
    emit = _emit
    if emit is not None:
        seq = next_seq()
        _wire_local.last_inc_seq = seq
        ctx = getattr(_wire_local, "ctx", None)
        if ctx is None:
            corr = None
        else:
            ctx.inc_seq = seq
            corr = ctx.corr
        emit((clock(), "increment", ch[1], _get_ident(),
              None, value, None, amount,
              None, None, seq, None, None, None, None, corr))
        return seq
    return None


def on_release_stamp(released: list) -> tuple:
    """Pre-signal half of a release: stamp, don't construct.

    Runs between the increment's critical section and the coalesced
    signal pass.  Deliberately minimal — one ``clock()`` read, the
    per-node ``released_ts`` stores, and (when tracing) seq
    pre-allocation plus a small capture of each node's payload — because
    everything here sits inside the release→signal handoff window the
    ping-pong benchmark measures.  The increment/release *events* are
    constructed by :func:`on_increment_released` after the signals are
    out.  Pre-allocating the seqs here keeps causal order sound:
    ``increment.seq < release.seq < unpark.seq`` even though the woken
    thread may physically append its ``unpark`` first.

    Node payloads (``count`` especially) are captured now because woken
    waiters start decrementing ``count`` the moment they are signaled.
    """
    now = clock()
    if _emit is None:
        for node in released:
            node.released_ts = now
        return (now, None, len(released))
    inc_seq = next_seq()
    # Published before the signal pass so a subscription callback fired
    # by node.signal() (the service's push) can already name the
    # increment it is reacting to — via the wire context when a frame is
    # being dispatched, via last_increment_seq() for local increments.
    _wire_local.last_inc_seq = inc_seq
    ctx = getattr(_wire_local, "ctx", None)
    if ctx is not None:
        ctx.inc_seq = inc_seq
    if len(released) == 1:
        # The ping-pong-shaped common case: one node, no list growth.
        node = released[0]
        node.released_ts = now
        return (now, inc_seq, ((next_seq(), node.token, node.level, node.count),))
    captured = []
    for node in released:
        node.released_ts = now
        captured.append((next_seq(), node.token, node.level, node.count))
    return (now, inc_seq, captured)


def on_increment_released(counter: object, amount: int, value: int, ctx: tuple) -> None:
    """Post-signal half: construct and append the deferred events.

    ``ctx`` is :func:`on_release_stamp`'s return.  Metrics tallies land
    here too — nothing in this function delays a wakeup.
    """
    now, inc_seq, captured = ctx
    ch = _chan(counter)
    series = ch[2]
    if series is not None:
        series.increments += 1
        series.releases += captured if type(captured) is int else len(captured)
    emit = _emit
    if emit is not None and inc_seq is not None:
        src = ch[1]
        ident = _get_ident()
        ctx = getattr(_wire_local, "ctx", None)
        corr = None if ctx is None else ctx.corr
        emit((now, "increment", src, ident,
              None, value, None, amount,
              None, None, inc_seq, None, None, None, None, corr))
        for seq, token, lvl, cnt in captured:
            emit((now, "release", src, ident,
                  lvl, value, cnt, None,
                  None, None, seq, token, inc_seq, None, None, corr))


def on_sub_fire(counter: object, level: int, count: int, token: int | None = None) -> None:
    """A released level's subscription callbacks are about to run."""
    emit = _emit
    if emit is not None:
        ctx = getattr(_wire_local, "ctx", None)
        emit((clock(), "sub_fire", label(counter), _get_ident(),
              level, None, count, None,
              None, None, next_seq(), token, None,
              None, None, None if ctx is None else ctx.corr))


# -------------------------------------------------------------------- check

def on_park(
    counter: object, level: int, value: int, live_levels: int, live_waiters: int,
    token: int | None = None,
) -> float:
    """A check registered its wait node and is about to suspend.

    Returns the timestamp it stamped on the event so the caller can
    reuse it as the park time for the ``wait_s`` measurement — one
    ``clock()`` read per park, not two.
    """
    now = clock()
    ch = _chan(counter)
    series = ch[2]
    if series is not None:
        series.parks += 1
        series.note_levels(live_levels, live_waiters)
    emit = _emit
    if emit is not None:
        emit((now, "park", ch[1], _get_ident(),
              level, value, live_waiters, None,
              None, None, next_seq(), token, None, None, None, None))
    return now


def on_wake(counter: object, node: object | None, level: int,
            t_parked: float | None, token: int | None = None,
            corr: str | None = None) -> None:
    """A suspended check resumed (normal wakeup or adjudicated success).

    ``t_parked`` is :func:`on_park`'s return.  ``wait_s`` is
    park-to-unpark, ``None`` when obs was enabled mid-wait.
    ``wakeup_s`` is release-to-unpark, read off the wait node's
    ``released_ts``, ``None`` when the releasing increment predates
    enablement or has not stamped it yet (a wheel-mode adjudicated
    release can resume first).  ``node`` is ``None`` for a wait without a
    wait node (:class:`~repro.core.counter.BroadcastCounter`, a shm seat
    holder); ``wakeup_s`` is then ``None`` and the token is ``token``
    (the one its :func:`on_park` carried).  ``corr`` names the wire
    event that woke it (a shm seat holder's bell).
    """
    now = clock()
    wait_s = None if t_parked is None else now - t_parked
    if node is None:
        wakeup_s = None
    else:
        token = node.token
        released_ts = node.released_ts
        wakeup_s = None if released_ts is None else now - released_ts
    ch = _chan(counter)
    if ch[2] is not None:
        ch[2].unparks += 1
        if wait_s is not None:
            ch[3](wait_s)
        if wakeup_s is not None and wakeup_s >= 0.0:
            ch[4](wakeup_s)
    emit = _emit
    if emit is not None:
        emit((now, "unpark", ch[1], _get_ident(),
              level, None, None, None,
              wait_s, wakeup_s, next_seq(), token, None,
              None, None, corr))


def on_timeout(
    counter: object, level: int, value: int, t_parked: float | None,
    token: int | None = None,
) -> None:
    """A check's wait genuinely expired (adjudicated under the counter lock).

    ``t_parked`` is :func:`on_park`'s return; the waited time is
    measured from it (``None`` when obs was enabled mid-wait).
    """
    now = clock()
    waited_s = None if t_parked is None else now - t_parked
    src = label(counter)
    metrics = _metrics
    if metrics is not None:
        series = metrics.series(src)
        series.timeouts += 1
        if waited_s is not None:
            series.wait_latency.observe(waited_s)
    emit = _emit
    if emit is not None:
        emit((now, "timeout", src, _get_ident(),
              level, value, None, None,
              waited_s, None, next_seq(), token, None, None, None, None))


# ------------------------------------------------------------------ sharded

def on_flush(counter: object, amount: int) -> None:
    """A shard published its pending batch into the central counter."""
    src = label(counter)
    metrics = _metrics
    if metrics is not None:
        metrics.series(src).flushes += 1
    emit = _emit
    if emit is not None:
        emit((clock(), "flush", src, _get_ident(),
              None, None, None, amount,
              None, None, next_seq(), None, None, None, None, None))


def on_drain(counter: object, amount: int) -> None:
    """A reconciling sweep published ``amount`` of pending tallies."""
    emit = _emit
    if emit is not None:
        emit((clock(), "drain", label(counter), _get_ident(),
              None, None, None, amount,
              None, None, next_seq(), None, None, None, None, None))


# ---------------------------------------------------------------- multiwait
#
# mw_* events carry the MultiWait's own token (one per instance), tying a
# park to its wake/timeout; the node-token → increment correlation for a
# MultiWait wake runs through the sub_fire events its subscriptions emit.

def on_mw_park(mw: object, conditions: int, satisfied: int,
               token: int | None = None) -> None:
    emit = _emit
    if emit is not None:
        emit((clock(), "mw_park", label(mw), _get_ident(),
              None, satisfied, conditions, None,
              None, None, next_seq(), token, None, None, None, None))


def on_mw_wake(mw: object, satisfied: int, wait_s: float | None,
               token: int | None = None) -> None:
    emit = _emit
    if emit is not None:
        emit((clock(), "mw_wake", label(mw), _get_ident(),
              None, satisfied, None, None,
              wait_s, None, next_seq(), token, None, None, None, None))


def on_mw_timeout(mw: object, conditions: int, satisfied: int,
                  token: int | None = None) -> None:
    emit = _emit
    if emit is not None:
        emit((clock(), "mw_timeout", label(mw), _get_ident(),
              None, satisfied, conditions, None,
              None, None, next_seq(), token, None, None, None, None))


# ----------------------------------------------------------------- watchdog

def on_stall(source: str, level: int, waiters: int, value: int, stalled_s: float) -> None:
    """The stall watchdog flagged a check blocked beyond its threshold."""
    emit = _emit
    if emit is not None:
        emit((clock(), "stall", source, _get_ident(),
              level, value, waiters, None,
              stalled_s, None, next_seq(), None, None, None, None, None))


# --------------------------------------------------------------------- dist
#
# One generic emit site for the cross-process fabric (frame_send /
# frame_recv / batch_flush / push_deliver / bell_ring / bell_wake /
# gossip_round / slot_claim).  The dist paths are network- or
# poll-bound, so a single keyword-argument hook is the right trade:
# clarity over the last nanosecond.  The zero-cost-when-off contract
# still holds — every call site is guarded by ``if _obs.enabled`` and
# none sits on the lock-free shm scan.

def on_dist(
    source: object,
    kind: str,
    *,
    op: str | None = None,
    corr: str | None = None,
    level: int | None = None,
    value: int | None = None,
    count: int | None = None,
    amount: int | None = None,
    wait_s: float | None = None,
    token: int | None = None,
    cause_seq: int | None = None,
) -> int | None:
    """Emit one dist-fabric event; returns its ``seq`` when tracing is on.

    ``source`` may be a primitive (labelled via the registry) or an
    already-resolved label string.
    """
    emit = _emit
    if emit is None:
        return None
    seq = next_seq()
    emit((clock(), kind, source if type(source) is str else label(source),
          _get_ident(),
          level, value, count, amount,
          wait_s, None, seq, token, cause_seq, None, op, corr))
    return seq

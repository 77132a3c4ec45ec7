"""Wire format of the counter service: newline-delimited JSON frames.

One frame per line, UTF-8 JSON with compact separators and short keys
(``op``/``c``/``s``/``f``/``v``/``l``/``id``).  Chosen over a binary framing
deliberately: the service's throughput story is *pipelining* — a flush
window coalesces any number of increments, on any number of counters,
into one ``inc`` frame of absolute floors, because merge is
max-per-source and absolute floors are idempotent — so frames are rare
relative to operations and debuggability wins.  Every frame type is monotone-safe to duplicate,
reorder, or drop-and-resend:

============= ======================================== ==================
op             fields                                   direction
============= ======================================== ==================
inc            s, f=[[c, floor], ...], id?              client -> server
sub            c, l, id                                 client -> server
unsub          id                                       client -> server
get            c, id                                    client -> server
sync           counters={c: {s: v}}, id?                peer -> peer
fetch_trace    id                                       client -> server
fetch_metrics  id                                       client -> server
ack            id, f=[[c, total], ...]                  server -> client
value          id, c, v                                 server -> client
reached        id, c, l, v                              server -> client
sync_reply     id, counters                             peer -> peer
trace_reply    id, node, pid, clock, events, truncated  server -> client
metrics_reply  id, node, pid, snapshot                  server -> client
error          id?, msg                                 server -> client
============= ======================================== ==================

Every frame may additionally carry ``t``, a wire *correlation token*
(schema v3 of :mod:`repro.obs.events`): the sender stamps it, the
receiver echoes it on any frame it sends in response and stamps it on
the trace events the frame causes.  ``t`` appears only while tracing is
enabled on the sending side — the disabled wire path is byte-identical
to pre-v3 — and is opaque: a receiver must treat it as a string.

``inc`` carries the source's *absolute* contribution to each listed
counter, never a delta: the server applies ``max(current, floor)`` to
each in turn, so retransmits and reordered flushes cannot double-count.
A single counter is a list of one.  Only an ``inc`` with an ``id`` is
answered, by an ``ack`` listing each counter's new total.  ``sync`` carries full per-source digests;
a two-leg exchange (sync -> sync_reply, each side merging) makes both
replicas' digests identical — the anti-entropy round.

``fetch_trace``/``fetch_metrics`` are the observability collection ops:
the reply carries the server's event ring (each event dict stamped with
the server's ``pid``) and its metrics-registry snapshot, plus ``clock``
(the server's ``time.monotonic`` at reply build time).  A
``trace_reply`` that would exceed :data:`MAX_FRAME` drops oldest events
first and reports how many in ``truncated``.

A frame the server cannot decode or dispatch is answered by ``error``,
carrying the frame's ``id`` when it had one, so the request awaiting
that id fails instead of waiting forever.
"""

from __future__ import annotations

import json

__all__ = ["encode", "decode", "MAX_FRAME"]

#: Upper bound on one encoded frame (a digest of thousands of sources
#: stays far below this; anything larger is a protocol error, not data).
MAX_FRAME = 1 << 20

_dumps = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode


def encode(frame: dict) -> bytes:
    """One frame -> one line (caller owns transport-level batching)."""
    return _dumps(frame).encode() + b"\n"


def decode(line: bytes) -> dict:
    """One line -> one frame; raises ``ValueError`` on junk."""
    frame = json.loads(line)
    if not isinstance(frame, dict) or "op" not in frame:
        raise ValueError(f"not a frame: {line[:80]!r}")
    return frame

"""The asyncio TCP counter service: pipelined merges, subscription push.

The network half of the counter fabric (ROADMAP item 1, axis 2).  A
:class:`CounterService` holds one :class:`~repro.dist.gcounter.GCounter`
per published counter name and speaks the newline-JSON protocol of
:mod:`repro.dist.wire`:

* ``inc`` frames are *merges*, not additions: the client ships its
  source's absolute contribution to each counter (``f``, a list of
  ``[counter, floor]`` pairs) and the server applies max to each in
  turn.  That is what makes client-side pipelining free — a flush
  window worth of increments, on any number of counters, is one
  frame — and what makes the protocol safe under retransmission and
  reordering.
* ``sub`` frames register a level subscription, served by the PR-2
  ``subscribe()`` hook on the counter's wait mirror: when an increment
  (from any connection, or an anti-entropy merge) first reaches the
  level, the subscription callback fires in the releasing context and
  the ``reached`` push is scheduled onto the loop with one
  ``call_soon`` — the same single-handoff shape as the PR-6 aio bridge,
  with the TCP connection standing in for the parked thread's slot.
* ``sync`` frames are the anti-entropy exchange: the initiator ships
  its full per-source digests, the responder merges and replies with
  its own (post-merge) digests, the initiator merges those.  After one
  round both replicas' digests are identical — max-merge is
  commutative, associative, and idempotent, so crossed or repeated
  rounds only ever converge harder.

Stability is why none of this needs coordination: a replica's value is
a lower bound on the fabric-wide total, every ``check(level)`` is a
stable condition, so a subscription served from a lagging replica fires
late, never wrongly.
"""

from __future__ import annotations

import asyncio
import logging
import os
from typing import Mapping

from repro.dist import wire
from repro.dist.gcounter import GCounter
from repro.obs import current as _obs_current
from repro.obs import hooks as _obs

__all__ = ["CounterService"]

log = logging.getLogger("repro.dist.service")


def _configure_file_log() -> None:
    """Route service logs to ``$REPRO_DIST_LOG`` if set (CI artifact)."""
    path = os.environ.get("REPRO_DIST_LOG")
    if not path or any(
        isinstance(h, logging.FileHandler) and h.baseFilename == os.path.abspath(path)
        for h in log.handlers
    ):
        return
    handler = logging.FileHandler(path)
    handler.setFormatter(
        logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s")
    )
    log.addHandler(handler)
    log.setLevel(logging.DEBUG)


class _Subscription:
    """One live ``sub``: its reply id, connection writer, and cancel."""

    __slots__ = ("sub_id", "writer", "counter_name", "level", "handle", "corr")

    def __init__(self, sub_id, writer, counter_name, level, corr=None) -> None:
        self.sub_id = sub_id
        self.writer = writer
        self.counter_name = counter_name
        self.level = level
        self.handle = None  # CounterSubscription once registered
        self.corr = corr    # the sub frame's wire correlation token


class CounterService:
    """One counter-service node: TCP endpoint + named G-counters.

    ``await start()`` binds (port 0 picks a free port; read it back from
    :attr:`port`); ``await stop()`` closes every connection.  Counters
    are created on first touch.  :meth:`anti_entropy` runs one merge
    round against a peer node.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 node_id: str | None = None,
                 peers: list[tuple[str, int]] | None = None) -> None:
        self._host = host
        self._port = port
        self.node_id = node_id or f"node-{os.getpid()}"
        self.counters: dict[str, GCounter] = {}
        self._server: asyncio.AbstractServer | None = None
        self._subs: dict[tuple[int, object], _Subscription] = {}
        self._writers: set[asyncio.StreamWriter] = set()
        self.frames_in = 0
        #: Other nodes this one aggregates in :meth:`fleet_metrics`
        #: (host, port) pairs; a down peer is skipped, never fatal.
        self.peers: list[tuple[str, int]] = list(peers or [])
        self._metrics_server: asyncio.AbstractServer | None = None
        self._obs_label = f"service:{self.node_id}"
        _configure_file_log()

    # ------------------------------------------------------------ lifecycle

    @property
    def port(self) -> int:
        assert self._server is not None, "service not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        return (self._host, self.port)

    async def start(self) -> tuple[str, int]:
        # The raised limit covers trace_reply frames, which can approach
        # MAX_FRAME (the StreamReader default is 64 KiB).
        self._server = await asyncio.start_server(
            self._serve, self._host, self._port, limit=wire.MAX_FRAME
        )
        log.info("%s listening on %s:%d", self.node_id, self._host, self.port)
        return self.address

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()
        self._subs.clear()
        log.info("%s stopped", self.node_id)

    async def __aenter__(self) -> "CounterService":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    # ------------------------------------------------------------- state

    def counter(self, name: str) -> GCounter:
        """The named G-counter, created on first touch."""
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = GCounter(name=f"{self.node_id}/{name}")
        return counter

    def digests(self) -> dict[str, dict[str, int]]:
        """Every counter's per-source digest (the ``sync`` payload)."""
        return {name: counter.digest() for name, counter in self.counters.items()}

    def merge_digests(self, counters: Mapping[str, Mapping[str, int]]) -> None:
        """Apply a peer's digests (max-per-source; creates counters)."""
        for name, digest in counters.items():
            self.counter(name).merge(digest)

    # ------------------------------------------------------------ protocol

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername")
        log.debug("%s: connection from %s", self.node_id, peer)
        self._writers.add(writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if len(line) > wire.MAX_FRAME:
                    raise ValueError(f"frame exceeds {wire.MAX_FRAME} bytes")
                self.frames_in += 1
                frame = None
                try:
                    frame = wire.decode(line)
                    self._dispatch(frame, writer)
                except (KeyError, TypeError, ValueError) as exc:
                    # A missing field or a mis-shaped one (an ``inc``
                    # in another shape) is a bad frame, not a dropped
                    # connection.  The reply echoes the frame's ``id``
                    # so a client awaiting it fails instead of hanging.
                    msg = f"{type(exc).__name__}: {exc}"
                    log.warning("%s: bad frame from %s: %s", self.node_id, peer, msg)
                    reply = {"op": "error", "msg": msg}
                    if isinstance(frame, dict) and "id" in frame:
                        reply["id"] = frame["id"]
                    writer.write(wire.encode(reply))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError, ValueError) as exc:
            log.debug("%s: connection %s dropped: %s", self.node_id, peer, exc)
        except asyncio.CancelledError:
            # Loop teardown with the handler parked in readline(); exiting
            # quietly here keeps streams' connection_made callback from
            # re-raising the cancellation as a loop error.
            log.debug("%s: connection %s cancelled at shutdown", self.node_id, peer)
        finally:
            self._drop_connection(writer)

    def _send(self, writer: asyncio.StreamWriter, frame: dict,
              corr: str | None = None) -> None:
        """Write one frame, echoing the request's correlation token."""
        if corr is not None:
            frame["t"] = corr
        if _obs.enabled:
            _obs.on_dist(self._obs_label, "frame_send", op=frame["op"], corr=corr)
        writer.write(wire.encode(frame))

    def _dispatch(self, frame: dict, writer: asyncio.StreamWriter) -> None:
        op = frame["op"]
        # Wire correlation (schema v3): record the frame's arrival and
        # make its token ambient for the duration of the dispatch, so
        # the increments/releases/pushes it causes carry it.  Disabled
        # cost: one module-attr read and a false branch.
        obs_on = _obs.enabled
        prev_ctx = None
        corr = None
        if obs_on:
            corr = frame.get("t")
            _obs.on_dist(self._obs_label, "frame_recv", op=op, corr=corr)
            prev_ctx = _obs.set_wire_context(_obs.WireContext(corr))
        try:
            if op == "inc":
                source = str(frame["s"])
                counter = self.counter
                totals = [[name, counter(name).raise_source(source, int(floor))]
                          for name, floor in frame["f"]]
                if frame.get("id") is not None:
                    self._send(writer, {"op": "ack", "id": frame["id"],
                                        "f": totals}, corr)
            elif op == "sub":
                self._subscribe(frame, writer, corr)
            elif op == "unsub":
                sub = self._subs.pop((id(writer), frame["id"]), None)
                if sub is not None and sub.handle is not None:
                    sub.handle.cancel()
            elif op == "get":
                counter = self.counters.get(frame["c"])
                self._send(
                    writer,
                    {
                        "op": "value",
                        "id": frame["id"],
                        "c": frame["c"],
                        "v": counter.value if counter is not None else 0,
                    },
                    corr,
                )
            elif op == "sync":
                self.merge_digests(frame.get("counters", {}))
                if frame.get("id") is not None:
                    self._send(
                        writer,
                        {"op": "sync_reply", "id": frame["id"],
                         "counters": self.digests()},
                        corr,
                    )
                log.debug("%s: anti-entropy merge applied", self.node_id)
            elif op == "fetch_trace":
                self._send(writer, self._trace_reply(frame), corr)
            elif op == "fetch_metrics":
                self._send(writer, self._metrics_reply(frame), corr)
            else:
                raise ValueError(f"unknown op {op!r}")
        finally:
            if obs_on:
                _obs.set_wire_context(prev_ctx)

    # ---------------------------------------------------------- observability

    def _trace_reply(self, frame: dict) -> dict:
        """The ``fetch_trace`` reply: this process's event ring, pid-stamped.

        Events leave their home process here, so this is where ``pid``
        is stamped (the emit sites stay pid-free).  ``clock`` carries
        our ``time.monotonic`` at build time so a collector can sanity-
        check its offset estimate.  Oldest events are dropped first if
        the encoded reply would exceed the frame bound.
        """
        reply: dict = {"op": "trace_reply", "id": frame.get("id"),
                       "node": self.node_id, "pid": os.getpid(),
                       "clock": _obs.clock(), "enabled": _obs.enabled}
        handle = _obs_current()
        if handle is None or handle.trace is None:
            reply["events"] = []
            reply["truncated"] = 0
            return reply
        pid = os.getpid()
        events = []
        for event in handle.trace.snapshot():
            doc = event.as_dict()
            doc.setdefault("pid", pid)
            events.append(doc)
        truncated = 0
        while True:
            reply["events"] = events
            reply["truncated"] = truncated
            if not events or len(wire.encode(reply)) <= wire.MAX_FRAME - 1024:
                return reply
            drop = max(1, len(events) // 2)
            truncated += drop
            events = events[drop:]

    def _metrics_reply(self, frame: dict) -> dict:
        """The ``fetch_metrics`` reply: this node's registry snapshot."""
        handle = _obs_current()
        snapshot = None
        if handle is not None and handle.metrics is not None:
            snapshot = handle.metrics.snapshot()
        return {"op": "metrics_reply", "id": frame.get("id"),
                "node": self.node_id, "pid": os.getpid(), "snapshot": snapshot}

    def _subscribe(self, frame: dict, writer: asyncio.StreamWriter,
                   corr: str | None = None) -> None:
        counter = self.counter(frame["c"])
        sub = _Subscription(frame["id"], writer, frame["c"], int(frame["l"]), corr)
        key = (id(writer), sub.sub_id)
        loop = asyncio.get_running_loop()

        def on_reach() -> None:
            # Fires in whatever context performed the satisfying raise
            # (a handler coroutine, or an anti-entropy merge).  One
            # call_soon hands the push to the loop — the bridge's
            # single-handoff discipline, with a socket for a slot.
            # The ambient wire context (set by _dispatch around the
            # satisfying frame) names the increment event the raise
            # emitted; captured here, it becomes the push's cause_seq —
            # the wire half of check -> increment attribution.
            cause_seq = None
            if _obs.enabled:
                ctx = _obs.wire_context()
                if ctx is not None and ctx.inc_seq is not None:
                    cause_seq = ctx.inc_seq
                else:
                    # Local raise (self-increment, anti-entropy merge):
                    # no frame context, but we are on the incrementing
                    # thread inside its signal pass.
                    cause_seq = _obs.last_increment_seq()
            loop.call_soon(self._push_reached, key, cause_seq)

        handle = counter.subscribe(sub.level, on_reach)
        if handle is None:  # already satisfied: push immediately
            if _obs.enabled:
                _obs.on_dist(self._obs_label, "push_deliver", corr=corr,
                             level=sub.level, value=counter.value)
            self._send(
                writer,
                {"op": "reached", "id": sub.sub_id, "c": sub.counter_name,
                 "l": sub.level, "v": counter.value},
                corr,
            )
            return
        sub.handle = handle
        self._subs[key] = sub

    def _push_reached(self, key: tuple[int, object],
                      cause_seq: int | None = None) -> None:
        sub = self._subs.pop(key, None)
        if sub is None or sub.writer.is_closing():
            return
        counter = self.counters[sub.counter_name]
        if _obs.enabled:
            # corr is the *subscription's* token (what the waiting client
            # stamped), cause_seq the satisfying increment's event seq —
            # together they let the causal graph route a client-side
            # unpark through this push to the server-side increment.
            _obs.on_dist(self._obs_label, "push_deliver", corr=sub.corr,
                         level=sub.level, value=counter.value,
                         cause_seq=cause_seq)
        self._send(
            sub.writer,
            {"op": "reached", "id": sub.sub_id, "c": sub.counter_name,
             "l": sub.level, "v": counter.value},
            sub.corr,
        )

    def _drop_connection(self, writer: asyncio.StreamWriter) -> None:
        self._writers.discard(writer)
        dead = [key for key, sub in self._subs.items() if sub.writer is writer]
        for key in dead:
            sub = self._subs.pop(key)
            if sub.handle is not None:
                sub.handle.cancel()
        writer.close()

    # --------------------------------------------------------- anti-entropy

    async def anti_entropy(self, host: str, port: int, *, timeout: float = 5.0) -> None:
        """One gossip round with the peer at ``(host, port)``.

        Ships our digests, merges the peer's post-merge reply.  After
        the round both nodes hold identical digests for every counter
        either side had ever seen (the peer merged ours before
        replying).  Idempotent and crash-safe at any point: a lost
        reply just leaves the initiator one round behind.
        """
        reader, writer = await asyncio.open_connection(host, port)
        obs_on = _obs.enabled
        corr = _obs.next_corr() if obs_on else None
        started = _obs.clock() if obs_on else 0.0
        try:
            frame = {"op": "sync", "id": "ae", "counters": self.digests()}
            if corr is not None:
                frame["t"] = corr
                _obs.on_dist(self._obs_label, "frame_send", op="sync", corr=corr)
            writer.write(wire.encode(frame))
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout)
            reply = wire.decode(line)
            if reply["op"] != "sync_reply":
                raise ValueError(f"expected sync_reply, got {reply['op']!r}")
            if obs_on and _obs.enabled:
                _obs.on_dist(self._obs_label, "frame_recv", op="sync_reply",
                             corr=reply.get("t"))
                prev_ctx = _obs.set_wire_context(_obs.WireContext(corr))
                try:
                    self.merge_digests(reply.get("counters", {}))
                finally:
                    _obs.set_wire_context(prev_ctx)
                _obs.on_dist(self._obs_label, "gossip_round", corr=corr,
                             count=len(reply.get("counters", {})),
                             wait_s=_obs.clock() - started)
            else:
                self.merge_digests(reply.get("counters", {}))
            log.info("%s: anti-entropy round with %s:%d complete",
                     self.node_id, host, port)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - peer raced the close
                pass

    # -------------------------------------------------------- fleet metrics

    @property
    def metrics_port(self) -> int:
        assert self._metrics_server is not None, "metrics endpoint not started"
        return self._metrics_server.sockets[0].getsockname()[1]

    async def serve_metrics(self, host: str = "127.0.0.1",
                            port: int = 0) -> tuple[str, int]:
        """Start the aggregating Prometheus endpoint (``GET /metrics``).

        One scrape of this node returns its own registry snapshot merged
        with every reachable peer's (:attr:`peers`), so a whole fabric
        is a single scrape target.  Dependency-free: a minimal HTTP/1.1
        responder over asyncio streams.
        """
        self._metrics_server = await asyncio.start_server(
            self._serve_metrics_conn, host, port
        )
        addr = self._metrics_server.sockets[0].getsockname()
        log.info("%s metrics endpoint on %s:%d", self.node_id, addr[0], addr[1])
        return (host, addr[1])

    async def _serve_metrics_conn(self, reader: asyncio.StreamReader,
                                  writer: asyncio.StreamWriter) -> None:
        try:
            request = await reader.readline()
            while True:  # drain headers; the request body is irrelevant
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            if not request.startswith(b"GET"):
                writer.write(b"HTTP/1.1 405 Method Not Allowed\r\n"
                             b"Content-Length: 0\r\nConnection: close\r\n\r\n")
            else:
                body = (await self.fleet_metrics()).encode()
                writer.write(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                    b"Content-Length: " + str(len(body)).encode() +
                    b"\r\nConnection: close\r\n\r\n" + body
                )
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    async def fleet_metrics(self) -> str:
        """The merged Prometheus exposition: this node plus its peers.

        A peer that is down, slow, or has metrics disabled contributes
        nothing (its ``repro_fleet_node_up`` gauge reports 0) — a scrape
        must never fail because part of the fleet did.
        """
        from repro.obs import fleet

        nodes = []
        own = self._metrics_reply({})
        nodes.append({"node": own["node"], "pid": own["pid"],
                      "snapshot": own["snapshot"], "up": True})
        for host, port in self.peers:
            try:
                nodes.append(await self.fetch_peer_metrics(host, port))
            except (OSError, asyncio.TimeoutError, ValueError):
                nodes.append({"node": f"{host}:{port}", "pid": None,
                              "snapshot": None, "up": False})
        return fleet.render_fleet(nodes)

    async def fetch_peer_metrics(self, host: str, port: int, *,
                                 timeout: float = 2.0) -> dict:
        """One ``fetch_metrics`` round trip to a peer node."""
        reader, writer = await asyncio.open_connection(
            host, port, limit=wire.MAX_FRAME
        )
        try:
            frame: dict = {"op": "fetch_metrics", "id": "fleet"}
            if _obs.enabled:
                frame["t"] = _obs.next_corr()
                _obs.on_dist(self._obs_label, "frame_send",
                             op="fetch_metrics", corr=frame["t"])
            writer.write(wire.encode(frame))
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout)
            reply = wire.decode(line)
            if reply["op"] != "metrics_reply":
                raise ValueError(f"expected metrics_reply, got {reply['op']!r}")
            if _obs.enabled:
                _obs.on_dist(self._obs_label, "frame_recv",
                             op="metrics_reply", corr=reply.get("t"))
            return {"node": reply.get("node", f"{host}:{port}"),
                    "pid": reply.get("pid"),
                    "snapshot": reply.get("snapshot"), "up": True}
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - peer raced the close
                pass

    def __repr__(self) -> str:
        bound = f"{self._host}:{self.port}" if self._server else "unbound"
        return f"<CounterService {self.node_id} {bound} counters={len(self.counters)}>"

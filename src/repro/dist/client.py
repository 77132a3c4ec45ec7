"""Clients of the counter service: pipelined asyncio core, thread shim.

:class:`AsyncCounterClient` is the coroutine-side client and the
service's performance story.  ``increment()`` is an ordinary (non-async)
method that only touches process-local state: it grows this source's
absolute contribution and marks the counter dirty.  A flusher task wakes
once per flush window (default 1ms) and ships **one** ``inc`` frame
carrying every dirty counter's absolute contribution (``f``, a list of
``[counter, floor]`` pairs) — a window's worth of increments, on any
number of counters, collapses into a single frame, and because the
server merges with max-per-source, coalescing, retransmission, and
reordering are all semantics-preserving.  Compare
:meth:`AsyncCounterClient.increment_rpc`, the one-frame-one-ack
baseline the benchmark measures the pipeline against.

``check()`` rides the service's subscription push (one ``sub`` frame,
one ``reached`` frame when the level is crossed) instead of polling; a
timeout is adjudicated against an authoritative ``get`` before raising
:class:`~repro.core.errors.CheckTimeout`, mirroring the in-process
counter's adjudication discipline — a waiter that raced the push still
returns satisfied.

:class:`ServiceCounter` wraps one named counter for *threads*: it shares
a background event loop (via :func:`open_threadside`) and parks the
calling thread through :func:`repro.aio.bridge.wait_threadside` — the
engine's parking slot is the only thread-blocking primitive in the stack.
Its increments pool in the endpoint.  The increment that finds the pool
unarmed wakes the loop (one ``call_soon_threadsafe``), and the loop
ships the pool at once, so a lone increment reaches the service in one
round trip.  A ship that wrote anything chains a timer one window later;
the timer ships what pooled meanwhile and chains again, or disarms on an
empty pool.  Under steady traffic the calling threads make no syscall
and the loop wakes once per window, on its timer, for one ``inc`` frame
in one socket write.  The thread-side window defaults to 50ms, not 1ms,
because each window costs a loop wake and a service wake (~100–250 µs
of CPU each on a one-vCPU host); a floor that ships later keeps its
value, since the server max-merges per source.  It registers with the
observability registry, so ``python -m repro.obs dump`` shows
service-backed waiters alongside in-process ones; its reported value is
the last server-acknowledged total, a guaranteed lower bound (stability:
the true total can only be higher).
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from typing import Any

from repro.aio.bridge import wait_threadside
from repro.core.errors import CheckTimeout
from repro.core.snapshot import CounterSnapshot, WaitNodeSnapshot
from repro.core.validation import validate_amount, validate_level
from repro.dist import wire
from repro.obs import hooks as _obs
from repro.obs import registry as _obs_registry
from repro.obs.events import next_token

__all__ = ["AsyncCounterClient", "ServiceCounter", "open_threadside"]

#: Default flush window: how long increments pool before one frame ships.
FLUSH_INTERVAL = 0.001

#: Default window of :func:`open_threadside`.  Longer than the loop-side
#: one: every thread-side window costs the loop thread a wake and the
#: service a wake, and a floor that ships later keeps its value (max-merge
#: per source).  Under steady traffic a remote waiter may see a floor up
#: to one window late.
THREADSIDE_FLUSH_INTERVAL = 0.050

#: Grace added to a thread-side wait deadline so the server-side timeout
#: adjudication (a ``get`` round-trip) can finish before the thread gives
#: up on the loop entirely.
_THREADSIDE_GRACE = 5.0


class AsyncCounterClient:
    """One connection to a :class:`~repro.dist.service.CounterService`.

    Create with ``await AsyncCounterClient.connect(host, port)``.  All
    methods must run on the connection's event loop (thread-side callers
    go through :class:`ServiceCounter`).
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, *, source: str,
                 flush_interval: float = FLUSH_INTERVAL) -> None:
        self._reader = reader
        self._writer = writer
        self.source = source
        self.flush_interval = flush_interval
        self._contrib: dict[str, int] = {}   # our absolute contribution
        self._known: dict[str, int] = {}     # last server-reported total
        self._dirty: set[str] = set()
        self._riders: list[str] = []        # request corrs of the next frame
        self._dirty_event = asyncio.Event()
        self._ids = itertools.count(1)
        self._replies: dict[Any, asyncio.Future] = {}
        self._subs: dict[Any, asyncio.Future] = {}
        self._closed = False
        self.frames_out = 0
        self._reader_task: asyncio.Task | None = None
        self._flusher_task: asyncio.Task | None = None
        self._obs_label = f"client:{source}"

    @classmethod
    async def connect(cls, host: str, port: int, *, source: str | None = None,
                      flush_interval: float = FLUSH_INTERVAL,
                      ) -> "AsyncCounterClient":
        # limit covers trace_reply frames (StreamReader default is 64 KiB).
        reader, writer = await asyncio.open_connection(
            host, port, limit=wire.MAX_FRAME
        )
        if source is None:
            sock = writer.get_extra_info("sockname")
            source = f"{sock[0]}:{sock[1]}"
        client = cls(reader, writer, source=source, flush_interval=flush_interval)
        client._reader_task = asyncio.ensure_future(client._read_loop())
        client._flusher_task = asyncio.ensure_future(client._flush_loop())
        return client

    # ----------------------------------------------------------- increments

    def increment(self, counter: str, amount: int = 1,
                  corr: str | None = None) -> int:
        """Pool ``amount`` into the next flush; returns our contribution.

        Not a coroutine and never blocks: the cost is two dict writes.
        The wire cost is amortized to at most one frame per flush window
        regardless of call rate or counter count — that is the
        pipelining the benchmark quantifies.

        ``corr`` tags this logical increment as a *rider* of whichever
        batched frame eventually carries it: the flusher emits one
        ``frame_ride`` event per rider (``corr`` = the request's token,
        ``op`` = the frame's corr), which is what lets per-request tail
        attribution see through the coalescing
        (:func:`repro.obs.collect.frame_riders`).
        """
        if self._closed:
            raise RuntimeError("client is closed")
        amount = validate_amount(amount)
        total = self._contrib.get(counter, 0) + amount
        self._contrib[counter] = total
        if corr is not None:
            self._riders.append(corr)
        self._dirty.add(counter)
        self._dirty_event.set()
        return total

    async def flush(self) -> None:
        """Ship every pending contribution and wait for the server's ack."""
        await self._flush_now(acked=True)

    async def increment_rpc(self, counter: str, amount: int = 1) -> int:
        """Unpipelined baseline: one frame, one awaited ack, per call.

        Same merge semantics as :meth:`increment` (ships the absolute
        contribution, as a one-floor ``inc``), so mixing the two is
        safe; exists so the benchmark can measure what the flush window
        buys.  Pooled riders stay for the next flush, which ships this
        counter's floor again.
        """
        amount = validate_amount(amount)
        total = self._contrib.get(counter, 0) + amount
        self._contrib[counter] = total
        reply = await self._request(
            {"op": "inc", "s": self.source, "f": [[counter, total]]}
        )
        value = reply["f"][0][1]
        self._note_value(counter, value)
        return value

    async def _flush_loop(self) -> None:
        while True:
            await self._dirty_event.wait()
            # The window: everything pooled while we sleep rides one frame.
            await asyncio.sleep(self.flush_interval)
            await self._flush_now(acked=False)

    async def _flush_now(self, *, acked: bool) -> None:
        if not self._dirty:
            if acked:
                # Nothing pooled, but earlier unacked frames may be in
                # flight: TCP ordering + sequential dispatch make any
                # round trip a barrier, and a `get` creates nothing
                # server-side.
                await self._request({"op": "get", "c": ""})
            return
        future = self._write_dirty(acked=acked)
        await self._writer.drain()
        if future is not None:
            for counter, total in (await future)["f"]:
                self._note_value(counter, total)

    def _write_dirty(self, *, acked: bool = False):
        """Write one ``inc`` frame carrying every dirty counter's floor.

        Returns the ack's future when ``acked``, else ``None``.  Never
        blocks, so loop callbacks can call it; the caller drains the
        writer if it can, and makes sure something is dirty.
        """
        self._dirty_event.clear()
        contrib = self._contrib
        frame = {"op": "inc", "s": self.source,
                 "f": [[counter, contrib[counter]] for counter in self._dirty]}
        self._dirty = set()
        # Riders are taken even with obs off so the tag list cannot
        # accumulate across an enable/disable cycle.
        riders, self._riders = self._riders, []
        if _obs.enabled:
            corr = frame["t"] = _obs.next_corr()
            label = self._obs_label
            _obs.on_dist(label, "frame_send", op="inc", corr=corr,
                         count=len(frame["f"]))
            for rider in riders:
                _obs.on_dist(label, "frame_ride", corr=rider, op=corr)
            _obs.on_dist(label, "batch_flush", count=len(frame["f"]),
                         corr=corr)
        future = None
        if acked:
            frame["id"] = next(self._ids)
            future = asyncio.get_running_loop().create_future()
            self._replies[frame["id"]] = future
        self._writer.write(wire.encode(frame))
        self.frames_out += 1
        return future

    def _absorb(self, pool: dict[str, int], riders: list[str]) -> None:
        """Add a thread-side pool to our contributions and riders."""
        contrib = self._contrib
        for counter, amount in pool.items():
            contrib[counter] = contrib.get(counter, 0) + amount
        self._dirty.update(pool)
        self._riders.extend(riders)

    # -------------------------------------------------------------- waiting

    async def value(self, counter: str) -> int:
        """The server's current total for ``counter`` (authoritative)."""
        reply = await self._request({"op": "get", "c": counter})
        self._note_value(counter, reply["v"])
        return reply["v"]

    async def check(self, counter: str, level: int,
                    timeout: float | None = None, *,
                    corr: str | None = None) -> None:
        """Suspend this coroutine until ``counter`` reaches ``level``.

        Flushes our own pending contribution first (a waiter must not
        deadlock on increments it already made), then waits for the
        service's ``reached`` push.  On timeout the verdict is
        adjudicated against an authoritative ``get``: only a confirmed
        shortfall raises :class:`CheckTimeout`.

        ``corr`` overrides the subscription's correlation token with a
        caller-owned one (a load generator's per-request corr), so the
        server's ``push_deliver`` — and hence the whole wire edge in a
        merged trace — is attributed to that request.
        """
        level = validate_level(level)
        if counter in self._dirty:
            await self._flush_now(acked=False)
        sub_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._subs[sub_id] = future
        sub_frame = {"op": "sub", "c": counter, "l": level, "id": sub_id}
        # Wire correlation (schema v3): the sub's token rides the frame,
        # the server echoes it on the reached push and stamps it on the
        # push_deliver event — and the park/unpark pair below carries it
        # too, which is what lets a merged trace link this wait to the
        # server-side increment that ends it.
        obs_on = _obs.enabled
        token = t_park = None
        if not obs_on:
            corr = None
        else:
            if corr is None:
                corr = _obs.next_corr()
            sub_frame["t"] = corr
            token = next_token()
            _obs.on_dist(self._obs_label, "frame_send", op="sub",
                         corr=corr, level=level)
        self._writer.write(wire.encode(sub_frame))
        self.frames_out += 1
        await self._writer.drain()
        if obs_on:
            t_park = _obs.clock()
            _obs.on_dist(self._obs_label, "park", corr=corr, token=token,
                         level=level)
        try:
            reached = await asyncio.wait_for(
                asyncio.shield(future), timeout
            )
        except asyncio.TimeoutError:
            if self._subs.pop(sub_id, None) is not None:
                future.cancel()  # nothing will await it now
            unsub_frame: dict = {"op": "unsub", "id": sub_id}
            if obs_on and _obs.enabled:
                unsub_frame["t"] = corr
                _obs.on_dist(self._obs_label, "frame_send", op="unsub", corr=corr)
            self._writer.write(wire.encode(unsub_frame))
            self.frames_out += 1
            # Adjudicate: the push may have lost the race to the deadline.
            current = await self.value(counter)
            if current >= level:
                if obs_on and _obs.enabled:
                    _obs.on_dist(self._obs_label, "unpark", corr=corr,
                                 token=token, level=level,
                                 wait_s=_obs.clock() - t_park)
                return
            if obs_on and _obs.enabled:
                _obs.on_dist(self._obs_label, "timeout", corr=corr,
                             token=token, level=level,
                             wait_s=_obs.clock() - t_park)
            raise CheckTimeout(
                f"check(level={level}) on {counter!r} unsatisfied after "
                f"{timeout}s (value={current})"
            ) from None
        else:
            if obs_on and _obs.enabled:
                _obs.on_dist(self._obs_label, "unpark", corr=corr,
                             token=token, level=level,
                             wait_s=_obs.clock() - t_park)
            self._note_value(counter, reached["v"])

    # ------------------------------------------------------------- plumbing

    def known_value(self, counter: str) -> int:
        """Last server-reported total — a stable lower bound."""
        return self._known.get(counter, 0)

    def contribution(self, counter: str) -> int:
        """Our own absolute contribution (includes unflushed pooling)."""
        return self._contrib.get(counter, 0)

    def _note_value(self, counter: str, value: int) -> None:
        if self._known.get(counter, 0) < value:
            self._known[counter] = value

    async def _request(self, frame: dict) -> dict:
        frame["id"] = next(self._ids)
        if _obs.enabled:
            frame["t"] = _obs.next_corr()
            _obs.on_dist(self._obs_label, "frame_send", op=frame["op"],
                         corr=frame["t"])
        future = asyncio.get_running_loop().create_future()
        self._replies[frame["id"]] = future
        self._writer.write(wire.encode(frame))
        self.frames_out += 1
        await self._writer.drain()
        return await future

    async def fetch_trace(self) -> dict:
        """The server's event ring (``fetch_trace``): pid-stamped dicts.

        Returns the raw ``trace_reply`` payload — ``events`` (each
        already carrying the server's ``pid``), ``node``, ``pid``,
        ``clock`` (server monotonic at reply build), ``truncated``.
        Feed ``events`` to :func:`repro.obs.collect.merge` alongside the
        local ring to build one cross-process timeline.
        """
        return await self._request({"op": "fetch_trace"})

    async def fetch_metrics(self) -> dict:
        """The server's metrics-registry snapshot (``fetch_metrics``)."""
        return await self._request({"op": "fetch_metrics"})

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    raise ConnectionResetError("server closed the connection")
                frame = wire.decode(line)
                op = frame["op"]
                if _obs.enabled:
                    _obs.on_dist(self._obs_label, "frame_recv", op=op,
                                 corr=frame.get("t"))
                if op in ("ack", "value", "trace_reply", "metrics_reply"):
                    future = self._replies.pop(frame["id"], None)
                    if future is not None and not future.done():
                        future.set_result(frame)
                elif op == "reached":
                    self._note_value(frame["c"], frame["v"])
                    future = self._subs.pop(frame["id"], None)
                    if future is not None and not future.done():
                        future.set_result(frame)
                elif op == "error":
                    future = self._replies.pop(frame.get("id"), None)
                    if future is not None and not future.done():
                        future.set_exception(RuntimeError(frame["msg"]))
        except (ConnectionError, asyncio.CancelledError, ValueError) as exc:
            self._fail_pending(exc)

    def _fail_pending(self, exc: BaseException) -> None:
        for future in (*self._replies.values(), *self._subs.values()):
            if not future.done():
                future.set_exception(ConnectionError(f"connection lost: {exc!r}"))
        self._replies.clear()
        self._subs.clear()

    async def close(self) -> None:
        """Flush pending increments, then tear the connection down.

        The flush is acked even when nothing is pooled: a flusher or a
        thread-side ship may have just written an unacked frame, and
        close returns only once the service has applied it.
        """
        if self._closed:
            return
        self._closed = True
        try:
            await self._flush_now(acked=True)
        except (ConnectionError, asyncio.CancelledError):
            pass
        for task in (self._flusher_task, self._reader_task):
            if task is not None:
                task.cancel()
        self._fail_pending(ConnectionError("client closed"))
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:  # pragma: no cover - peer raced the close
            pass

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"<AsyncCounterClient source={self.source!r} {state} "
                f"frames_out={self.frames_out}>")


class ServiceCounter:
    """Thread-side handle on one service-hosted counter.

    Obtained from :meth:`open_threadside`'s endpoint; every method is
    safe to call from any thread.  Waiting parks the calling thread on
    its PR-6 engine slot via :func:`wait_threadside`; increments are
    fire-and-forget: they pool in the endpoint, and the connection's
    loop ships the pool once per flush window.  A closed handle (or a
    handle of a closed endpoint) raises ``ValueError`` on
    :meth:`increment`, :meth:`check` and :meth:`flush`.

    The handle registers in the observability registry: ``snapshot()``
    reports the last server-acknowledged total (a stable lower bound on
    the true fabric total) and one wait node per thread currently parked
    in :meth:`check`, so dumps and the stall watchdog see cross-process
    waiters exactly like local ones.
    """

    def __init__(self, endpoint: "_ThreadsideEndpoint", counter: str) -> None:
        self._endpoint = endpoint
        self._client = endpoint.client
        self._loop = endpoint._loop
        self._counter = counter
        self._name = f"service:{counter}"
        self._waiting: dict[int, int] = {}   # level -> parked thread count
        self._waiting_lock = threading.Lock()
        self._closed = False
        _obs_registry.register(self)

    # Mirrors the MonotonicCounter surface so callers can swap backends.

    @property
    def name(self) -> str:
        """The service-side counter name."""
        return self._counter

    def increment(self, amount: int = 1, *, corr: str | None = None) -> None:
        amount = validate_amount(amount)
        self._check_open("increment")
        self._endpoint._pool_increment(self._counter, amount, corr)

    def _check_open(self, op: str) -> None:
        if self._closed or self._endpoint.closed:
            raise ValueError(f"{self!r}: {op} on a closed handle")

    def check(self, level: int, timeout: float | None = None, *,
              corr: str | None = None) -> None:
        level = validate_level(level)
        self._check_open("check")
        # Thread-side wait interval (schema v3.1): the *calling thread*
        # owns a park/unpark pair carrying the request corr, while the
        # inner client park runs on the connection's loop thread.  A
        # merged trace therefore shows the worker's wait ending at the
        # server's push_deliver (same corr) — the wire edge a tail
        # exemplar's critical path walks.
        obs_on = _obs.enabled
        token = t_park = None
        if obs_on:
            token = next_token()
            t_park = _obs.clock()
            _obs.on_dist(self._name, "park", corr=corr, token=token,
                         level=level)
        with self._waiting_lock:
            self._waiting[level] = self._waiting.get(level, 0) + 1
        try:
            wait_threadside(
                self._loop,
                self._endpoint._drained(
                    self._client.check(self._counter, level, timeout, corr=corr)
                ),
                None if timeout is None else timeout + _THREADSIDE_GRACE,
            )
        except Exception:
            if obs_on and _obs.enabled:
                _obs.on_dist(self._name, "timeout", corr=corr, token=token,
                             level=level, wait_s=_obs.clock() - t_park)
            raise
        else:
            if obs_on and _obs.enabled:
                _obs.on_dist(self._name, "unpark", corr=corr, token=token,
                             level=level, wait_s=_obs.clock() - t_park)
        finally:
            with self._waiting_lock:
                remaining = self._waiting[level] - 1
                if remaining:
                    self._waiting[level] = remaining
                else:
                    del self._waiting[level]

    def flush(self) -> None:
        """Block until the server has acked every pooled increment."""
        self._check_open("flush")
        wait_threadside(self._loop, self._endpoint._drained(self._client.flush()),
                        _THREADSIDE_GRACE)

    def value_rpc(self) -> int:
        """Authoritative server total (one round trip)."""
        return wait_threadside(
            self._loop, self._client.value(self._counter), _THREADSIDE_GRACE
        )

    @property
    def value(self) -> int:
        """Last server-acknowledged total: a guaranteed lower bound,
        readable without a round trip (stability makes stale safe)."""
        return self._client.known_value(self._counter)

    # ------------------------------------------------------- observability

    def snapshot(self) -> CounterSnapshot:
        with self._waiting_lock:
            nodes = tuple(
                WaitNodeSnapshot(level=level, count=count)
                for level, count in sorted(self._waiting.items())
            )
        return CounterSnapshot(value=self.value, nodes=nodes)

    def dist_snapshot(self) -> dict:
        """Fabric-level view for ``repro.obs`` dumps."""
        return {
            "backend": "service",
            "counter": self._counter,
            "source": self._client.source,
            "published": self.value,
            "contribution": self._endpoint._contribution(self._counter),
        }

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._endpoint._handles.pop(self, None)
            _obs_registry.deregister(self)

    def __repr__(self) -> str:
        return f"<ServiceCounter {self._counter!r} value>={self.value}>"


class _ThreadsideEndpoint:
    """A connection plus the daemon loop thread that drives it.

    Thread-side increments pool here, one amount per counter name (and
    one rider list) under one lock.  The increment that finds the pool
    unarmed wakes the loop once, and the loop ships the pool at once:
    the leading edge.  A ship that wrote anything chains the next one a
    window later, and every increment until then is a dict write.  A
    chained ship moves the pool into the client and writes one ``inc``
    frame carrying every dirty floor, then chains again; one that finds
    nothing to write disarms, under the pool lock, so the next increment
    wakes the loop again.  ``flush``, ``check`` and :meth:`close` drain
    the pool first, so nobody waits out a window for their own
    increments and close loses none.
    """

    def __init__(self, client: AsyncCounterClient,
                 loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self._client = client
        self._loop = loop
        self._thread = thread
        self._handles: dict[ServiceCounter, None] = {}   # open handles
        self._pool_lock = threading.Lock()
        self._pool: dict[str, int] = {}      # counter -> amount
        self._pool_riders: list[str] = []    # request corrs
        self._armed = False   # a ship is queued or chained
        self.closed = False

    @property
    def client(self) -> AsyncCounterClient:
        return self._client

    def counter(self, name: str) -> ServiceCounter:
        if self.closed:
            raise ValueError(f"counter({name!r}) on a closed endpoint")
        handle = ServiceCounter(self, name)
        self._handles[handle] = None
        return handle

    # ------------------------------------------------------------- the pool

    def _pool_increment(self, counter: str, amount: int,
                        corr: str | None) -> None:
        with self._pool_lock:
            if self.closed:
                raise ValueError(f"increment of {counter!r} on a closed endpoint")
            pool = self._pool
            pool[counter] = pool.get(counter, 0) + amount
            if corr is not None:
                self._pool_riders.append(corr)
            if self._armed:
                return
            self._armed = True
            # Inside the lock: close() cannot stop the loop in between.
            self._loop.call_soon_threadsafe(self._ship)

    def _ship(self) -> None:
        """Ship the pool in one frame and chain the next window (loop
        thread), or disarm when there is nothing to write."""
        client = self._client
        with self._pool_lock:
            self._drain()
            if not client._dirty:
                self._armed = False
                return
        client._write_dirty()
        self._loop.call_later(client.flush_interval, self._ship)

    def _drain(self) -> None:
        """Move the pool into the client (loop thread).

        The caller holds the pool lock, so a reader of
        :meth:`_contribution` never sees an amount in both places or in
        neither.
        """
        if self._pool:
            self._client._absorb(self._pool, self._pool_riders)
            self._pool = {}
            self._pool_riders = []

    async def _drained(self, coro):
        with self._pool_lock:
            self._drain()
        return await coro

    def _contribution(self, counter: str) -> int:
        """Our absolute contribution, pooled increments included."""
        with self._pool_lock:
            return (self._client.contribution(counter)
                    + self._pool.get(counter, 0))

    # ---------------------------------------------------------------- calls

    def fetch_trace(self) -> dict:
        """Thread-side ``fetch_trace``: the server's pid-stamped ring."""
        return wait_threadside(
            self._loop, self._client.fetch_trace(), _THREADSIDE_GRACE
        )

    def fetch_metrics(self) -> dict:
        """Thread-side ``fetch_metrics``: the server's registry snapshot."""
        return wait_threadside(
            self._loop, self._client.fetch_metrics(), _THREADSIDE_GRACE
        )

    def close(self) -> None:
        """Ship what is still pooled, then stop the connection and loop."""
        with self._pool_lock:
            if self.closed:
                return
            self.closed = True
        for handle in list(self._handles):
            handle.close()
        try:
            wait_threadside(self._loop, self._drained(self._client.close()),
                            _THREADSIDE_GRACE)
        except (ConnectionError, TimeoutError):
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=_THREADSIDE_GRACE)

    def __enter__(self) -> "_ThreadsideEndpoint":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def open_threadside(host: str, port: int, *, source: str | None = None,
                    flush_interval: float = THREADSIDE_FLUSH_INTERVAL,
                    ) -> _ThreadsideEndpoint:
    """Connect a background event loop to a counter service.

    Spawns one daemon thread running a private loop, connects an
    :class:`AsyncCounterClient` on it, and returns an endpoint whose
    ``counter(name)`` hands out thread-safe :class:`ServiceCounter`
    handles.  The thread exists because the caller has none of its own
    loop — purely synchronous programs get service counters this way.
    ``flush_interval`` is the chained window: under steady traffic the
    endpoint ships one frame per window, so a remote waiter may see a
    floor up to that late (50 ms by default).
    """
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run() -> None:
        asyncio.set_event_loop(loop)
        started.set()
        loop.run_forever()
        loop.close()

    thread = threading.Thread(target=run, name="repro-dist-client", daemon=True)
    thread.start()
    started.wait()
    client = wait_threadside(
        loop,
        AsyncCounterClient.connect(
            host, port, source=source, flush_interval=flush_interval
        ),
        _THREADSIDE_GRACE,
    )
    return _ThreadsideEndpoint(client, loop, thread)

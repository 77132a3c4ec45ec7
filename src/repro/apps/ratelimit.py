"""A sliding-window rate limiter built from monotonic counters.

The "believable product" of ROADMAP item 4: a per-key quota service
whose synchronization is nothing but the paper's counters.  Each key
owns two monotone quantities:

* ``admitted`` — every request ever admitted for the key (a plain
  :class:`~repro.core.MonotonicCounter` locally: every bump and read
  already happens under the entry lock, so the counter's own lock is
  never contended);
* ``retired`` — admissions that have *left* the sliding window (a plain
  :class:`~repro.core.MonotonicCounter` locally; the wait surface).

The window estimate is the difference: a **roll** samples ``admitted``
and, one window later, raises ``retired`` to that sample.  Because
``retired`` is always an admitted-count from *at least* ``window_s``
ago, ``admitted - retired`` over-estimates the true in-window count —
so admitting only while the estimate is under the limit can never admit
over quota, no matter how stale the marks are (stability doing
admission control: a stale lower bound on ``retired`` errs toward
rejecting, never over-admitting).  Mark density only affects how much
*unused* quota a burst leaves behind.

Blocked acquirers park on ``retired.check(retired + 1)``: the next roll
that retires anything releases them, and the park → increment → release
→ unpark chain is ordinary counter traffic — which is exactly why the
tail-latency attribution pipeline (:mod:`repro.obs.load` /
:mod:`repro.obs.slo`) can explain a slow admit with the same causal
machinery as any other wait.

Two backends:

* **local** (default) — in-process counters; the strict never-over-quota
  guarantee, exercised schedule-exhaustively by
  ``tests/testkit/test_ratelimit_interleave.py``.
* **service** (:class:`ServiceBackend`) — counters live in a PR-7
  :class:`~repro.dist.service.CounterService`; an admit is a dict write
  into the thread-side endpoint's pool, which ships one ``inc`` frame
  per flush window (50ms by default; tagged per-request via ``corr``
  riders), and *only the service host rolls* (:func:`serve_rolls` —
  ``raise_source`` is max-merge per source, so two rollers racing
  would retire the same admissions twice and over-admit).  Client
  decisions use the last totals the service reported (lower bounds)
  floored at the client's own admits (counted before they pool).
  Pooled ``inc`` frames are never acked, and a handle's reported total
  moves only on a ``get``, an acked ``flush`` or a ``reached`` push,
  none of which ``try_acquire`` makes.  So another client's admits
  stay unseen for good: with N clients on one key, each may admit a
  full limit of its own per window, up to N times the limit in all
  (ROADMAP item 1).  The strict guarantee is the in-process one.

Keys are LRU-bounded (``max_keys``): the least-recently-touched entry is
evicted first, but never while it is pinned — an acquirer holds its pin
from the touch through the decision and any park, and evicting a
counter out from under a ``check`` would strand the thread forever.
Locally, eviction keeps the key's in-window **residue**: the window is
stored as it stands, ``(evicted_at, marks, admitted, retired)``, in a
map that drops it one window after the eviction (at the next store).
Most evicted keys do not come back before then, so the roll and the
rebase wait for the one that does: a key re-created within the window
rolls the stored marks at ``evicted_at``, rebases them to ``retired``,
and starts from that residue (``admitted`` raised to the residual
count) — the same entry an eviction-time roll would have left.  So
eviction never forgets an admit that is still in the window and never
lets a key over-admit.  Service counters outlive their client-side
entry and need no residue.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict, deque
from typing import Callable, Iterable

from repro.core import MonotonicCounter
from repro.core import syncpoints as _sp
from repro.core.errors import CheckTimeout

__all__ = ["RateLimiter", "LocalBackend", "ServiceBackend", "serve_rolls"]


def _roll_marks(marks: deque, now: float, horizon: float, admitted: int) -> int | None:
    """One roll step over a key's ``(timestamp, admitted)`` marks.

    Pops every mark at or before ``horizon`` and re-seats the newest of
    them at the horizon: it is the tightest sound retire target, and
    everything older is no longer needed.  Appends ``(now, admitted)``
    when the count moved since the last mark.  Returns the retire
    target, or ``None`` when no mark has left the window; the caller
    does its own retire.
    """
    target = None
    while marks and marks[0][0] <= horizon:
        target = marks.popleft()[1]
    if target is not None:
        marks.appendleft((horizon, target))
    if not marks or marks[-1][1] != admitted:
        marks.append((now, admitted))
    return target


def _check_seconds(name: str, value: float) -> None:
    """Raise unless ``value`` is a finite, positive number of seconds."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0 < value < math.inf):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


class LocalBackend:
    """In-process counters: strict sliding-window guarantee.

    Both counters are plain :class:`~repro.core.MonotonicCounter`
    objects, and entries roll themselves, so the limiter carries an
    evicted key's in-window residue over to its next entry.
    """

    #: Local entries roll themselves (opportunistically and via the
    #: roller thread); service entries must not (see module docstring).
    rolls = True

    def admitted(self, name: str):
        return MonotonicCounter(name=name)

    def retired(self, name: str):
        return MonotonicCounter(name=name)

    #: Both reads are the counter's lock-free ``value``: its getter
    #: itself, so a read is one Python call, not a method and a property.
    admitted_value = retired_value = staticmethod(MonotonicCounter.value.fget)

    def bump(self, counter, corr: str | None) -> None:
        counter.increment(1)

    def wait(self, counter, level: int, timeout: float | None,
             corr: str | None) -> None:
        counter.check(level, timeout=timeout)

    def close(self, counter) -> None:
        pass


class ServiceBackend:
    """Counters hosted by a :class:`~repro.dist.service.CounterService`.

    Built over a thread-side endpoint
    (:func:`repro.dist.client.open_threadside`).  Admission reads are
    the last totals the service reported, lower bounds — ``admitted``
    additionally floors at our own admits, counted on the deciding
    thread before the increment pools for the loop, so a client never
    races its own admits.  Nothing on the admit path refreshes those
    totals, so another client's admits are never seen: each client may
    admit a full limit of its own per window.  An
    evicted key's handles are closed, and a closed handle raises on
    ``increment``; the entry pins keep every ``bump`` on an open one.  The
    service host must run :func:`serve_rolls` for this limiter's keys or
    blocking acquires will only ever time out.
    """

    rolls = False

    def __init__(self, endpoint) -> None:
        self._endpoint = endpoint
        #: Our admits per counter name, raised by ``bump`` under the
        #: entry lock.  Keyed by name, not handle: the service counter
        #: outlives an evicted entry, and so does our share of it.
        self._admits: dict[str, int] = {}

    def admitted(self, name: str):
        return self._endpoint.counter(name)

    def retired(self, name: str):
        return self._endpoint.counter(name)

    def admitted_value(self, counter) -> int:
        return max(counter.value, self._admits.get(counter.name, 0))

    def retired_value(self, counter) -> int:
        return counter.value

    def bump(self, counter, corr: str | None) -> None:
        name = counter.name
        self._admits[name] = self._admits.get(name, 0) + 1
        counter.increment(1, corr=corr)

    def wait(self, counter, level: int, timeout: float | None,
             corr: str | None) -> None:
        counter.check(level, timeout=timeout, corr=corr)

    def close(self, counter) -> None:
        counter.close()


class _Entry:
    """One key's counters, marks ring, and admission lock."""

    __slots__ = ("key", "admitted", "retired", "lock", "marks",
                 "last_roll", "pins")

    def __init__(self, key: str, admitted, retired, now: float) -> None:
        self.key = key
        self.admitted = admitted
        self.retired = retired
        self.lock = threading.Lock()
        #: (ts, admitted_value) samples, oldest first.  Bounded: rolls
        #: prune everything older than the one mark still needed.  A
        #: new entry starts empty: its first decision always admits
        #: (nothing is in its window yet), and that admit is its first
        #: mark.
        self.marks: deque[tuple[float, int]] = deque()
        self.last_roll = now
        #: Threads holding a live reference (touch → decide → park).
        #: Non-zero means evict-unsafe: evicting would let the key be
        #: re-created with fresh counters while this entry still admits,
        #: splitting the window estimate and over-admitting.  A new
        #: entry is born pinned by the touch that creates it.
        self.pins = 1


class RateLimiter:
    """Sliding-window quota per key over monotonic counters.

    Parameters
    ----------
    limit:
        Maximum admissions per key per ``window_s`` seconds.
    window_s:
        The sliding window length.
    name:
        Prefix for the per-key counter names (``{name}:{key}:admitted``
        etc.) — also the service-mode namespace shared with
        :func:`serve_rolls`.
    backend:
        A :class:`LocalBackend` (default) or :class:`ServiceBackend`.
    max_keys:
        LRU bound on live per-key entries.
    roll_interval:
        How often a key's window rolls (opportunistically on admits and
        via :meth:`start_roller`).  Defaults to ``window_s / 8`` — the
        mark density, i.e. how promptly expired admissions free quota.
    clock:
        Injectable time source (the determinism tests use virtual time).
    """

    def __init__(self, limit: int, window_s: float, *,
                 name: str = "ratelimit", backend=None, max_keys: int = 1024,
                 roll_interval: float | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
            raise ValueError(f"limit must be a positive int, got {limit!r}")
        # A NaN or infinite window or roll interval never rolls: the
        # key admits its limit once and then rejects forever.
        _check_seconds("window_s", window_s)
        if roll_interval is None:
            roll_interval = window_s / 8.0
        _check_seconds("roll_interval", roll_interval)
        if (not isinstance(max_keys, int) or isinstance(max_keys, bool)
                or max_keys < 1):
            raise ValueError(f"max_keys must be an int >= 1, got {max_keys!r}")
        self.limit = limit
        self.window_s = window_s
        self.name = name
        self.backend = backend if backend is not None else LocalBackend()
        self.max_keys = max_keys
        self.roll_interval = roll_interval
        self._clock = clock
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        # Lock order: _entries_lock, then entry.lock — never the reverse.
        self._entries_lock = threading.Lock()
        self._roller: threading.Thread | None = None
        self._roller_stop = threading.Event()
        self.evictions = 0
        #: Evicted keys' windows (local backends only), oldest eviction
        #: first: key -> (evicted_at, marks, admitted, retired).
        self._residue: OrderedDict[str, tuple] = OrderedDict()

    # -------------------------------------------------------------- entries

    def _touch(self, key: str, now: float) -> _Entry:
        """LRU-touch at ``now`` (creating if new, evicting if over budget).

        The returned entry is **pinned**: the caller owes one
        ``entry.pins`` decrement (``_decide`` pays it on an admit and on
        a reject that will not park; ``acquire`` pays it after parking
        or giving up).  Without the
        pin, an eviction sweeping between this return and the decision
        could orphan the entry, and a re-created key would admit against
        fresh counters — over quota.
        """
        with self._entries_lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                with entry.lock:
                    entry.pins += 1
                return entry
            backend = self.backend
            entry = _Entry(
                key,
                backend.admitted(f"{self.name}:{key}:admitted"),
                backend.retired(f"{self.name}:{key}:retired"),
                now,
            )
            residue = self._residue
            stored = residue.pop(key, None)
            if stored is not None:
                marks = self._rebase(stored, now)
                if marks:
                    # Carry on from the evicted entry's window, as if it
                    # had never left: same in-window count, same marks
                    # to retire.
                    entry.last_roll = stored[0]  # evicted_at: its last roll
                    entry.admitted.increment(marks[-1][1])
                    entry.marks.extend(marks)
            entries = self._entries
            entries[key] = entry  # published already pinned (_Entry)
            excess = len(entries) - self.max_keys
            if excess <= 0:
                return entry
            # Oldest-first sweep, skipping pinned entries: a pin is held
            # from touch through the decision and any park, so it covers
            # every thread deciding or parked on the entry.  The new
            # entry, last in line, is pinned too.
            evicted = []
            horizon = now - self.window_s
            for old in entries.values():
                with old.lock:
                    if old.pins:
                        continue
                    if _sp.enabled:
                        _sp.fire("ratelimit.evict", self)
                    marks = old.marks
                    if backend.rolls and marks[-1][0] > horizon:
                        # Keep the window as it stands, as (evicted_at,
                        # marks, admitted, retired).  On the quota_local
                        # traffic shape three evicted keys in four never
                        # come back before it expires, so the roll and
                        # rebase wait for the one that does (_rebase).
                        # The marks leave the dead entry: a roll() that
                        # listed it before the eviction rolls an empty
                        # ring, not this window.  The map only grows
                        # here, so this is also where residue evicted a
                        # window or more ago is dropped.
                        while (residue and next(iter(residue.values()))[0]
                               <= horizon):
                            residue.popitem(last=False)
                        old.marks = deque()
                        residue[old.key] = (
                            now, marks,
                            backend.admitted_value(old.admitted),
                            backend.retired_value(old.retired),
                        )
                evicted.append(old)
                excess -= 1
                if not excess:
                    break
            for old in evicted:
                del entries[old.key]
                self.evictions += 1
        for old in evicted:
            backend.close(old.admitted)
            backend.close(old.retired)
        return entry

    def _rebase(self, residue: tuple, now: float) -> list | None:
        """An evicted window as the key's next entry starts it.

        Rolls the stored marks at the eviction instant, exactly as an
        eviction-time roll would have (:func:`_roll_marks` is a pure
        function of its inputs), and rebases them to the ``retired``
        that roll reaches.  ``None`` when nothing of the window is left
        at ``now``.
        """
        evicted_at, marks, admitted, retired = residue
        target = _roll_marks(marks, evicted_at, evicted_at - self.window_s,
                             admitted)
        if target is not None and target > retired:
            retired = target
        if marks[-1][1] <= retired or marks[-1][0] <= now - self.window_s:
            return None
        return [(ts, value - retired) for ts, value in marks]

    def keys(self) -> list[str]:
        """Live keys, least-recently-used first."""
        with self._entries_lock:
            return list(self._entries)

    # -------------------------------------------------------------- rolling

    def _roll_locked(self, entry: _Entry, now: float) -> None:
        """Retire the window's tail (entry lock held by the caller)."""
        if not self.backend.rolls:
            return
        if _sp.enabled:
            _sp.fire("ratelimit.roll", self)
        entry.last_roll = now
        admitted_v = self.backend.admitted_value(entry.admitted)
        target = _roll_marks(entry.marks, now, now - self.window_s, admitted_v)
        if target is not None:
            retired_v = self.backend.retired_value(entry.retired)
            if target > retired_v:
                entry.retired.increment(target - retired_v)

    def roll(self, key: str | None = None, now: float | None = None) -> None:
        """Roll one key's window (or every live key's)."""
        if now is None:
            now = self._clock()
        if key is not None:
            with self._entries_lock:
                entry = self._entries.get(key)
            if entry is not None:
                with entry.lock:
                    self._roll_locked(entry, now)
            return
        with self._entries_lock:
            entries = list(self._entries.values())
        for entry in entries:
            with entry.lock:
                self._roll_locked(entry, now)

    def start_roller(self, interval: float | None = None) -> "RateLimiter":
        """Run :meth:`roll` for every key on a daemon thread."""
        if self._roller is not None:
            raise RuntimeError("roller already started")
        if interval is None:
            interval = self.roll_interval
        self._roller_stop.clear()

        def run() -> None:
            while not self._roller_stop.wait(interval):
                try:
                    self.roll()
                except Exception:
                    continue  # a roll must never kill the roller

        self._roller = threading.Thread(
            target=run, name=f"repro-ratelimit-roller:{self.name}", daemon=True
        )
        self._roller.start()
        return self

    def stop_roller(self) -> None:
        thread = self._roller
        if thread is None:
            return
        self._roller_stop.set()
        thread.join(timeout=5.0)
        self._roller = None

    def __enter__(self) -> "RateLimiter":
        return self.start_roller()

    def __exit__(self, *exc: object) -> None:
        self.stop_roller()

    # ------------------------------------------------------------ admission

    def _decide(self, entry: _Entry, corr: str | None, now: float,
                park: bool) -> int | None:
        """One locked admit decision: ``None`` on an admit, else the
        retired level a rejected caller should wait past.

        ``retired`` reaching ``level + 1`` means quota was freed after
        this decision was made.  The entry arrives pinned (``_touch``);
        an admit releases the pin here, and so does a reject when the
        caller will not ``park``.  A caller that parks holds the pin
        through the park (or the give-up) so the eviction sweep never
        pulls the counters out from under a waiter.
        """
        if _sp.enabled:
            _sp.fire("ratelimit.lock", self)
        with entry.lock:
            if now - entry.last_roll >= self.roll_interval:
                self._roll_locked(entry, now)
            admitted_v = self.backend.admitted_value(entry.admitted)
            retired_v = self.backend.retired_value(entry.retired)
            if admitted_v - retired_v < self.limit:
                self.backend.bump(entry.admitted, corr)
                if not entry.marks or now > entry.marks[-1][0]:
                    entry.marks.append((now, admitted_v + 1))
                else:
                    # Same clock tick as the newest mark (coarse or
                    # injected clocks): raise it in place — the counter
                    # really had reached this value by that timestamp,
                    # so the roll may retire it a window later.
                    entry.marks[-1] = (entry.marks[-1][0], admitted_v + 1)
                entry.pins -= 1
                return None
            if not park:
                entry.pins -= 1
            return retired_v

    def try_acquire(self, key: str, *, corr: str | None = None) -> bool:
        """One non-blocking admit decision for ``key``.

        This is the gated fast path (``ratelimit_admit`` in the quick
        bench): with observability disabled it does no obs work at all —
        the only hooks are sync points, which cost one module-attr read
        each, identical to every other primitive in the repo.
        """
        now = self._clock()
        return self._decide(self._touch(key, now), corr, now, False) is None

    def acquire(self, key: str, timeout: float | None = None, *,
                corr: str | None = None) -> bool:
        """Admit ``key``, blocking until quota frees or ``timeout``.

        A rejected attempt parks on ``retired.check(level + 1)`` — the
        next roll that retires anything wakes every parked acquirer to
        re-contend.  Returns ``False`` on timeout (never raises
        :class:`CheckTimeout`).
        """
        now = self._clock()
        deadline = None if timeout is None else now + timeout
        entry = self._touch(key, now)
        while True:
            retired_v = self._decide(entry, corr, now, True)
            if retired_v is None:
                return True
            try:
                remaining = None if deadline is None else deadline - now
                if remaining is not None and remaining <= 0:
                    return False
                self.backend.wait(entry.retired, retired_v + 1,
                                  remaining, corr)
            except CheckTimeout:
                return False
            finally:
                with entry.lock:
                    entry.pins -= 1
            now = self._clock()
            entry = self._touch(key, now)  # re-touch: we are active again

    # ------------------------------------------------------------ inspection

    def _residue_window(self, residue: tuple, now: float) -> int:
        """An evicted key's window estimate, as its next entry would
        start it; rolls a copy, so the stored marks stay as they are."""
        evicted_at, marks, admitted, retired = residue
        marks = self._rebase((evicted_at, deque(marks), admitted, retired), now)
        return 0 if marks is None else marks[-1][1]

    def in_window(self, key: str) -> int:
        """The current window estimate for ``key`` (0 for unknown keys).

        An evicted key reads its residue: the count its next decision
        starts from.
        """
        with self._entries_lock:
            entry = self._entries.get(key)
            if entry is None:
                residue = self._residue.get(key)
                if residue is None:
                    return 0
                return self._residue_window(residue, self._clock())
        with entry.lock:
            return (self.backend.admitted_value(entry.admitted)
                    - self.backend.retired_value(entry.retired))

    def snapshot(self) -> dict:
        """Per-key admission state (for dumps and tests).

        Evicted keys whose residue still holds admits are listed too,
        with ``"evicted": True``.
        """
        with self._entries_lock:
            entries = list(self._entries.items())
            now = self._clock()
            evicted = [(key, residue, self._residue_window(residue, now))
                       for key, residue in self._residue.items()]
        out = {}
        for key, residue, in_window in evicted:
            if in_window:
                admitted_v = residue[2]
                out[key] = {
                    "admitted": admitted_v,
                    "retired": admitted_v - in_window,
                    "in_window": in_window,
                    "marks": len(residue[1]),
                    "pins": 0,
                    "evicted": True,
                }
        for key, entry in entries:
            with entry.lock:
                admitted_v = self.backend.admitted_value(entry.admitted)
                retired_v = self.backend.retired_value(entry.retired)
                out[key] = {
                    "admitted": admitted_v,
                    "retired": retired_v,
                    "in_window": admitted_v - retired_v,
                    "marks": len(entry.marks),
                    "pins": entry.pins,
                }
        return out

    def close(self) -> None:
        """Stop the roller and release every entry's counters."""
        self.stop_roller()
        with self._entries_lock:
            entries = list(self._entries.values())
            self._entries.clear()
            self._residue.clear()
        for entry in entries:
            self.backend.close(entry.admitted)
            self.backend.close(entry.retired)

    def __repr__(self) -> str:
        with self._entries_lock:
            n = len(self._entries)
        return (f"<RateLimiter {self.name!r} limit={self.limit}/"
                f"{self.window_s}s keys={n}>")


async def serve_rolls(service, *, keys: Iterable[str], limit: int,
                      window_s: float, name: str = "ratelimit",
                      interval: float | None = None) -> None:
    """Roll a service-hosted limiter's windows, on the service host.

    Runs forever (cancel the task to stop).  Exactly one process may
    roll a key — ``raise_source("roll", ...)`` is max-merge for the
    single ``"roll"`` source, so one roller is idempotent and safe
    against its own retries, but two rollers sampling different marks
    would retire admissions twice.  The server-side ``retired`` raise
    flows through the GCounter's wait mirror into subscription pushes:
    that push (``push_deliver``) is the wire event a blocked client's
    tail exemplar blames.
    """
    import asyncio

    if interval is None:
        interval = window_s / 8.0
    # Per key: its two counters (looked up once), its marks, and the
    # target ``retired`` was last raised to.  Raising it again to the
    # same target is a no-op that still takes the counter's lock, so
    # only a real step raises.
    counters = [(service.counter(f"{name}:{key}:admitted"),
                 service.counter(f"{name}:{key}:retired")) for key in keys]
    start = time.monotonic()
    marks = [deque([(start, 0)]) for _ in counters]
    raised = [0] * len(counters)
    while True:
        now = time.monotonic()
        horizon = now - window_s
        for i, (admitted_c, retired_c) in enumerate(counters):
            target = _roll_marks(marks[i], now, horizon, admitted_c.value)
            if target is not None and target > raised[i]:
                raised[i] = target
                retired_c.raise_source("roll", target)
        await asyncio.sleep(interval)

"""Shared-memory multiprocess monotonic counters: one writer slot per process.

The cross-process half of the counter fabric (ROADMAP item 1, axis 1).
A :class:`ShmCounter` lives in a ``multiprocessing.shared_memory``
segment laid out as a tiny header plus three fixed arrays of 8-byte
little-endian unsigned integers, one entry per *slot*:

======== ======================================================
values   each attached process's monotone contribution
pids     slot ownership (0 = free; a dead pid = reclaimable)
bells    per-process doorbell: 1 + the lowest level the owning
         process currently waits for (0 = not waiting)
======== ======================================================

**Why no lock, no seqlock, no syscall on the read path.**  A writer
only ever stores an *increasing* value into its *own* slot — an aligned
8-byte store, which CPython performs as a single C-level copy (atomic
on every platform CPython supports; there is no partial-word tearing to
guard against, hence no seqlock).  A reader sums the values array with
a plain ``memoryview`` scan.  Each slot read is some value the slot
truly held at the instant it was read, and slots only grow, so the
scanned sum is bracketed by the true totals at scan start and scan end.
A ``check(level)`` that observes ``sum >= level`` is therefore sound by
the paper's stability argument (§6) verbatim: the condition held at
some real moment during the scan and can never be un-held.  The sum
can lag the true total — it is a *guaranteed lower bound*, since every
term is a value its slot really held and no slot ever shrinks — so the
only possible error is a wait that parks a little longer, never a
wakeup that fires early and never an observed decrease.

**Waiting.**  As the paper's ``Check`` suspends its caller, the first
thread of a process to wait on a handle takes the handle's *seat* and
waits across processes itself.  Before it publishes the process's lowest
awaited level in the shm bell word, the attachment makes a named FIFO
next to the flock sidecar (``repro-shm-<segment>-<slot>.fifo``), open
read-write and non-blocking; the seat holder blocks in ``poll`` on it.
A remote writer whose increment satisfies a published bell level bumps
the header's ring generation *before* its value store and writes one
byte to that slot's FIFO *after* it: the kernel wakes the seat holder,
which re-scans and returns — no second thread, no engine hop.  Other
local waiters (*followers*) park on the engine through a local
:class:`~repro.core.counter.MonotonicCounter` mirror that the seat
holder raises when its scan moves.  A holder that leaves while others
wait bumps a process-local seat counter, which every follower awaits
beside the mirror (``MultiWait.wait_any``), so the seat is handed on at
once.  Local increments and ``close`` ring the process's own FIFO.  An
already-true ``check`` is one read-only scan: no lock, no syscall.

The wake is an accelerator, never the proof.  A writer can read the
bells just before a waiter publishes its bell, and store just after the
waiter's post-registration re-scan; no byte is written for that store.
The seat holder's ``poll`` therefore times out at the ``_POLL_MAX``
ceiling (4 ms) and re-scans, so a missed wake costs at most one poll.

**Lifecycle.**  ``ShmCounter.publish(name)`` creates the segment;
``ShmCounter.attach(name)`` maps it and claims a writer slot.  Claims
are serialized by an ``flock`` on a sidecar lock file (the kernel
releases the lock on process death, so a crash mid-claim can never
wedge the segment).  A slot whose owner pid is dead is *reclaimed* by
the next attach: ownership transfers but the slot's value is kept —
contributions are per-slot, values only grow, and folding or zeroing a
dead slot would momentarily bend the monotone sum.  A process killed
mid-increment therefore leaves the counter at either the old or the
new slot value, both valid states; readers never observe a decrease
(``tests/dist/test_crash_recovery.py`` kills writers to prove it).
"""

from __future__ import annotations

import os
import select
import struct
import tempfile
import threading
import time
from multiprocessing import shared_memory

from repro.core.counter import MonotonicCounter
from repro.core.errors import CheckTimeout
from repro.core.multiwait import MultiWait
from repro.obs import hooks as _obs
from repro.core.snapshot import CounterSnapshot, WaitNodeSnapshot
from repro.core.validation import validate_amount, validate_level, validate_timeout
from repro.obs import registry as _obs_registry
from repro.obs.events import next_token as _next_token

__all__ = ["ShmCounter", "ShmSlotSnapshot"]

_MAGIC = 0x4D43_5348_4D31  # "SHMCM1"-ish tag so attach fails loudly on junk
_HEADER_WORDS = 8          # magic, version, nslots, ring, 4 reserved
_WORD = 8
_VERSION = 1

#: The seat holder's ceiling poll (seconds): how long a wake missed by
#: the bell/re-scan race (module docstring) can go unnoticed.  Every
#: other wake arrives as a FIFO byte.
_POLL_MAX = 0.004

#: Serializes the resource-tracker patch in :meth:`ShmCounter.attach`
#: (the patch is process-global for the constructor's duration).
_attach_lock = threading.Lock()


class ShmSlotSnapshot:
    """Frozen per-slot view: (index, value, pid, awaited level or None)."""

    __slots__ = ("index", "value", "pid", "awaited")

    def __init__(self, index: int, value: int, pid: int, awaited: int | None) -> None:
        self.index = index
        self.value = value
        self.pid = pid
        self.awaited = awaited

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        wait = f" awaiting {self.awaited}" if self.awaited is not None else ""
        return f"<slot {self.index} value={self.value} pid={self.pid}{wait}>"


def _lock_path(name: str) -> str:
    return os.path.join(tempfile.gettempdir(), f"repro-shm-{name}.lock")


def _fifo_path(name: str, slot: int) -> str:
    return os.path.join(tempfile.gettempdir(), f"repro-shm-{name}-{slot}.fifo")


def _unlink_quiet(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _ring_fd(fd: int) -> bool:
    """Write one wake byte to FIFO ``fd``; False if nobody reads it."""
    try:
        os.write(fd, b"\0")
    except BlockingIOError:  # full: a wake is already pending
        pass
    except BrokenPipeError:
        return False
    return True


def _make_fifo(path: str) -> int:
    """Create a fresh FIFO at ``path``; return its read-write end.

    Any file already there is a previous owner's of the same slot (a
    crashed process never unlinks its own).  Opening read-write keeps a
    writer on the FIFO, so ``poll`` never sees a hang-up, and the open
    never blocks waiting for a peer.
    """
    _unlink_quiet(path)
    os.mkfifo(path, 0o600)
    return os.open(path, os.O_RDWR | os.O_NONBLOCK)


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    return True


class ShmCounter:
    """A monotonic counter shared across processes through one segment.

    Create with :meth:`publish`, join with :meth:`attach`; both return a
    handle that owns one writer slot.  ``increment`` stores to that slot
    only; ``check``/``value`` scan all slots.  The handle is also a
    perfectly ordinary in-process counter: one local waiter holds the
    seat and blocks on the process's FIFO, the others park on the engine
    via the internal mirror (see the module docstring).

    Not a :class:`~repro.core.api.AbstractCounter` subclass on purpose:
    ``reset`` has no safe cross-process meaning for a grow-only
    structure.  Everything else of the counter contract is provided.
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        slot: int,
        *,
        name: str,
        owner: bool,
    ) -> None:
        self._shm = segment
        self._slot = slot
        self._name = name
        self._owner = owner
        self._closed = False
        nslots = self._read_word(2)
        self._nslots = nslots
        buf = segment.buf
        base = _HEADER_WORDS * _WORD
        #: The whole point: the read path is one cast memoryview, summed.
        self._values = buf[base:base + nslots * _WORD].cast("Q")
        self._pids = buf[base + nslots * _WORD:base + 2 * nslots * _WORD].cast("Q")
        self._bells = buf[base + 2 * nslots * _WORD:base + 3 * nslots * _WORD].cast("Q")
        self._ring = buf[3 * _WORD:4 * _WORD].cast("Q")
        # In-process serialization of our slot's read-modify-write (the
        # slot has one writer *process*, but that process may have many
        # threads), of the waiter registry and of the seat.
        self._local_lock = threading.Lock()
        label = f"{name}[slot{slot}]" if name else None
        self._mirror = MonotonicCounter(name=label)  # the followers' wait
        self._seats = MonotonicCounter(name=label and f"{label}.seat")  # handoffs
        for internal in (self._mirror, self._seats):  # surfaced via self
            _obs_registry.deregister(internal)
        self._published = 0          # cumulative floor handed to the mirror
        self._publish_lock = threading.Lock()
        self._waiting: dict[int, int] = {}  # level -> local waiter count
        self._seat = threading.Lock()  # taken under _local_lock
        # Touched only by the seat holder (or under _local_lock while
        # nobody waits): the ring generation it last noticed, and that
        # bell's corr, pending until its progress is published.
        self._seat_ring = 0
        self._seat_corr: str | None = None
        # Our FIFO's read-write end and its poller, made on the first
        # wait.  Every write to a FIFO fd (ours or a cached remote one)
        # happens under _bell_lock, so close() can never free an fd
        # number mid-write.
        self._fifo_fd: int | None = None
        self._poller = None
        self._bell_fds: dict[int, tuple[int, int]] | None = {}  # slot -> (owner pid, fd)
        self._bell_lock = threading.Lock()
        _obs_registry.register(self)

    # ------------------------------------------------------------ lifecycle

    @classmethod
    def publish(cls, name: str | None = None, *, slots: int = 16) -> "ShmCounter":
        """Create the segment (and claim slot 0).  ``name=None`` lets the
        OS pick a unique segment name (read it back from ``.name``)."""
        if not isinstance(slots, int) or isinstance(slots, bool) or not 1 <= slots <= 4096:
            raise ValueError(f"slots must be an int in [1, 4096], got {slots!r}")
        size = (_HEADER_WORDS + 3 * slots) * _WORD
        segment = shared_memory.SharedMemory(name=name, create=True, size=size)
        buf = segment.buf
        struct.pack_into("<QQQQ", buf, 0, _MAGIC, _VERSION, slots, 0)
        counter = cls(segment, 0, name=segment.name, owner=True)
        counter._pids[0] = os.getpid()
        if _obs.enabled:
            _obs.on_dist(f"shm:{segment.name}", "slot_claim",
                         op="publish", level=0, count=0)
        return counter

    @classmethod
    def attach(cls, name: str) -> "ShmCounter":
        """Map an existing segment and claim a free (or orphaned) slot."""
        # CPython < 3.13 registers *attached* segments with the resource
        # tracker too, which would unlink the segment when this process
        # exits before the publisher is done with it (bpo-39959).  The
        # publisher's registration is the one that guarantees cleanup, so
        # suppress registration for the attach — suppression (rather than
        # register-then-unregister) matters under fork, where children
        # share the parent's tracker and an unregister would erase the
        # publisher's entry from the shared cache.
        with _attach_lock:
            try:  # pragma: no cover - depends on interpreter internals
                from multiprocessing import resource_tracker

                saved = resource_tracker.register
                resource_tracker.register = lambda *a, **k: None
            except Exception:
                saved = None
            try:
                segment = shared_memory.SharedMemory(name=name)
            finally:
                if saved is not None:
                    resource_tracker.register = saved
        magic, version, slots = struct.unpack_from("<QQQ", segment.buf, 0)
        if magic != _MAGIC or version != _VERSION:
            segment.close()
            raise ValueError(f"segment {name!r} is not a ShmCounter (v{_VERSION}) segment")
        slot = cls._claim_slot(segment, name, int(slots))
        return cls(segment, slot, name=name, owner=False)

    @staticmethod
    def _claim_slot(segment: shared_memory.SharedMemory, name: str, nslots: int) -> int:
        """Claim a writer slot under the sidecar file lock.

        ``flock`` serializes claimants across processes and is released
        by the kernel if the claimant dies, so the claim protocol needs
        no shared-memory atomics.  A slot is takeable when its pid is 0
        (never owned, or released by ``close``) or its owner is dead
        (crash-orphan reclamation: ownership moves, the value stays —
        monotonicity forbids zeroing it).
        """
        import fcntl

        base = _HEADER_WORDS * _WORD
        pids = segment.buf[base + nslots * _WORD:base + 2 * nslots * _WORD].cast("Q")
        bells = segment.buf[base + 2 * nslots * _WORD:base + 3 * nslots * _WORD].cast("Q")
        with open(_lock_path(name), "a+b") as lock_file:
            fcntl.flock(lock_file, fcntl.LOCK_EX)
            try:
                for index in range(nslots):
                    pid = pids[index]
                    if pid == 0 or not _pid_alive(int(pid)):
                        pids[index] = os.getpid()
                        # A dead owner's bell would keep writers ringing
                        # a FIFO nobody reads; the new owner has no
                        # waiters yet.
                        bells[index] = 0
                        if _obs.enabled:
                            # op records whether this claim took a free
                            # slot or reclaimed a dead owner's; count is
                            # the displaced pid (0 when free) — the
                            # crash-recovery breadcrumb a merged trace
                            # shows after a writer is SIGKILLed.
                            _obs.on_dist(f"shm:{name}", "slot_claim",
                                         op="reclaim" if pid else "claim",
                                         level=index, count=int(pid))
                        return index
            finally:
                fcntl.flock(lock_file, fcntl.LOCK_UN)
        raise RuntimeError(
            f"no free writer slot in segment {name!r} ({nslots} slots, all owned "
            "by live processes)"
        )

    @property
    def name(self) -> str:
        """The segment name — what other processes pass to :meth:`attach`."""
        return self._name

    @property
    def slot(self) -> int:
        """This process's writer slot index."""
        return self._slot

    @property
    def slots(self) -> int:
        return self._nslots

    def close(self) -> None:
        """Release the slot (ownership only; the value stays), close and
        remove this handle's FIFO, and unmap.  Local waiters raise
        ``ValueError``."""
        with self._local_lock:
            if self._closed:
                return
            self._closed = True
            waiting = bool(self._waiting)
        _obs_registry.deregister(self)
        # Wake every waiter (the seat holder through the FIFO, followers
        # through the seat count) to see _closed and raise.  The holder
        # polls the FIFO and scans the mapping until it leaves the seat.
        if waiting:
            self._ring_own()
            self._seats.increment(1)
        vacated = self._seat.acquire(timeout=2.0)
        with self._bell_lock:
            fds, self._bell_fds = self._bell_fds, None
            own, self._fifo_fd = self._fifo_fd, None
        for _pid, fd in fds.values():
            os.close(fd)
        if own is not None:
            # Unlink before the slot is released: the next owner of this
            # slot makes its own FIFO at this path.
            _unlink_quiet(_fifo_path(self._name, self._slot))
        try:
            self._bells[self._slot] = 0  # or writers keep opening our FIFO
            self._pids[self._slot] = 0
        except (ValueError, TypeError):  # pragma: no cover - already unmapped
            pass
        if not vacated:  # pragma: no cover - a holder stuck past 2 s
            return  # leak its FIFO fd and mapping, not pull them from under it
        if own is not None:
            os.close(own)
        # memoryview slices pin the exported buffer; drop them before close.
        self._values.release()
        self._pids.release()
        self._bells.release()
        self._ring.release()
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment, its lock file and every slot's FIFO
        (publisher's responsibility, after close).

        Name-based, so it works on a closed handle; idempotent."""
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
        _unlink_quiet(_lock_path(self._name))
        for index in range(self._nslots):
            _unlink_quiet(_fifo_path(self._name, index))

    def __enter__(self) -> "ShmCounter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
        if self._owner:
            self.unlink()

    # ------------------------------------------------------------ hot paths

    def _read_word(self, index: int) -> int:
        return struct.unpack_from("<Q", self._shm.buf, index * _WORD)[0]

    @property
    def value(self) -> int:
        """The summed contributions — one read-only memoryview scan.

        A guaranteed lower bound on the true total (each slot read is
        exact at its own read instant; slots only grow), and exact
        whenever no increment is concurrent with the scan.
        """
        return sum(self._values)

    def increment(self, amount: int = 1) -> int:
        """Grow this process's slot; wake local waiters; ring remote bells.

        The store is the only cross-process write: a single increasing
        8-byte value into our own slot.  Everything else is wakeup
        plumbing.  When some *other* slot has published a bell level the
        new sum satisfies, the header ring generation is bumped before
        the store and each such slot's FIFO gets one byte after it,
        outside the lock.  Then the local mirror is raised (the engine's
        coalesced wake pass for in-process waiters).
        """
        if type(amount) is not int or amount < 0:
            amount = validate_amount(amount)
        if amount == 0:
            return self.value
        values = self._values
        slot = self._slot
        with self._local_lock:
            if self._closed:
                raise ValueError(f"{self!r}: increment on a closed handle")
            new_own = values[slot] + amount
            total = sum(values) + amount  # the sum once the store lands
            # Remote wakeups: scan the bells (one cache-line-ish read
            # per slot, only on the increment path), collect every slot
            # whose published level is about to be satisfied, and bump
            # the ring generation once.  The bump goes BEFORE the value
            # store: a seat holder that observes the new value is then
            # guaranteed to observe the generation that announced it
            # (this process could stall arbitrarily long between the
            # two stores, and bump-after-store would let the holder
            # return with no bell attribution).  An early ring merely
            # costs the holder one extra scan.  The bump is a
            # read-modify-write that may race another writer's — losing
            # one of two concurrent bumps is harmless because the value
            # can only move away from what any holder last saw.
            bells = self._bells
            ring = self._ring
            rung = None
            for index in range(self._nslots):
                bell = bells[index]
                if bell and index != slot and bell - 1 <= total:
                    if rung is not None:
                        rung.append(index)
                        continue
                    rung = [index]
                    new_gen = ring[0] + 1
                    ring[0] = new_gen
                    if _obs.enabled:
                        # The ring generation doubles as the wire token:
                        # the remote seat holder that wakes on this
                        # generation emits bell_wake with the same corr,
                        # tying the two rings' events together in a
                        # merged trace.  Concurrent writers may stamp
                        # the same generation — harmless, the collector
                        # treats corr groups as sets.
                        _obs.on_dist(self, "bell_ring",
                                     corr=f"bell:{self._name}:{int(new_gen)}",
                                     level=int(bell - 1), value=total)
            values[slot] = new_own
        # The FIFO bytes go AFTER the store, so a seat holder they wake
        # scans the new value.
        if rung is not None:
            self._ring_bells(rung)
        # Local wakeups: raise the mirror floor (the followers' engine
        # wake pass) and ring our own FIFO so the seat holder re-scans
        # now, not at the ceiling.
        if self._waiting:
            self._publish_floor(total)
            self._ring_own()
        return total

    def check(self, level: int, timeout: float | None = None) -> None:
        """Suspend until the cross-process sum reaches ``level``.

        Already-satisfied checks return from the read-only scan — no
        lock, no syscall.  A waiting check publishes the process's
        lowest awaited level in the shm doorbell, then holds the seat
        (blocks in ``poll`` on the process's FIFO) or follows (parks
        until the mirror reaches ``level`` or the seat is handed on).
        """
        if type(level) is not int or level < 0:
            level = validate_level(level)
        if timeout is not None and (type(timeout) is not float or timeout < 0.0):
            timeout = validate_timeout(timeout)
        if sum(self._values) >= level:
            return
        deadline = None if timeout is None else time.monotonic() + timeout
        seated, seen = self._register_wait(level)
        token = t_parked = None
        try:
            while True:
                if self._closed:
                    raise ValueError(f"{self!r}: check on a closed handle")
                if seated:
                    self._notice_ring()
                # Re-scan on every pass.  The first one, after
                # registration, catches an increment that landed between
                # the fast scan and the doorbell publish: it never rang
                # (its bell read preceded our write).
                total = sum(self._values)
                # Racy read: a waiter registering later re-scans itself.
                others = sum(self._waiting.values()) > 1
                if total >= level:
                    corr = self._take_corr() if seated and _obs.enabled else None
                    if others:
                        self._publish_floor(total, corr)
                    if t_parked is not None:
                        _obs.on_wake(self, None, level, t_parked, token, corr)
                    return
                if seated and others and total > self._published:
                    self._publish_floor(
                        total, self._take_corr() if _obs.enabled else None)
                remaining: float | None = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        if t_parked is not None:
                            _obs.on_timeout(self, level, total, t_parked, token)
                        raise CheckTimeout(
                            f"{self!r}: check({level}) timed out after {timeout}s "
                            f"(value={total})"
                        )
                if not seated:
                    seated, seen = self._follow(level, seen, remaining)
                    continue
                if t_parked is None and _obs.enabled:
                    token = _next_token()
                    t_parked = _obs.on_park(self, level, total, len(self._waiting),
                                            sum(self._waiting.values()), token)
                # Rings are edges, not counts: one drain answers every
                # pending ring.  (``poll``, unlike ``select``, takes fds
                # past 1023.)
                ceiling = _POLL_MAX if remaining is None else min(remaining, _POLL_MAX)
                if self._poller.poll(ceiling * 1000.0):
                    os.read(self._fifo_fd, 4096)
        finally:
            self._deregister_wait(level, seated)

    # ------------------------------------------------- waiting infrastructure

    def _publish_floor(self, total: int, corr: str | None = None) -> None:
        """Raise the mirror to ``total``, waking the followers it meets;
        under ``corr`` (the bell that announced it) as wire context."""
        # Same race-safe absolute-floor publish as GCounter._publish.
        with self._publish_lock:
            gap = total - self._published
            if gap <= 0:
                return
            self._published = total
        if corr is None:
            self._mirror.increment(gap)
            return
        prev_ctx = _obs.set_wire_context(_obs.WireContext(corr))
        try:
            self._mirror.increment(gap)
        finally:
            _obs.set_wire_context(prev_ctx)

    def _register_wait(self, level: int) -> tuple[bool, int]:
        """Count a waiter and publish the bell; returns ``_try_seat()``."""
        with self._local_lock:
            if self._closed:
                raise ValueError(f"{self!r}: check on a closed handle")
            if not self._waiting:
                # No seat holder.  Read the ring generation BEFORE the
                # bell goes up, so a writer that sees the bell and bumps
                # it before the holder's first pass still counts as a ring.
                self._seat_ring = self._ring[0]
            # The FIFO exists before the bell names this slot, so a
            # writer that sees the bell always finds something to open.
            if self._fifo_fd is None:
                self._fifo_fd = _make_fifo(_fifo_path(self._name, self._slot))
                self._poller = select.poll()
                self._poller.register(self._fifo_fd, select.POLLIN)
            self._waiting[level] = self._waiting.get(level, 0) + 1
            self._bells[self._slot] = 1 + min(self._waiting)
            return self._try_seat()

    def _try_seat(self) -> tuple[bool, int]:
        """Take the seat if free: ``(True, 0)``; else ``(False, n)`` with
        the handoff count ``n`` to wait past.  ``_local_lock`` held."""
        if self._seat.acquire(False):
            return True, 0
        return False, self._seats.value

    def _follow(self, level: int, seen: int,
                remaining: float | None) -> tuple[bool, int]:
        """Park until the mirror reaches ``level`` or the seat is handed
        on (``seen`` passed); try the seat if it was."""
        with MultiWait([(self._mirror, level), (self._seats, seen + 1)]) as wait:
            try:
                handed = 1 in wait.wait_any(remaining)
            except CheckTimeout:  # the caller adjudicates against a scan
                handed = False
        if not handed:
            return False, seen
        with self._local_lock:
            return self._try_seat()

    def _deregister_wait(self, level: int, seated: bool) -> None:
        with self._local_lock:
            count = self._waiting.get(level, 0) - 1
            if count > 0:
                self._waiting[level] = count
            else:
                self._waiting.pop(level, None)
            if not self._closed:  # close() may have unmapped the bells
                self._bells[self._slot] = 1 + min(self._waiting) if self._waiting else 0
            if not seated:
                return
            self._seat.release()
            handoff = bool(self._waiting)
        # Hand the seat on with no gap: every follower wakes, one takes it.
        if handoff:
            self._seats.increment(1)

    def _notice_ring(self) -> None:
        """The seat holder notes a new ring generation (before its scan:
        writers bump it before their store); with obs on, it emits
        ``bell_wake`` and holds the bell's corr for the publish and
        return the ring announced."""
        ring = self._ring[0]
        if ring != self._seat_ring:
            self._seat_ring = ring
            if _obs.enabled:
                self._seat_corr = f"bell:{self._name}:{int(ring)}"
                _obs.on_dist(self, "bell_wake", corr=self._seat_corr)

    def _take_corr(self) -> str | None:
        """The seat holder consumes the bell corr of progress it just
        scanned (re-reading the ring: its bump preceded the store)."""
        if self._seat_corr is None:
            self._notice_ring()
        corr, self._seat_corr = self._seat_corr, None
        return corr

    def _ring_own(self) -> None:
        """Wake this handle's seat holder (a no-op before the first wait)."""
        with self._bell_lock:
            if self._fifo_fd is not None:
                _ring_fd(self._fifo_fd)

    def _ring_bells(self, slots: list[int]) -> None:
        """Write one byte to each of ``slots``' FIFOs, waking their seat holders.

        Writer fds are cached per slot and keyed by the slot's owner
        pid, so a slot reclaimed by a new process is reopened.  A full
        FIFO already holds a pending wake; a missing FIFO or one nobody
        reads has no waiter to wake.  Both are no-ops.
        """
        pids = self._pids
        with self._bell_lock:
            fds = self._bell_fds
            if fds is None:  # closed
                return
            for index in slots:
                pid = pids[index]
                cached = fds.get(index)
                if cached is not None:
                    if cached[0] == pid and _ring_fd(cached[1]):
                        continue
                    # A new owner, or the same pid behind a new FIFO.
                    del fds[index]
                    os.close(cached[1])
                try:
                    fd = os.open(_fifo_path(self._name, index),
                                 os.O_WRONLY | os.O_NONBLOCK)
                except OSError:  # ENOENT / ENXIO: no waiter to wake
                    continue
                fds[index] = (pid, fd)
                _ring_fd(fd)

    # ---------------------------------------------------------- introspection

    def slot_snapshot(self) -> list[ShmSlotSnapshot]:
        """Per-slot values/owners/doorbells (read-only scan; diagnostic)."""
        snaps = []
        for index in range(self._nslots):
            bell = self._bells[index]
            snaps.append(
                ShmSlotSnapshot(
                    index,
                    int(self._values[index]),
                    int(self._pids[index]),
                    int(bell - 1) if bell else None,
                )
            )
        return snaps

    def dist_snapshot(self) -> dict:
        """The obs dump payload: published-slot sums as the guaranteed
        lower bound, per-slot detail, and remote doorbell levels."""
        slots = self.slot_snapshot()
        return {
            "backend": "shm",
            "segment": self._name,
            "slot": self._slot,
            "published": sum(s.value for s in slots),
            "slots": [
                {"index": s.index, "value": s.value, "pid": s.pid, "awaited": s.awaited}
                for s in slots
                if s.value or s.pid or s.awaited is not None
            ],
        }

    def snapshot(self) -> CounterSnapshot:
        """Counter-shaped view: one node per locally awaited level (the
        seat holder and its followers) plus one per *remote* process
        doorbell (count 1 each: a published bell means at least one
        waiter in that process, so the count never over-reports)."""
        with self._local_lock:
            local = tuple(WaitNodeSnapshot(level=level, count=count)
                          for level, count in sorted(self._waiting.items()))
        remote = tuple(
            WaitNodeSnapshot(level=s.awaited, count=1)
            for s in self.slot_snapshot()
            if s.awaited is not None and s.index != self._slot
        )
        return CounterSnapshot(value=self.value, nodes=local + remote)

    @property
    def waiting_levels(self) -> tuple[int, ...]:
        return self.snapshot().waiting_levels

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"slot={self._slot}/{self._nslots}"
        return f"<ShmCounter {self._name!r} {state} value={sum(self._values) if not self._closed else '?'}>"

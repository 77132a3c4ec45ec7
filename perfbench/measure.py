"""Measurement helpers: percentiles, CPU and memory, and the host record.

Nothing here imports ``repro``: the benchmark's own bookkeeping must not
change when the program does.
"""

from __future__ import annotations

import ctypes
import gc
import os
import resource
import statistics
import time
from array import array

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def pct(values, q: float) -> float:
    """The ``q``-quantile (0..1) of ``values`` by nearest rank; 0.0 if empty."""
    if not len(values):
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def fine_timer_slack() -> bool:
    """Ask Linux for 1 ns timer slack so short sleeps wake on time.

    The default 50 us slack lands in every open-loop request's latency
    (measured median sleep overshoot: 65 us default, 12 us with 1 ns).
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(29, 1, 0, 0, 0) == 0  # PR_SET_TIMERSLACK
    except (OSError, AttributeError):
        return False


def proc_cpu(pid: int) -> float:
    """CPU seconds used so far by process ``pid``, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of a live process ``pid``, in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_jiffies() -> tuple[int, int]:
    """(steal, total) jiffies from the aggregate ``cpu`` line of /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted inside user, so sum the first eight.
    return fields[7], sum(fields[:8])


class HostRecord:
    """Steal share and GC pauses over the measured phase.

    Recorded on every run and printed beside the result; never used to
    drop or repeat a run.
    """

    def __init__(self) -> None:
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_t0 = 0.0
        self._stat0 = (0, 0)
        self.steal_share = 0.0
        self.ref: list[float] = []

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_collections += 1
            self.gc_pause_s += time.perf_counter() - self._gc_t0

    def sample_ref(self) -> None:
        self.ref.append(ref_ns())

    def start(self) -> None:
        self._stat0 = _cpu_jiffies()
        gc.callbacks.append(self._on_gc)

    def stop(self) -> None:
        gc.callbacks.remove(self._on_gc)
        steal1, total1 = _cpu_jiffies()
        steal0, total0 = self._stat0
        self.steal_share = (steal1 - steal0) / max(1, total1 - total0)

    def metrics(self) -> dict:
        return {
            "host.steal_share": self.steal_share,
            "host.gc_collections": self.gc_collections,
            "host.gc_pause_ms": self.gc_pause_s * 1e3,
            "host.ref_ns": statistics.median(self.ref) if self.ref else 0.0,
        }


class Spans:
    """Preallocated span records of one layer: (request, start, duration).

    Spans of one request share its id (the request index or round
    number); the request's own span is their parent.
    """

    __slots__ = ("req", "start", "dur", "n", "cap")

    def __init__(self, cap: int) -> None:
        self.req = array("i", bytes(4 * cap))
        self.start = array("d", bytes(8 * cap))
        self.dur = array("d", bytes(8 * cap))
        self.n = 0
        self.cap = cap

    def add(self, req: int, start: float, dur: float) -> None:
        n = self.n
        if n < self.cap:
            self.req[n] = req
            self.start[n] = start
            self.dur[n] = dur
            self.n = n + 1

    def durations(self) -> array:
        return self.dur[:self.n]

    def doc(self, limit: int) -> dict:
        n = min(self.n, limit)
        return {"req": self.req[:n].tolist(), "start": self.start[:n].tolist(),
                "dur": self.dur[:n].tolist()}


_REF_DATA = list(range(200)) * 5   # small ints: the loop allocates nothing
_REF_TABLE = {v: v for v in range(200)}

#: The reference loop's step time at the nominal host speed (the median
#: over runs on a 2-vCPU Xeon VM); normalized metrics read as if measured
#: at this speed.
REF_NS = 45.0


def ref_ns() -> float:
    """Nanoseconds per step of a fixed, allocation-free Python loop.

    Each vCPU of a shared VM host can flip between a fast state and one ~1.6x
    slower (a busy neighbour), for tens of seconds at a time.  Sampling
    this loop between slices of a run records how fast the host was.
    """
    data, table = _REF_DATA, _REF_TABLE
    x = 0
    t0 = time.perf_counter_ns()
    for _ in range(60):
        for v in data:
            x ^= table[v]
    return (time.perf_counter_ns() - t0) / (60 * len(data))

"""Handoff workloads: a closed-loop ping-pong over two counters.

``handoff``
    Two threads, two ``MonotonicCounter``s, back to back.  Every round
    parks and wakes once in each direction.  The leader and the peer are
    pinned to different CPUs, so every wake crosses CPUs.  Measured on a
    2-vCPU host: both threads on one CPU inherit that vCPU's speed state
    (round trip 17 us fast, 20-24 us slow); left to the scheduler, the
    pair is sometimes co-located (~24 us) and otherwise not (~35 us), and
    the mix flips between runs.
``handoff_shm``
    Two processes, two ``ShmCounter``s; the far side is ``peer.py shm``.
    The shm watcher's poll is on every round's critical path.  The leader
    pauses a seeded think time before each round (see ``make_inputs``).

Round ``i``: the leader raises ``A`` to ``i`` and waits for ``B >= i``;
the peer waits for ``A >= i`` and raises ``B``.  To stop, the leader
raises ``A`` by two, which the peer reads as "no more rounds".
"""

from __future__ import annotations

import base64
import json
import os
import random
import threading
import time
from array import array

import measure
from procs import Child

WARMUP_S = 1.0
SLICE_S = 0.5        # slice length: the reference loop is sampled between
                     # slices, and traced runs rotate plain / traced / obs
CAP = 1 << 22        # rounds recorded per run (float32 round-trip times)
TCAP = 1 << 19       # traced rounds recorded per run


THINK_S = 0.0004     # handoff_shm: seeded pause before each round, U(0, THINK_S)
NTHINK = 4096        # think times drawn per run, reused cyclically


def make_inputs(workload: str, seed: int, seconds: float) -> array | None:
    """Seeded think times for ``handoff_shm``; ``handoff`` has no inputs.

    Both shm sides wake by polling with a doubling interval (0.2, 0.4,
    0.8 ms ...), so round trips fall on a few discrete modes (~0.25,
    ~0.67, ~1.5 ms).  Back to back, the two pollers phase-lock and the
    share of each mode flips from run to run, moving p50 between modes.
    A uniform pause of up to 0.4 ms before each round randomizes the
    phase: the mode shares become a property of the pause distribution,
    with p50 inside the ~0.67 ms mode and p90 inside the ~1.5 ms one.
    """
    if workload != "handoff_shm":
        return None
    rng = random.Random(seed)
    return array("d", (rng.uniform(0.0, THINK_S) for _ in range(NTHINK)))


def _stamps(n: int) -> array:
    return array("d", bytes(8 * n))


class HandoffRun:
    def __init__(self, workload: str, inputs, trace: bool) -> None:
        self.shm = workload == "handoff_shm"
        self.think = inputs
        self.trace = trace
        self.child = None
        self.rtt = array("f", bytes(4 * CAP))   # [i]: round i's round trip
        self.slices: list[tuple[int, int, int]] = []  # (first, last, mode)
        if trace:
            # Traced round j: leader stamps, and the peer's (in-process).
            self.round = array("i", bytes(4 * TCAP))  # j -> round number
            self.start = _stamps(TCAP)   # before A.increment
            self.inc = _stamps(TCAP)     # A.increment duration
            self.end = _stamps(TCAP)     # B.check returned
            self.val = _stamps(TCAP)     # B.value duration
            self.woke = _stamps(TCAP)    # peer: A.check returned
            self.sent = _stamps(TCAP)    # peer: before B.increment
            self.pinc = _stamps(TCAP)    # peer: B.increment duration
        self.nt = 0                      # traced rounds recorded
        self.last = 0                    # rounds completed by the last slice
        self.stopped = False
        self.tj = [-1]                   # the peer stamps slot tj[0] if >= 0
        if self.shm:
            from repro.dist import ShmCounter

            self.a = ShmCounter.publish(slots=4)
            self.b = ShmCounter.publish(slots=4)
            try:
                self.child = Child("shm", self.a.name, self.b.name,
                                   "1" if trace else "0")
                if self.child.readline() != "ready":
                    raise RuntimeError("shm peer failed to start")
            except BaseException:
                self.close()
                raise
        else:
            from repro.core import MonotonicCounter

            cpus = sorted(os.sched_getaffinity(0))
            self.cpus = (cpus[0], cpus[-1])
            os.sched_setaffinity(0, {self.cpus[0]})
            self.a = MonotonicCounter(name="pb:a")
            self.b = MonotonicCounter(name="pb:b")
            self.peer = threading.Thread(target=self._peer, name="pb-peer")
            self.peer.start()

    def _peer(self) -> None:
        os.sched_setaffinity(0, {self.cpus[1]})  # this thread only
        a, b, tj = self.a, self.b, self.tj
        pc = time.perf_counter
        i = 0
        while True:
            i += 1
            a.check(i)
            j = tj[0]
            if j >= 0:
                self.woke[j] = pc()
                if a.value > i:
                    return
                t = self.sent[j] = pc()
                b.increment(1)
                self.pinc[j] = pc() - t
            else:
                if a.value > i:
                    return
                b.increment(1)

    def _rounds(self, i: int, until: float) -> int:
        """Run rounds after round ``i`` until ``until``; returns the last."""
        a, b, rtt, think = self.a, self.b, self.rtt, self.think
        pc, sleep = time.perf_counter, time.sleep
        while True:
            i += 1
            if think is not None:
                sleep(think[i % NTHINK])
            s = pc()
            a.increment(1)
            b.check(i)
            e = pc()
            rtt[i] = e - s
            if e >= until or i + 1 >= CAP:
                return i

    def _traced_rounds(self, i: int, until: float) -> int:
        a, b, rtt, tj = self.a, self.b, self.rtt, self.tj
        rnd, start, inc, end, val = (self.round, self.start, self.inc,
                                     self.end, self.val)
        think = self.think
        pc, sleep = time.perf_counter, time.sleep
        j = self.nt
        while j < TCAP:
            i += 1
            if think is not None:
                sleep(think[i % NTHINK])
            rnd[j] = i
            tj[0] = j
            s = start[j] = pc()
            a.increment(1)
            inc[j] = pc() - s
            b.check(i)
            e = end[j] = pc()
            _ = b.value
            val[j] = pc() - e
            rtt[i] = e - s
            j += 1
            if e >= until or i + 1 >= CAP:
                break
        tj[0] = -1
        self.nt = j
        return i

    def run(self, seconds: float) -> dict:
        from repro import obs

        host = measure.HostRecord()
        child_pid = self.child.pid if self.child else None
        obs_events = obs_dropped = 0
        last = self.last = self._rounds(0, time.perf_counter() + WARMUP_S)
        first = last + 1
        cpu0 = time.process_time()
        child0 = measure.proc_cpu(child_pid) if child_pid else 0.0
        host.start()
        wall0 = time.perf_counter()
        stop = wall0 + seconds
        slot = 0
        while time.perf_counter() < stop and last + 1 < CAP:
            host.sample_ref()
            mode = slot % 3 if self.trace else 0
            until = min(stop, time.perf_counter() + SLICE_S)
            before = last
            if mode == 1:
                last = self._traced_rounds(last, until)
            elif mode == 2:
                handle = obs.enable()
                last = self._rounds(last, until)
                obs.disable()
                obs_events += handle.trace.emitted
                obs_dropped += handle.trace.dropped
            else:
                last = self._rounds(last, until)
            self.slices.append((before + 1, last, mode))
            self.last = last
            slot += 1
        wall1 = time.perf_counter()
        host.stop()
        cpu = time.process_time() - cpu0
        child_cpu = measure.proc_cpu(child_pid) - child0 if child_pid else 0.0
        rss = measure.self_peak_rss_mb()
        if child_pid:
            rss += measure.proc_peak_rss_mb(child_pid)

        self._stop_peer()
        peer_doc = None
        if self.shm:
            peer_doc = json.loads(self.child.readline())
            if self.trace:
                self.woke, self.sent, self.pinc = (
                    array("d", base64.b64decode(peer_doc[k]))
                    for k in ("woke", "sent", "inc"))
        else:
            self.peer.join(10.0)
            if self.peer.is_alive():
                raise RuntimeError("handoff peer did not stop")
        rounds = last
        failed = abs(self.b.value - rounds) + abs(self.a.value - (rounds + 2))
        if peer_doc is not None:
            failed += abs(peer_doc["rounds"] - rounds)

        rtt = self._rtts(0)
        res = {
            "attempted": rounds,
            "failed": failed,
            "lat": rtt,
            "ops": last - first + 1,
            "wall_s": wall1 - wall0,
            "cpu_s": cpu + child_cpu,
            "quota_use": (rounds - failed) / rounds,
            "peak_rss_mb": rss,
            "host": host,
            "notes": {"rounds": rounds},
        }
        if self.trace:
            res["layers"] = self._layers(rtt, obs_events, obs_dropped,
                                         child_cpu, last - first + 1)
        return res

    def planned(self) -> int:
        """Rounds the run has sent, counting the one in flight."""
        return self.last + 1

    def _stop_peer(self) -> None:
        """A jumps past the round the peer waits for: its cue to stop."""
        self.stopped = True
        self.a.increment(2)

    def _rtts(self, mode: int) -> list[float]:
        rtt = self.rtt
        return [rtt[i] for lo, hi, m in self.slices if m == mode
                for i in range(lo, hi + 1)]

    def _layers(self, rtt, obs_events, obs_dropped, child_cpu, ops) -> dict:
        from repro.core import engine

        n = self.nt
        # The shm child stamps by round number, the in-process peer by j.
        peer = [self.round[j] for j in range(n)] if self.shm else range(n)
        n = sum(1 for k in peer if k < len(self.woke))
        start, end, woke, sent = self.start, self.end, self.woke, self.sent
        wake_a = [woke[k] - start[j] for j, k in zip(range(n), peer)]
        wake_b = [end[j] - sent[k] for j, k in zip(range(n), peer)]
        inc = [self.inc[j] for j in range(n)] + [self.pinc[k] for k in peer[:n]]
        rtt_t = [end[j] - start[j] for j in range(n)]
        total = sum(rtt_t)
        unexplained = total - sum(wake_a) - sum(wake_b)
        obs_rtt = self._rtts(2)
        wake = wake_a + wake_b
        layer = ("shm.", "shm.") if self.shm else ("counter.", "engine.")
        rounds, incs, wakes = (measure.Spans(n), measure.Spans(2 * n),
                               measure.Spans(2 * n))
        for j, k in zip(range(n), peer):
            i = self.round[j]
            rounds.add(i, start[j], rtt_t[j])
            incs.add(i, start[j], self.inc[j])
            incs.add(i, sent[k], self.pinc[k])
            wakes.add(i, start[j], wake_a[j])
            wakes.add(i, sent[k], wake_b[j])
        share = 1.0 / (total or 1.0)
        self.self_share = {
            layer[0] + "increment": sum(inc) * share,
            layer[1] + "wake (self)": (sum(wake) - sum(inc)) * share,
            "unexplained": unexplained * share,
        }
        self.spans = {"handoff.round": rounds, layer[0] + "increment": incs,
                      layer[1] + "wake": wakes}
        us = 1e6
        layers = {
            "trace.unexplained_share": unexplained / total if total else 0.0,
            "trace.overhead_p50": measure.pct(rtt_t, 0.5) / measure.pct(rtt, 0.5),
            "obs.enabled_tax": measure.pct(obs_rtt, 0.5) / measure.pct(rtt, 0.5),
            "obs.events_per_op": obs_events / max(1, len(obs_rtt)),
            "obs.dropped": obs_dropped,
        }
        if self.shm:
            layers.update({
                "shm.increment_us_p50": measure.pct(inc, 0.5) * us,
                "shm.wake_us_p50": measure.pct(wake, 0.5) * us,
                "shm.wake_us_p90": measure.pct(wake, 0.9) * us,
                "shm.value_us_p50": measure.pct(self.val[:n], 0.5) * us,
                "shm.child_cpu_us_per_op": child_cpu * us / max(1, ops),
            })
        else:
            layers.update({
                "counter.increment_us_p50": measure.pct(inc, 0.5) * us,
                "engine.wake_us_p50": measure.pct(wake, 0.5) * us,
                "engine.wake_us_p90": measure.pct(wake, 0.9) * us,
                "engine.live_slots": engine.live_slot_count(),
            })
        return layers

    def close(self) -> None:
        if not self.stopped:
            self._stop_peer()
        if self.shm:
            try:
                if self.child is not None:
                    self.child.stop()
            finally:
                for counter in (self.a, self.b):
                    counter.close()
                    counter.unlink()
                from multiprocessing import resource_tracker

                # publish() started the tracker; stop and reap it now.
                resource_tracker._resource_tracker._stop()
        else:
            self.peer.join(10.0)

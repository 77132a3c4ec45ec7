"""Child process for the two-process workloads.

``peer.py serve KEYS LIMIT WINDOW NAME``
    A ``CounterService`` running ``serve_rolls`` for the limiter's keys.
    Prints ``ready <port>``; on ``totals`` prints the service's summed
    ``admitted`` values as JSON; exits when stdin closes.

``peer.py shm A B TRACE``
    The far end of the ``handoff_shm`` ping-pong: attaches both
    ``ShmCounter`` segments, prints ``ready``, then answers every round
    (``A.check(i)`` then ``B.increment(1)``) until the parent raises
    ``A`` past the round count.  With TRACE=1 it stamps each round and
    prints the stamps as JSON before exiting.
"""

from __future__ import annotations

import asyncio
import base64
import ctypes
import json
import signal
import sys
import time
from array import array


async def serve(nkeys: int, limit: int, window_s: float, name: str) -> None:
    from repro.apps.ratelimit import serve_rolls
    from repro.dist import CounterService

    service = CounterService()
    await service.start()
    keys = [f"k{i}" for i in range(nkeys)]
    rolls = asyncio.ensure_future(
        serve_rolls(service, keys=keys, limit=limit, window_s=window_s, name=name)
    )
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    print(f"ready {service.port}", flush=True)
    try:
        while line := await reader.readline():
            if line.strip() == b"totals":
                total = 0
                for key in keys:
                    counter = service.counters.get(f"{name}:{key}:admitted")
                    if counter is not None:
                        total += counter.value
                print(json.dumps({"admitted": total}), flush=True)
    finally:
        rolls.cancel()
        try:
            await rolls
        except asyncio.CancelledError:
            pass
        await service.stop()


def shm(name_a: str, name_b: str, trace: bool) -> None:
    from repro.dist import ShmCounter

    a = ShmCounter.attach(name_a)
    b = ShmCounter.attach(name_b)
    cap = 1 << 18
    woke = array("d", bytes(8 * cap))    # A.check(i) returned
    sent = array("d", bytes(8 * cap))    # just before B.increment
    inc = array("d", bytes(8 * cap))     # B.increment duration
    pc = time.perf_counter
    print("ready", flush=True)
    i = 0
    try:
        while True:
            i += 1
            a.check(i)
            if trace and i < cap:
                woke[i] = pc()
            if a.value > i:
                break
            if trace and i < cap:
                t = sent[i] = pc()
                b.increment(1)
                inc[i] = pc() - t
            else:
                b.increment(1)
    finally:
        b.close()
        a.close()
    n = min(i, cap)
    doc = {"rounds": i - 1}
    if trace:
        for label, arr in (("woke", woke), ("sent", sent), ("inc", inc)):
            doc[label] = base64.b64encode(arr[:n].tobytes()).decode()
    print(json.dumps(doc), flush=True)
    sys.stdin.read()  # hold until the parent has read the stamps


def main(argv: list[str]) -> None:
    # Die with the parent: a parent killed mid-run must not leave this
    # process parked on a counter forever.
    try:
        ctypes.CDLL(None).prctl(1, signal.SIGKILL, 0, 0, 0)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass
    if argv[0] == "serve":
        asyncio.run(serve(int(argv[1]), int(argv[2]), float(argv[3]), argv[4]))
    elif argv[0] == "shm":
        shm(argv[1], argv[2], argv[3] == "1")
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])

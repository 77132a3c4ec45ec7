"""Benchmark the counter fabric: shm scans, process scaling, pipelining.

The distributed layer's perf claims are ratios, and this harness
measures both sides of each in the same run on the same host:

``shm_readonly_check``
    A cross-process ``check`` of an already-true condition on a
    :class:`~repro.dist.ShmCounter` is a read-only memoryview scan — no
    lock, no syscall.  The baseline is the conventional way to share a
    value between Python processes: a ``multiprocessing.Manager``
    proxy, where every read is a pickled round trip to the manager
    process.  Expected: the scan wins by well over an order of
    magnitude (the acceptance floor is 10x).

``shm_increment_scaling``
    Total increment throughput as 1, 2, 4 processes hammer one
    segment.  Each process writes only its own slot, so there is no
    write contention by construction — the series documents how close
    the fabric gets to linear (cache-line sharing between neighbor
    slots is the expected limiter).

``service_pipeline``
    The asyncio counter service driven two ways by one client: the
    pipelined path (plain ``increment()`` pooling into one
    absolute-value frame per flush window, default 1ms) against the
    per-increment-RPC path (one frame, one awaited ack, per call).
    Expected: pipelining wins by the ratio of window to round trip
    (the acceptance floor is 5x at a >=1ms window).

``dist_obs_disabled`` / ``dist_obs_enabled``
    The PR-9 zero-cost-when-off contract, measured on the dist hot
    paths: the shm satisfied-check scan and the pipelined client
    increment, once with observability off and once with tracing +
    metrics on.  The *disabled* series is regression-gated at the same
    2% noise band as ``counter_ops``'s ``immediate_check`` — the guard
    against a hook creeping onto the lock-free scan or the pipelined
    dict-write path.  The *enabled* series is reported (the
    ``obs_enabled_tax`` derived ratios), never gated: the tax is an
    honest number, not a promise.

Results land in ``BENCH_dist_ops.json`` (latest) and
``BENCH_dist_ops.history.jsonl`` (per-SHA trajectory) through the CLI of
:mod:`repro.bench.runner`; ``--quick`` shrinks sizes for the CI smoke
run.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time

from repro.bench import runner
from repro.bench.runner import entry, ratio
from repro.bench.timing import Timing, measure
from repro.dist.client import AsyncCounterClient
from repro.dist.service import CounterService
from repro.dist.shm import ShmCounter

__all__ = ["run_dist_ops", "render", "main"]

#: Series whose ops/sec are regression-gated by
#: :func:`repro.bench.runner.compare`.  ``dist_obs_enabled`` is
#: deliberately absent: the enabled-mode tax is reported, only the
#: disabled path is a contract.  ``shm_increment_scaling`` is reported
#: too: multi-process wall time on shared CI runners is too noisy to pin.
GATED_SERIES = ("shm_readonly_check", "service_pipeline", "dist_obs_disabled")

_SIZES = {
    "check_ops": 100_000,      # shm scans per sample
    "manager_ops": 1_000,      # proxy reads per sample (each is an RPC)
    "increments_per_proc": 10_000,
    "process_counts": (1, 2, 4),
    "pipelined_ops": 100_000,  # client increments per sample
    "rpc_ops": 500,            # awaited acks per sample
    "repeats": 5,
    "flush_interval": 0.001,   # the >=1ms window of the acceptance bar
}

_QUICK_SIZES = {
    # The 2%-gated series are min-based (see runner.entry): at 3-4 M
    # ops/s, 80k ops take ~25 ms, so a sample spans many scheduler ticks
    # instead of being one sub-millisecond draw.
    "check_ops": 80_000,
    "manager_ops": 100,
    "increments_per_proc": 1_000,
    "process_counts": (1, 2),
    "pipelined_ops": 80_000,
    "rpc_ops": 50,
    "repeats": 5,
    "flush_interval": 0.001,
}


# --------------------------------------------------------- shm read-only scan


def _measure_shm_scan(sizes: dict) -> Timing:
    ops = sizes["check_ops"]
    with ShmCounter.publish(slots=16) as counter:
        counter.increment(1000)

        def scan() -> None:
            check = counter.check
            for _ in range(ops):
                check(1000)  # already satisfied: pure read-only scan

        return measure(scan, repeats=sizes["repeats"])


def _bench_shm_check(sizes: dict) -> dict:
    shm_timing = _measure_shm_scan(sizes)
    manager_ops = sizes["manager_ops"]
    repeats = sizes["repeats"]
    with multiprocessing.get_context("fork").Manager() as manager:
        shared = manager.Value("l", 1000)

        def proxy_reads() -> None:
            for _ in range(manager_ops):
                if shared.value < 1000:  # pragma: no cover - never true
                    raise AssertionError("proxy value regressed")

        manager_timing = measure(proxy_reads, repeats=repeats)

    # Gated series (see GATED_SERIES): min-based, like the obs pairs.
    return {
        "shm": entry(sizes["check_ops"], shm_timing, stat="min"),
        "manager_proxy": entry(manager_ops, manager_timing, stat="min"),
    }


# ------------------------------------------------------- increment scaling


def _scaling_worker(name: str, count: int, ready, go) -> None:
    with ShmCounter.attach(name) as counter:
        ready.wait()
        go.wait()
        increment = counter.increment
        for _ in range(count):
            increment()


def _bench_shm_scaling(sizes: dict) -> dict:
    per_proc = sizes["increments_per_proc"]
    ctx = multiprocessing.get_context("fork")
    series = {}
    for nprocs in sizes["process_counts"]:
        samples = []
        for _ in range(max(2, sizes["repeats"] - 2)):
            with ShmCounter.publish(slots=nprocs + 1) as counter:
                ready = ctx.Barrier(nprocs + 1)
                go = ctx.Event()
                workers = [
                    ctx.Process(
                        target=_scaling_worker,
                        args=(counter.name, per_proc, ready, go),
                    )
                    for _ in range(nprocs)
                ]
                for worker in workers:
                    worker.start()
                ready.wait()  # all attached: time only the work
                # The clock starts before the go signal, so no worker can
                # finish its increments before the sample begins.
                start = time.perf_counter()
                go.set()
                counter.check(nprocs * per_proc, timeout=120)
                samples.append(time.perf_counter() - start)
                for worker in workers:
                    worker.join(30)
                    if worker.exitcode != 0:
                        raise RuntimeError(
                            f"scaling worker exited {worker.exitcode}"
                        )
        series[f"{nprocs}proc"] = entry(nprocs * per_proc, Timing(tuple(samples)))
    return series


# ------------------------------------------------------- service pipelining


async def _service_samples(sizes: dict) -> tuple[list[float], list[float]]:
    pipelined_ops = sizes["pipelined_ops"]
    rpc_ops = sizes["rpc_ops"]
    repeats = sizes["repeats"]
    pipelined, rpc = [], []
    async with CounterService(node_id="bench") as service:
        client = await AsyncCounterClient.connect(
            *service.address,
            source="bench",
            flush_interval=sizes["flush_interval"],
        )
        try:
            for rep in range(repeats + 1):  # +1 warmup
                start = time.perf_counter()
                for _ in range(pipelined_ops):
                    client.increment("pipelined")
                await client.flush()
                elapsed = time.perf_counter() - start
                if rep:
                    pipelined.append(elapsed)
            for rep in range(repeats + 1):
                start = time.perf_counter()
                for _ in range(rpc_ops):
                    await client.increment_rpc("rpc")
                elapsed = time.perf_counter() - start
                if rep:
                    rpc.append(elapsed)
        finally:
            await client.close()
    return pipelined, rpc


def _bench_service(sizes: dict) -> dict:
    pipelined, rpc = asyncio.run(_service_samples(sizes))
    # Gated series (see GATED_SERIES): min-based, like the obs pairs.
    return {
        "pipelined": entry(sizes["pipelined_ops"], Timing(tuple(pipelined)), stat="min"),
        "per_increment_rpc": entry(sizes["rpc_ops"], Timing(tuple(rpc)), stat="min"),
    }


# ------------------------------------------------- observability overhead


def _paired_shm_samples(sizes: dict) -> tuple[list[float], list[float]]:
    import repro.obs as obs

    ops = sizes["check_ops"]
    off: list[float] = []
    on: list[float] = []
    obs.disable()
    with ShmCounter.publish(slots=16) as counter:
        counter.increment(1000)
        check = counter.check

        def one() -> float:
            start = time.perf_counter()
            for _ in range(ops):
                check(1000)  # already satisfied: pure read-only scan
            return time.perf_counter() - start

        try:
            for _ in range(3):  # warmup, discarded (clock/cache ramp)
                one()
            for _ in range(sizes["repeats"]):
                obs.disable()
                off.append(one())
                obs.enable()
                on.append(one())
        finally:
            obs.disable()
    return off, on


async def _paired_pipelined_samples(
    sizes: dict,
) -> tuple[list[float], list[float]]:
    import repro.obs as obs

    ops = sizes["pipelined_ops"]
    off: list[float] = []
    on: list[float] = []
    obs.disable()
    async with CounterService(node_id="bench-obs") as service:
        client = await AsyncCounterClient.connect(
            *service.address,
            source="bench",
            flush_interval=sizes["flush_interval"],
        )

        async def one() -> float:
            start = time.perf_counter()
            for _ in range(ops):
                client.increment("pipelined")
            await client.flush()
            return time.perf_counter() - start

        try:
            for _ in range(3):  # warmup, discarded (clock/cache ramp)
                await one()
            for _ in range(sizes["repeats"]):
                obs.disable()
                off.append(await one())
                obs.enable()
                on.append(await one())
        finally:
            obs.disable()
            await client.close()
    return off, on


def _bench_obs_overhead(sizes: dict) -> tuple[dict, dict]:
    """The dist hot paths with observability off vs on, sampled paired.

    Each repeat takes one disabled sample and one enabled sample
    back-to-back on the same shm segment / service session, so slow
    environmental drift (CPU clock ramp, a noisy neighbour on a shared
    runner) lands on both series equally instead of making whichever
    pass ran second look faster.  A discarded warmup absorbs the
    one-time costs (first segment map, loop startup); everything exits
    through ``obs.disable()`` so a failed sample can never leak a
    process-global enable into later series.
    """
    shm_off, shm_on = _paired_shm_samples(sizes)
    pipe_off, pipe_on = asyncio.run(_paired_pipelined_samples(sizes))
    disabled = {
        "shm_check": entry(sizes["check_ops"], Timing(tuple(shm_off)), stat="min"),
        "pipelined_inc": entry(sizes["pipelined_ops"], Timing(tuple(pipe_off)), stat="min"),
    }
    enabled = {
        "shm_check": entry(sizes["check_ops"], Timing(tuple(shm_on)), stat="min"),
        "pipelined_inc": entry(sizes["pipelined_ops"], Timing(tuple(pipe_on)), stat="min"),
    }
    return disabled, enabled


# ----------------------------------------------------------------- harness


def run_dist_ops(*, quick: bool = False) -> dict:
    """Run every series; returns the result document."""
    sizes = dict(_QUICK_SIZES if quick else _SIZES)
    obs_disabled, obs_enabled = _bench_obs_overhead(sizes)
    series = {
        "shm_readonly_check": _bench_shm_check(sizes),
        "shm_increment_scaling": _bench_shm_scaling(sizes),
        "service_pipeline": _bench_service(sizes),
        "dist_obs_disabled": obs_disabled,
        "dist_obs_enabled": obs_enabled,
    }
    check = series["shm_readonly_check"]
    pipeline = series["service_pipeline"]
    scaling = series["shm_increment_scaling"]
    one_proc = scaling.get("1proc", {}).get("ops_per_sec", 0.0)
    sizes["process_counts"] = list(sizes["process_counts"])  # JSON-friendly
    return runner.document(
        "dist_ops",
        quick=quick,
        config=sizes,
        series=series,
        derived={
            # The acceptance bars of ROADMAP item 1: >=10x and >=5x.
            "shm_check_vs_manager_proxy": ratio(
                check["shm"]["ops_per_sec"], check["manager_proxy"]["ops_per_sec"]
            ),
            "pipelined_vs_rpc": ratio(
                pipeline["pipelined"]["ops_per_sec"],
                pipeline["per_increment_rpc"]["ops_per_sec"],
            ),
            "scaling_efficiency": {
                name: ratio(result["ops_per_sec"], one_proc)
                for name, result in scaling.items()
            },
            # Enabled-mode slowdown per dist hot path (1.0 = free).
            # Reported, never gated — only the disabled path is a
            # contract (see GATED_SERIES).  Both entries are min-based
            # (see runner.entry), so the ratio compares best-case against
            # best-case and shared-host interference cancels out.
            "obs_enabled_tax": {
                impl: ratio(
                    obs_disabled[impl]["ops_per_sec"], obs_enabled[impl]["ops_per_sec"]
                )
                for impl in obs_disabled
            },
        },
    )


def render(doc: dict) -> list[str]:
    """The acceptance-ratio and tax lines printed under the series tables."""
    derived = doc["derived"]
    efficiency = ", ".join(
        f"{name}={value:.2f}x"
        for name, value in sorted(derived["scaling_efficiency"].items())
    )
    tax = ", ".join(
        f"{impl}={value:.3f}x"
        for impl, value in sorted(derived["obs_enabled_tax"].items())
    )
    return [
        "shm read-only check vs Manager proxy: "
        f"{derived['shm_check_vs_manager_proxy']:.1f}x (acceptance floor 10x)",
        "pipelined vs per-increment RPC: "
        f"{derived['pipelined_vs_rpc']:.1f}x (acceptance floor 5x)",
        f"increment scaling vs 1 process: {efficiency}",
        f"obs enabled-mode tax (disabled/enabled ops, reported not gated): {tax}",
    ]


def main(argv: list[str] | None = None) -> int:
    return runner.main(
        argv,
        bench="dist_ops",
        run=run_dist_ops,
        render=render,
        gated=GATED_SERIES,
        description=__doc__.splitlines()[0],
    )


if __name__ == "__main__":
    raise SystemExit(main())

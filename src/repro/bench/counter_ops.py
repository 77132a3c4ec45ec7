"""E-series counter-ops harness: ops/sec series with a machine-readable log.

Runs the hot-path benchmarks the perf work of this repo is judged by and
writes ``BENCH_counter_ops.json`` (at the current directory by default, the
repo root in CI) so successive PRs accumulate a recorded perf trajectory:

* ``immediate_check`` — ``check(level)`` with ``level`` already reached:
  the lock-free fast path, against the pre-optimization locked
  configuration (``fast_path=False, stats=True`` — the seed behavior) and
  every other implementation.
* ``uncontended_increment`` — single-thread ``increment(1)`` throughput
  (no waiters: the release-scan-skipping fast path).
* ``contended_increment`` — T producer threads hammering one counter:
  the cost of lock contention on the increment path.
* ``fan_in_wakeup`` — park W threads over L levels, release with a stepped
  sweep, re-park and release again for E episodes over one persistent
  thread pool (the E8b shape with the thread-spawn cost amortized away,
  so the number measures the park → release → wake path itself).
* ``handoff_pingpong`` — two threads in strict alternation, each
  incrementing its own counter and checking the other's, so every
  roundtrip crosses the wakeup path twice and neither side can run
  ahead: every round is a missed ``check`` that parks and a release
  that wakes it.
* ``multiwait_join`` — one consumer joining N flow-controlled producers
  every round: subscription-based
  :class:`~repro.core.multiwait.MultiWait` versus the sequential check
  loop.  Sequential wins this one-shot-join shape (stability satisfies
  the remaining conditions while the consumer parks on the first, so it
  parks ~once and pays no per-round subscription setup) — recorded to
  keep the ``check_all`` strategy choice honest.

Every run *appends* one line to ``BENCH_counter_ops.history.jsonl``
(keyed by git SHA and timestamp) in addition to overwriting the latest
snapshot, so speedups and regressions across PRs stay inspectable, and
``--compare-to BASELINE.json`` turns the run into a regression gate.
The CLI, the entry shape and the gate are :mod:`repro.bench.runner`'s::

    PYTHONPATH=src python -m repro.bench.counter_ops [--quick] [--out PATH]
        [--compare-to BASELINE.json] [--gate SERIES=TOL] ...

``--quick`` shrinks every size so a CI smoke run finishes in seconds.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.bench import runner
from repro.bench.runner import entry, ratio
from repro.bench.timing import Timing, measure
from repro.bench.workloads import spread_waiters
from repro.core import BroadcastCounter, MonotonicCounter, MultiWait

__all__ = ["run_counter_ops", "render", "main"]

#: The counter configurations every series is run against.  ``linked`` is
#: the optimized default; ``linked_locked`` reproduces the seed's behavior
#: (every check through the lock, stats bookkeeping always on) so the
#: fast-path speedup is measured on the same machine in the same run.
FACTORIES: dict[str, Callable[[], object]] = {
    "linked": lambda: MonotonicCounter(strategy="linked"),
    "linked_locked": lambda: MonotonicCounter(strategy="linked", fast_path=False, stats=True),
    "heap": lambda: MonotonicCounter(strategy="heap"),
    "broadcast": lambda: BroadcastCounter(),
}

#: Implementations that make sense for the blocking fan-in series.
FAN_IN = ("linked", "heap", "broadcast")

#: Implementations raced in the ping-pong handoff series.
HANDOFF = ("linked", "broadcast")

#: Series the --compare-to regression gate inspects.
GATED_SERIES = (
    "fan_in_wakeup",
    "immediate_check",
    "obs_overhead",
    "handoff_pingpong",
    "multiwait_join",
)


def _sizes(quick: bool) -> dict[str, int]:
    if quick:
        return {
            "check_ops": 2_000,
            "increment_ops": 2_000,
            "contended_threads": 2,
            "contended_ops_per_thread": 500,
            "fan_in_waiters": 8,
            "fan_in_levels": 4,
            "fan_in_episodes": 3,
            "handoff_roundtrips": 300,
            "multiwait_counters": 4,
            "multiwait_rounds": 50,
            "repeats": 2,
        }
    return {
        "check_ops": 100_000,
        "increment_ops": 100_000,
        "contended_threads": 4,
        "contended_ops_per_thread": 25_000,
        "fan_in_waiters": 64,
        "fan_in_levels": 16,
        "fan_in_episodes": 8,
        "handoff_roundtrips": 6_000,
        "multiwait_counters": 8,
        "multiwait_rounds": 500,
        "repeats": 5,
    }


def _bench_immediate_check(factory: Callable[[], object], ops: int, repeats: int) -> Timing:
    counter = factory()
    counter.increment(1)
    check = counter.check
    r = range(ops)

    def run() -> None:
        for _ in r:
            check(1)

    return measure(run, repeats=repeats, warmup=1)


def _bench_uncontended_increment(factory: Callable[[], object], ops: int, repeats: int) -> Timing:
    r = range(ops)

    def run() -> None:
        # Fresh counter per run so the value (and any max_value headroom)
        # never carries across samples.
        increment = factory().increment
        for _ in r:
            increment(1)

    return measure(run, repeats=repeats, warmup=1)


def _bench_contended_increment(
    factory: Callable[[], object], threads: int, ops_per_thread: int, repeats: int
) -> Timing:
    r = range(ops_per_thread)

    def run() -> None:
        counter = factory()
        start = threading.Barrier(threads + 1)

        def worker() -> None:
            increment = counter.increment
            start.wait()
            for _ in r:
                increment(1)

        pool = [threading.Thread(target=worker, daemon=True) for _ in range(threads)]
        for t in pool:
            t.start()
        start.wait()
        for t in pool:
            t.join()

    return measure(run, repeats=repeats, warmup=1)


def _bench_fan_in(
    factory: Callable[[], object], waiters: int, levels: int, episodes: int, repeats: int
) -> Timing:
    return measure(
        lambda: spread_waiters(
            factory(),
            waiters=waiters,
            levels=levels,
            increment_steps=levels,
            episodes=episodes,
        ),
        repeats=repeats,
        warmup=1,
    )


def _bench_handoff(factory: Callable[[], object], roundtrips: int, repeats: int) -> Timing:
    """Strict ping-pong over two counters.

    Each side increments its own counter and then checks the other's at
    the same level, so neither side can run ahead: every roundtrip is
    two genuine cross-thread handoffs through the wait path.  (An
    earlier shape let the producer blast ahead of a chasing consumer —
    that rewards park-batching, not handoff latency.)
    """

    def run() -> None:
        ping, pong = factory(), factory()
        start = threading.Barrier(2)

        def partner() -> None:
            start.wait()
            for i in range(1, roundtrips + 1):
                ping.check(i)
                pong.increment(1)

        thread = threading.Thread(target=partner, daemon=True)
        thread.start()
        start.wait()
        for i in range(1, roundtrips + 1):
            ping.increment(1)
            pong.check(i)
        thread.join()

    return measure(run, repeats=repeats, warmup=1)


def _bench_multiwait(
    n_counters: int, rounds: int, repeats: int, *, subscription: bool
) -> Timing:
    """One consumer joining N producers every round.

    Producers are flow-controlled by a ``done`` counter (each blocks
    until the consumer finishes the round it just fed), so the join is
    exercised every round instead of degenerating into N fast-path
    checks against a producer that raced ahead.
    """

    def run() -> None:
        counters = [MonotonicCounter() for _ in range(n_counters)]
        done = MonotonicCounter()
        start = threading.Barrier(n_counters + 1)

        def producer(counter) -> None:
            start.wait()
            for round_ in range(1, rounds + 1):
                counter.increment(1)
                done.check(round_)

        pool = [
            threading.Thread(target=producer, args=(counter,), daemon=True)
            for counter in counters
        ]
        for thread in pool:
            thread.start()
        start.wait()
        for round_ in range(1, rounds + 1):
            if subscription:
                with MultiWait([(counter, round_) for counter in counters]) as multi:
                    multi.wait_all()
            else:
                for counter in counters:
                    counter.check(round_)
            done.increment(1)
        for thread in pool:
            thread.join()

    return measure(run, repeats=repeats, warmup=1)


def run_counter_ops(*, quick: bool = False) -> dict:
    """Run every series and return the JSON-ready result document."""
    sizes = _sizes(quick)
    repeats = sizes["repeats"]
    series: dict[str, dict[str, dict]] = {}

    series["immediate_check"] = {
        name: entry(
            sizes["check_ops"],
            _bench_immediate_check(factory, sizes["check_ops"], repeats),
        )
        for name, factory in FACTORIES.items()
    }
    series["uncontended_increment"] = {
        name: entry(
            sizes["increment_ops"],
            _bench_uncontended_increment(factory, sizes["increment_ops"], repeats),
        )
        for name, factory in FACTORIES.items()
    }
    total_contended = sizes["contended_threads"] * sizes["contended_ops_per_thread"]
    series["contended_increment"] = {
        name: entry(
            total_contended,
            _bench_contended_increment(
                FACTORIES[name],
                sizes["contended_threads"],
                sizes["contended_ops_per_thread"],
                repeats,
            ),
        )
        for name in ("linked", "heap", "broadcast")
    }
    fan_in_ops = sizes["fan_in_waiters"] * sizes["fan_in_episodes"]
    series["fan_in_wakeup"] = {
        name: entry(
            fan_in_ops,
            _bench_fan_in(
                FACTORIES[name],
                sizes["fan_in_waiters"],
                sizes["fan_in_levels"],
                sizes["fan_in_episodes"],
                repeats,
            ),
        )
        for name in FAN_IN
    }
    series["handoff_pingpong"] = {
        name: entry(
            sizes["handoff_roundtrips"],
            _bench_handoff(FACTORIES[name], sizes["handoff_roundtrips"], repeats),
        )
        for name in HANDOFF
    }
    multiwait_ops = sizes["multiwait_counters"] * sizes["multiwait_rounds"]
    series["multiwait_join"] = {
        variant: entry(
            multiwait_ops,
            _bench_multiwait(
                sizes["multiwait_counters"],
                sizes["multiwait_rounds"],
                repeats,
                subscription=(variant == "subscription"),
            ),
        )
        for variant in ("subscription", "sequential")
    }

    # Observability overhead, measured both ways the zero-cost claim can
    # fail: the *disabled* fast path (must be indistinguishable from the
    # plain run — the seam is one module-attribute read and a false
    # branch, with no hook at all on the lock-free return) and the
    # *enabled* park path (the honest price of tracing + metrics, paid
    # only by operations that suspend).  Reuses the existing size keys so
    # the result document stays comparable with pre-obs baselines.
    import repro.obs as obs

    obs.disable()  # belt and braces: never inherit ambient enablement
    series["obs_overhead"] = {
        "immediate_disabled": entry(
            sizes["check_ops"],
            _bench_immediate_check(FACTORIES["linked"], sizes["check_ops"], repeats),
        ),
        "handoff_disabled": entry(
            sizes["handoff_roundtrips"],
            _bench_handoff(FACTORIES["linked"], sizes["handoff_roundtrips"], repeats),
        ),
    }
    obs.enable()
    try:
        series["obs_overhead"]["immediate_enabled"] = entry(
            sizes["check_ops"],
            _bench_immediate_check(FACTORIES["linked"], sizes["check_ops"], repeats),
        )
        series["obs_overhead"]["handoff_enabled"] = entry(
            sizes["handoff_roundtrips"],
            _bench_handoff(FACTORIES["linked"], sizes["handoff_roundtrips"], repeats),
        )
    finally:
        obs.disable()

    def ops(series_name: str, impl: str) -> float:
        return series[series_name][impl]["ops_per_sec"]

    return runner.document(
        "counter_ops",
        quick=quick,
        config=sizes,
        series=series,
        derived={
            "immediate_check_fast_path_speedup": ratio(
                ops("immediate_check", "linked"), ops("immediate_check", "linked_locked")
            ),
            # < 1 in this one-shot-join shape (see module docstring) —
            # the reason check_all stays sequential.
            "multiwait_subscription_vs_sequential": ratio(
                ops("multiwait_join", "subscription"), ops("multiwait_join", "sequential")
            ),
            # ~1.0 by construction (no hook on the lock-free fast path);
            # the CI gate pins the disabled series itself against the
            # merge-base at 2%.
            "obs_immediate_enabled_vs_disabled": ratio(
                ops("obs_overhead", "immediate_enabled"),
                ops("obs_overhead", "immediate_disabled"),
            ),
            # < 1.0: the honest enabled tax on the park/wake path (events
            # + histogram bumps per suspension).
            "obs_handoff_enabled_vs_disabled": ratio(
                ops("obs_overhead", "handoff_enabled"),
                ops("obs_overhead", "handoff_disabled"),
            ),
        },
    )


def render(doc: dict) -> list[str]:
    """The derived-ratio lines printed under the series tables."""
    derived = doc["derived"]
    return [
        "immediate-check fast path vs locked seed path: "
        f"{derived['immediate_check_fast_path_speedup']:.2f}x",
        "multiwait subscription vs sequential join: "
        f"{derived['multiwait_subscription_vs_sequential']:.2f}x",
        "obs enabled vs disabled, immediate check: "
        f"{derived['obs_immediate_enabled_vs_disabled']:.2f}x",
        "obs enabled vs disabled, handoff ping-pong: "
        f"{derived['obs_handoff_enabled_vs_disabled']:.2f}x",
    ]


def main(argv: list[str] | None = None) -> int:
    return runner.main(
        argv,
        bench="counter_ops",
        run=run_counter_ops,
        render=render,
        gated=GATED_SERIES,
        description=__doc__.splitlines()[0],
    )


if __name__ == "__main__":
    raise SystemExit(main())

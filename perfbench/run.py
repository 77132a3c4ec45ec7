"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload quota_local --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with per-layer timing (slices rotating plain / traced / obs)
and prints the per-layer metrics instead, and writes the recorded spans
to ``perfbench/out/``.  The last stdout line is always the JSON result;
the exit code is non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

import measure
import procs

WORKLOADS = ("quota_local", "quota_wire", "handoff", "handoff_shm")

END_TO_END = {
    "lat_p50_us": "us",
    "lat_p90_us": "us",
    "ops_per_s": "1/s",
    "cpu_us_per_op": "us",
    "quota_use": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: On the quota workloads these metrics are interpreter work in the
#: generator thread, and they follow the host's speed state, which moved
#: them up to 1.6x between runs.  They are reported at the nominal speed:
#: scaled by ``measure.REF_NS`` over the run's median reference-loop time,
#: sampled in the same thread between slices (raw values on the ``raw:``
#: line).  Over ten runs that crossed speed states, this cut the IQR of
#: quota_local's p50 from 17% to 3% and of its CPU per op from 17% to 3%.
#: The handoff round trips are wake and poll-timer bound; the same
#: scaling widened their IQR from 7-8% to 21-27%, so they stay raw.
NORMALIZED = ("lat_p50_us", "lat_p90_us", "cpu_us_per_op")
NORMALIZED_ON = ("quota_local", "quota_wire")

#: Every per-layer metric, on every workload.  A layer a workload does
#: not exercise reports 0 there (e.g. ``engine.wake_us_p50`` on the quota
#: workloads): that it stays idle is part of the prediction.
PER_LAYER = {
    "run.fail_ratio": "ratio",
    "load.lag_p50_us": "us",
    "load.lag_p90_us": "us",
    "load.due_lat_p50_us": "us",
    "load.due_lat_p90_us": "us",
    "host.steal_share": "ratio",
    "host.gc_collections": "count",
    "host.gc_pause_ms": "ms",
    "host.ref_ns": "ns",
    "ratelimit.call_us_p50": "us",
    "ratelimit.call_us_p90": "us",
    "ratelimit.self_us_p50": "us",
    "ratelimit.evict_share": "ratio",
    "ratelimit.evict_call_us_p50": "us",
    "ratelimit.reject_share": "ratio",
    "ratelimit.marks_per_key": "count",
    "ratelimit.live_keys": "count",
    "ratelimit.window_excess": "count",
    "sharded.bump_us_p50": "us",
    "sharded.value_us_p50": "us",
    "counter.retire_us_p50": "us",
    "counter.calls_per_admit": "count",
    "counter.increment_us_p50": "us",
    "engine.wake_us_p50": "us",
    "engine.wake_us_p90": "us",
    "engine.live_slots": "count",
    "shm.increment_us_p50": "us",
    "shm.wake_us_p50": "us",
    "shm.wake_us_p90": "us",
    "shm.value_us_p50": "us",
    "shm.child_cpu_us_per_op": "us",
    "wire.hop_us_p50": "us",
    "wire.frames_per_admit": "count",
    "wire.server_cpu_us_per_admit": "us",
    "wire.unacked_admits_p90": "count",
    "obs.enabled_tax": "ratio",
    "obs.events_per_op": "count",
    "obs.dropped": "count",
    "trace.unexplained_share": "ratio",
    "trace.overhead_p50": "ratio",
}

SETUP_PROBES = 4     # extra set-ups in fresh processes; setup_s is the median
WALL_S = 170.0       # the run aborts (and fails) past this
SPANS_KEPT = 20000   # spans written per layer by a traced run


def _module(workload: str):
    if workload.startswith("quota"):
        import quota
        return quota, quota.QuotaRun
    import handoff
    return handoff, handoff.HandoffRun


def _prepare(root: str) -> None:
    """Import ``repro`` from this checkout only; keep temp files inside it."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program at {src}/repro; run from a full checkout")
    sys.path.insert(0, src)
    tmp = os.path.join(procs.OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    measure.fine_timer_slack()


def _setup_probe(workload: str, seed: int, seconds: float) -> None:
    module, runner = _module(workload)
    inputs = module.make_inputs(workload, seed, seconds)
    t0 = time.perf_counter()
    run = runner(workload, inputs, False)
    elapsed = time.perf_counter() - t0
    run.close()
    print(elapsed)


def _probe_setups(args) -> list[float]:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                              env=procs.child_env())
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-400:]}")
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _prepare(procs.ROOT)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed, args.seconds)
        return 0

    module, runner = _module(args.workload)
    inputs = module.make_inputs(args.workload, args.seed, args.seconds)
    procs.arm(WALL_S)
    run = None
    try:
        t0 = time.perf_counter()
        run = runner(args.workload, inputs, bool(args.trace))
        setup = time.perf_counter() - t0
        res = run.run(args.seconds)
    except (procs.ChildDied, procs.WallTimeout) as exc:
        print(f"perfbench: {args.workload} aborted: {exc}", file=sys.stderr)
        attempted = run.planned() if run is not None else 1
        print(_result(False, attempted, attempted, {}))
        return 1
    finally:
        try:
            if run is not None:
                run.close()
        finally:
            procs.disarm()
    setups = [setup] + _probe_setups(args)

    host = res["host"]
    print("host: " + json.dumps({**host.metrics(), "setup_samples_s": setups,
                                 **res["notes"]}))
    if "digest" in res:
        print(f"decisions: {res['digest']}")
    ok = res["failed"] == 0
    if not args.trace:
        lat = res["lat"]
        values = {
            "lat_p50_us": measure.pct(lat, 0.5) * 1e6,
            "lat_p90_us": measure.pct(lat, 0.9) * 1e6,
            "ops_per_s": res["ops"] / res["wall_s"],
            "cpu_us_per_op": res["cpu_s"] * 1e6 / res["ops"],
            "quota_use": res["quota_use"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        print("raw: " + json.dumps(values))
        if args.workload in NORMALIZED_ON:
            scale = measure.REF_NS / host.metrics()["host.ref_ns"]
            for name in NORMALIZED:
                values[name] *= scale
        units = END_TO_END
    else:
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(host.metrics())
        values["run.fail_ratio"] = res["failed"] / res["attempted"]
        values.update(res["layers"])
        units = PER_LAYER
        unknown = set(values) - set(PER_LAYER)
        if unknown:
            raise RuntimeError(f"unlisted per-layer metrics: {sorted(unknown)}")
        for name, value in sorted(values.items()):
            print(f"  {name:32s} {value:14.4f} {units[name]}")
        print("self time, as a share of traced request latency:")
        for name, share in run.self_share.items():
            print(f"  {name:32s} {share:8.4f}")
        path = os.path.join(procs.OUT, f"spans-{args.workload}-{args.seed}.json")
        with open(path, "w") as f:
            json.dump({name: spans.doc(SPANS_KEPT)
                       for name, spans in run.spans.items()}, f)
        print(f"spans: {path}")
    if res["quota_use"] > 1.0:
        ok = False
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(_result(ok, res["attempted"], res["failed"], metrics))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

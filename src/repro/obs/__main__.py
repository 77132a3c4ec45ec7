"""CLI for the observability layer.

::

    python -m repro.obs dump [--demo]        # live counter state as JSON
    python -m repro.obs metrics [--demo]     # Prometheus text exposition
    python -m repro.obs sample --out DIR     # run the demo workload and
                                             # write trace.jsonl, metrics.prom,
                                             # dump.json, trace.perfetto.json,
                                             # analyze.txt

    python -m repro.obs analyze --in trace.jsonl          # causal report
    python -m repro.obs analyze --fw ragged               # §4 workload, live
    python -m repro.obs critical-path --in trace.jsonl    # just the path
    python -m repro.obs export --in trace.jsonl \\
        --format perfetto --out trace.perfetto.json       # or --format otel

    python -m repro.obs collect --out merged.jsonl \\
        ring-a.jsonl ring-b.jsonl      # merge per-process rings (clock-
                                       # offset aligned; see collect.py)
    python -m repro.obs sample-dist --out DIR
        # two-process demo: spawns a counter-service child, runs a
        # client check released over the wire, fetches the server ring,
        # merges, analyzes, exports Perfetto, scrapes fleet metrics

    python -m repro.obs load --out DIR [--two-process]
        # open-loop load against the counter-backed rate limiter
        # (in-process, or against a spawned counter-service child);
        # writes requests.jsonl, trace(-merged).jsonl, meta.json
    python -m repro.obs slo-report --in DIR [--expect-wire]
        # "why is p99 high": explain the worst-K requests of a recorded
        # load run (critical path, wait/wire/service decomposition,
        # pid-qualified releaser); --expect-wire fails unless at least
        # one exemplar's critical path crosses processes

``--demo`` runs a short canned workload (a fan-in counter and a
timed-out check) with observability enabled so there is
something to show; without it the commands render whatever the current
process has live — which, for a fresh CLI process, is nothing.  The
causal subcommands accept ``--in`` (a ``trace.jsonl`` replay), ``--fw
barrier|ragged`` (run the §4 imbalanced workload on live threads and
analyze its trace), or ``--demo``.  The ``sample`` subcommand is what
CI uploads as its observability artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import repro.obs as obs


def _demo_workload() -> None:
    """A few milliseconds of representative traffic: parks, wakeups,
    and a genuine timeout."""
    import threading

    from repro.core import CheckTimeout, MonotonicCounter

    counter = MonotonicCounter(name="demo-fanin")

    def checker(level: int) -> None:
        counter.check(level)

    threads = [threading.Thread(target=checker, args=(lvl,)) for lvl in (3, 3, 5)]
    for t in threads:
        t.start()
    for _ in range(5):
        counter.increment()
    for t in threads:
        t.join()

    try:
        counter.check(100, timeout=0.01)
    except CheckTimeout:
        pass

    # Keep the demo counter alive for the dump that follows.
    _demo_workload.keep = counter  # type: ignore[attr-defined]


def _cmd_dump(args: argparse.Namespace) -> int:
    if args.demo:
        obs.enable()
        _demo_workload()
    print(json.dumps(obs.dump_state(), indent=2))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.demo:
        obs.enable()
        _demo_workload()
    handle = obs.current()
    if handle is None or handle.metrics is None:
        print("observability is not enabled in this process "
              "(try --demo for a canned workload)", file=sys.stderr)
        return 1
    sys.stdout.write(handle.metrics.prometheus())
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    from repro.obs.causal import CausalGraph, analyze, render_report, to_perfetto, validate_perfetto

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    handle = obs.enable()
    _demo_workload()
    state = obs.dump_state()
    obs.disable()

    events = handle.trace.snapshot()
    trace_path = out / "trace.jsonl"
    with trace_path.open("w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event.as_dict()) + "\n")
    (out / "metrics.prom").write_text(handle.metrics.prometheus(), encoding="utf-8")
    (out / "dump.json").write_text(json.dumps(state, indent=2) + "\n", encoding="utf-8")
    graph = CausalGraph.from_events(events)
    perfetto = to_perfetto(graph)
    problems = validate_perfetto(perfetto)
    if problems:
        print("perfetto export failed validation:", *problems[:5], sep="\n  ", file=sys.stderr)
        return 1
    (out / "trace.perfetto.json").write_text(
        json.dumps(perfetto, indent=2) + "\n", encoding="utf-8"
    )
    (out / "analyze.txt").write_text(
        render_report(analyze(graph), graph) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(handle.trace)} events, "
          f"{len(handle.metrics.labels())} metric series, "
          f"{len(graph.edges)} release edges -> {out}")
    return 0


# --------------------------------------------------------------- dist demo

def _cmd_collect(args: argparse.Namespace) -> int:
    from repro.obs import collect

    rings = [collect.load_jsonl(path) for path in args.rings]
    merged = collect.merge(*rings, align=not args.no_align, root=args.root)
    pids = sorted({e.pid for e in merged if e.pid is not None})
    if args.out:
        collect.write_jsonl(merged, args.out, pid=pids[0] if pids else None)
        print(f"merged {len(rings)} rings ({len(merged)} events, "
              f"{len(pids)} pids) -> {args.out}")
    else:
        for event in merged:
            print(json.dumps(event.as_dict(), separators=(",", ":")))
    if not args.no_align and len(pids) > 1:
        offsets = collect.clock_offsets([e for ring in rings for e in ring])
        for pid, off in sorted(offsets.items()):
            print(f"  pid {pid}: clock offset {off * 1e6:+.1f} us",
                  file=sys.stderr)
    return 0


def _spawn_server(cmd: str, out: Path, *extra: str):
    """Start ``python -m repro.obs <cmd> --serve OUT/server.json`` and
    wait up to 10 s for the child to write its portfile.

    Returns ``(child, info)``; ``info`` is the portfile's JSON, or None
    (after a message on stderr) when the child exited or never wrote it.
    The child is returned either way: the caller terminates it.
    """
    import subprocess
    import time

    portfile = out / "server.json"
    portfile.unlink(missing_ok=True)
    child = subprocess.Popen([sys.executable, "-m", "repro.obs", cmd,
                              "--serve", str(portfile), *extra])
    deadline = time.monotonic() + 10.0
    while not portfile.exists() or not portfile.read_text(encoding="utf-8"):
        if child.poll() is not None or time.monotonic() > deadline:
            print(f"{cmd}: server child did not come up", file=sys.stderr)
            return child, None
        time.sleep(0.02)
    return child, json.loads(portfile.read_text(encoding="utf-8"))


def _write_rings(out: Path, client_events, trace_reply: dict):
    """Write the client ring and the server's fetched ring under ``out``,
    merge them (clock-aligned), and write the merge beside them.

    Returns ``(client_count, server_count, merged_events)``.
    """
    from repro.obs import collect

    client_ring = out / "trace-client.jsonl"
    server_ring = out / "trace-server.jsonl"
    n_client = collect.write_jsonl(client_events, str(client_ring))
    n_server = collect.write_jsonl(trace_reply["events"], str(server_ring),
                                   pid=trace_reply["pid"])
    merged = collect.merge(collect.load_jsonl(str(client_ring)),
                           collect.load_jsonl(str(server_ring)))
    collect.write_jsonl(merged, str(out / "trace-merged.jsonl"))
    return n_client, n_server, merged


def _serve_sample_dist(portfile: str) -> int:
    """The child half of ``sample-dist``: a traced service that raises
    its own counter past the parent's check level, then idles until
    killed.  Writes ``{host, port, pid, metrics_port}`` to ``portfile``
    once listening."""
    import asyncio
    import os

    from repro.dist.service import CounterService

    obs.enable()

    async def run() -> None:
        service = CounterService(node_id="svc")
        await service.start()
        await service.serve_metrics()
        Path(portfile).write_text(json.dumps({
            "host": service.address[0], "port": service.port,
            "pid": os.getpid(), "metrics_port": service.metrics_port,
        }), encoding="utf-8")
        # Give the parent time to connect and park its check, then raise
        # the counter past the level — the push that wakes it crosses
        # the wire, which is the whole point of the demo.
        await asyncio.sleep(0.4)
        service.counter("orders").raise_source("svc", 3)
        while True:  # parent terminates us once it has fetched our ring
            await asyncio.sleep(3600)

    try:
        asyncio.run(run())
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    return 0


def _cmd_sample_dist(args: argparse.Namespace) -> int:
    import socket

    from repro.dist.client import open_threadside
    from repro.obs.causal import (
        CausalGraph, analyze, render_report, to_perfetto, validate_perfetto,
    )

    if args.serve:
        return _serve_sample_dist(args.serve)
    if not args.out:
        print("sample-dist: --out DIR is required", file=sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    server, info = _spawn_server("sample-dist", out)
    try:
        if info is None:
            return 1
        handle = obs.enable()
        with open_threadside(info["host"], info["port"], source="sample-client") as ep:
            orders = ep.counter("orders")
            orders.increment(1)
            orders.flush()
            orders.check(3, timeout=10.0)  # parks; released by the server push
            trace_reply = ep.fetch_trace()
            metrics_reply = ep.fetch_metrics()
        with socket.create_connection((info["host"], info["metrics_port"]),
                                      timeout=5.0) as sock:
            sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            sock.shutdown(socket.SHUT_WR)
            scrape = b""
            while chunk := sock.recv(65536):
                scrape += chunk
        obs.disable()
    finally:
        server.terminate()
        server.wait(timeout=10.0)

    n_client, n_server, merged = _write_rings(out, handle.trace.snapshot(),
                                              trace_reply)
    (out / "fleet.prom").write_text(
        scrape.split(b"\r\n\r\n", 1)[-1].decode("utf-8", "replace"),
        encoding="utf-8",
    )
    (out / "metrics-reply.json").write_text(
        json.dumps(metrics_reply, indent=2) + "\n", encoding="utf-8")

    graph = CausalGraph.from_events(merged)
    report = analyze(graph)
    (out / "analyze.txt").write_text(render_report(report, graph) + "\n",
                                     encoding="utf-8")
    (out / "analyze.json").write_text(json.dumps(report, indent=2) + "\n",
                                      encoding="utf-8")
    perfetto = to_perfetto(graph)
    problems = validate_perfetto(perfetto)
    if problems:
        print("perfetto export failed validation:", *problems[:5],
              sep="\n  ", file=sys.stderr)
        return 1
    (out / "trace.perfetto.json").write_text(
        json.dumps(perfetto, indent=2) + "\n", encoding="utf-8")

    path_pids = {graph.thread_pid(step.thread) for step in graph.critical_path()}
    wired = [e for e in graph.edges if e.origin is not None]
    print(f"wrote {n_client}+{n_server} events ({len(merged)} merged, "
          f"{len(graph.pids)} pids), {len(graph.edges)} release edges "
          f"({len(wired)} over the wire, {len(graph.wire_edges)} frame pairs) "
          f"-> {out}")
    print(f"critical path spans pids: {sorted(p for p in path_pids if p)}")
    if len(path_pids) < 2:
        print("sample-dist: critical path did not span both processes",
              file=sys.stderr)
        return 1
    if not any(e.origin is not None and e.increment is not None
               for e in graph.edges):
        print("sample-dist: no wire edge carries its releasing increment",
              file=sys.stderr)
        return 1
    return 0


# ------------------------------------------------------------- load / slo

def _load_keys(n: int) -> list[str]:
    return [f"user{i}" for i in range(n)]


def _serve_load(args: argparse.Namespace) -> int:
    """The child half of ``load --two-process``: a traced counter
    service rolling the limiter's windows (:func:`serve_rolls` — the
    service host is the only roller; see ``apps/ratelimit.py``).
    Writes ``{host, port, pid}`` to the portfile once listening."""
    import asyncio
    import os

    from repro.apps.ratelimit import serve_rolls
    from repro.dist.service import CounterService

    obs.enable()

    async def run() -> None:
        service = CounterService(node_id="ratelimit-svc")
        await service.start()
        Path(args.serve).write_text(json.dumps({
            "host": service.address[0], "port": service.port,
            "pid": os.getpid(),
        }), encoding="utf-8")
        await serve_rolls(
            service, keys=_load_keys(args.keys), limit=args.limit,
            window_s=args.window, interval=args.roll_interval,
        )

    try:
        asyncio.run(run())
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    from repro.apps.ratelimit import RateLimiter, ServiceBackend
    from repro.obs import collect
    from repro.obs.load import run_load
    from repro.obs.slo import SloPolicy, SloTracker
    from repro.obs.watchdog import StallWatchdog

    if args.serve:
        return _serve_load(args)
    if not args.out:
        print("load: --out DIR is required", file=sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    keys = _load_keys(args.keys)
    tracker = SloTracker(SloPolicy(
        objective_s=args.objective, quantile=args.quantile,
        window_s=max(args.duration, 1.0),
    ))
    handle = obs.enable()
    # The SLO engine rides the stall watchdog's poll loop: one periodic
    # thread evaluates both liveness and burn rate during the run.
    watchdog = StallWatchdog(threshold=args.duration + 60.0, interval=0.25)
    tracker.attach(watchdog)
    watchdog.start()

    server = endpoint = trace_reply = None
    try:
        if args.two_process:
            from repro.dist.client import open_threadside

            server, info = _spawn_server(
                "load", out, "--keys", str(args.keys),
                "--limit", str(args.limit), "--window", str(args.window),
                "--roll-interval", str(args.roll_interval),
            )
            if info is None:
                return 1
            endpoint = open_threadside(info["host"], info["port"],
                                       source="load-client")
            limiter = RateLimiter(
                args.limit, args.window, backend=ServiceBackend(endpoint),
                roll_interval=args.roll_interval,
            )
            result = run_load(
                limiter, rate=args.rate, duration=args.duration,
                seed=args.seed, keys=keys, workers=args.workers,
                timeout=args.timeout, observers=[tracker],
            )
            trace_reply = endpoint.fetch_trace()
        else:
            limiter = RateLimiter(args.limit, args.window,
                                  roll_interval=args.roll_interval)
            limiter.start_roller()
            try:
                result = run_load(
                    limiter, rate=args.rate, duration=args.duration,
                    seed=args.seed, keys=keys, workers=args.workers,
                    timeout=args.timeout, observers=[tracker],
                )
            finally:
                limiter.stop_roller()
        slo_state = tracker.poll()
    finally:
        watchdog.stop()
        if endpoint is not None:
            endpoint.close()
        if server is not None:
            server.terminate()
            server.wait(timeout=10.0)
        obs.disable()

    with (out / "requests.jsonl").open("w", encoding="utf-8") as fh:
        for r in result.records:
            fh.write(json.dumps({
                "index": r.index, "key": r.key, "corr": r.corr,
                "intended": r.intended, "start": r.start, "end": r.end,
                "ok": r.ok, "latency": r.latency, "queue_s": r.queue_s,
                "service_s": r.service_s,
            }, separators=(",", ":")) + "\n")
    if trace_reply is not None:
        _write_rings(out, handle.trace.snapshot(), trace_reply)
    else:
        collect.write_jsonl(handle.trace.snapshot(), str(out / "trace.jsonl"))
    meta = {
        "two_process": bool(args.two_process),
        "summary": result.summary(),
        "slo": slo_state,
        "breaches": len(tracker.breaches),
        "exemplars": [r.corr for r in tracker.exemplars() if r.corr],
        "policy": {"objective_s": args.objective, "quantile": args.quantile},
        "config": {
            "keys": args.keys, "limit": args.limit, "window_s": args.window,
            "roll_interval": args.roll_interval, "workers": args.workers,
            "timeout": args.timeout,
        },
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n",
                                   encoding="utf-8")
    print(f"load: {result.summary()} -> {out}")
    return 0


def _cmd_slo_report(args: argparse.Namespace) -> int:
    from repro.obs import collect
    from repro.obs.slo import explain

    indir = Path(args.indir)
    meta_path = indir / "meta.json"
    if not meta_path.exists():
        print(f"slo-report: {meta_path} not found (run `load --out` first)",
              file=sys.stderr)
        return 2
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    trace_path = indir / "trace-merged.jsonl"
    if not trace_path.exists():
        trace_path = indir / "trace.jsonl"
    events = collect.load_jsonl(str(trace_path))
    with (indir / "requests.jsonl").open("r", encoding="utf-8") as fh:
        requests = [json.loads(line) for line in fh if line.strip()]

    worst = sorted((r for r in requests if r.get("corr")),
                   key=lambda r: r["latency"], reverse=True)[:args.k]
    lines = [
        f"SLO report over {len(requests)} requests "
        "(open loop, "
        f"offered {meta['summary']['offered_rate']}/s, "
        f"achieved {meta['summary']['achieved_rate']}/s)",
        f"  p50 {meta['summary']['p50'] * 1e3:.2f}ms  "
        f"p99 {meta['summary']['p99'] * 1e3:.2f}ms  "
        f"p999 {meta['summary']['p999'] * 1e3:.2f}ms  "
        f"admit {meta['summary']['admit_rate']:.2%}",
        f"  window burn rate {meta['slo']['burn_rate']:.2f}x "
        f"({meta['slo']['window_violations']}/{meta['slo']['window_total']} "
        f"over {meta['policy']['objective_s'] * 1e3:.0f}ms objective), "
        f"{meta['breaches']} breach event(s)",
        "",
    ]
    reports = []
    for req in worst:
        try:
            report = explain(req["corr"], events)
        except ValueError as exc:
            lines.append(f"exemplar {req['corr']}: unexplainable ({exc})")
            continue
        reports.append(report)
        lines.append(report.render())
        lines.append("")
    text = "\n".join(lines)
    print(text)
    (indir / "slo-report.txt").write_text(text + "\n", encoding="utf-8")
    if args.expect_wire:
        crossed = [r for r in reports if r.crosses_pid or r.over_wire]
        if not crossed:
            print("slo-report: no tail exemplar's critical path crossed "
                  "the wire", file=sys.stderr)
            return 1
        print(f"slo-report: {len(crossed)} exemplar(s) crossed the wire "
              f"(e.g. {crossed[0].corr}: released by {crossed[0].releaser})")
    return 0


# ------------------------------------------------------------------- causal

def _load_graph(args: argparse.Namespace):
    """The trace for a causal subcommand: --in JSONL, --fw live run, or --demo."""
    from repro.obs.causal import CausalGraph
    from repro.obs.causal.workloads import run_imbalanced_fw

    if getattr(args, "infile", None):
        return CausalGraph.from_jsonl(args.infile)
    if getattr(args, "fw", None):
        run = run_imbalanced_fw(args.fw, threads=args.threads, rounds=args.rounds,
                                seed=args.seed)
        print(f"ran fw mode={run['mode']} threads={run['threads']} "
              f"rounds={run['rounds']} wall={run['wall_s'] * 1e3:.1f}ms",
              file=sys.stderr)
        return CausalGraph.from_events(run["events"])
    if getattr(args, "demo", False):
        handle = obs.enable()
        _demo_workload()
        obs.disable()
        return CausalGraph.from_events(handle.trace.snapshot())
    print("no trace: pass --in TRACE.jsonl, --fw barrier|ragged, or --demo",
          file=sys.stderr)
    return None


def _add_trace_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--in", dest="infile", metavar="TRACE.jsonl",
                        help="replay a JSONL trace (from sample or a sink)")
    parser.add_argument("--fw", choices=("barrier", "ragged"),
                        help="run the §4 imbalanced workload live and trace it")
    parser.add_argument("--demo", action="store_true",
                        help="trace the canned demo workload")
    parser.add_argument("--threads", type=int, default=4, help="--fw gang size")
    parser.add_argument("--rounds", type=int, default=8, help="--fw round count")
    parser.add_argument("--seed", type=int, default=7, help="--fw cost seed")


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.obs.causal import analyze, render_report

    graph = _load_graph(args)
    if graph is None:
        return 1
    report = analyze(graph)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_report(report, graph))
    return 0


def _cmd_critical_path(args: argparse.Namespace) -> int:
    from repro.obs.causal import analyze

    graph = _load_graph(args)
    if graph is None:
        return 1
    cp = analyze(graph)["critical_path"]
    if args.json:
        print(json.dumps(cp, indent=2))
        return 0
    print(f"critical path: {cp['duration_s'] * 1e3:.2f} ms, {len(cp['steps'])} segments")
    for step in cp["steps"]:
        what = step["kind"] if not step["detail"] else f"{step['kind']} ({step['detail']})"
        print(f"  {step['name']}  {step['start_s'] * 1e3:8.2f} -> "
              f"{step['end_s'] * 1e3:8.2f} ms  {what}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.obs.causal import to_otel, to_perfetto, validate_perfetto

    graph = _load_graph(args)
    if graph is None:
        return 1
    if args.format == "perfetto":
        doc = to_perfetto(graph)
        problems = validate_perfetto(doc)
        if problems:
            print("export failed validation:", *problems[:10], sep="\n  ", file=sys.stderr)
            return 1
    else:
        doc = to_otel(graph)
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.format} export of {len(graph.events)} events "
              f"({len(graph.edges)} release edges) -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect live monotonic-counter state, metrics, and traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dump = sub.add_parser("dump", help="live counter state as JSON")
    p_dump.add_argument("--demo", action="store_true",
                        help="run a canned workload first so there is state to show")
    p_dump.set_defaults(fn=_cmd_dump)

    p_metrics = sub.add_parser("metrics", help="Prometheus text exposition")
    p_metrics.add_argument("--demo", action="store_true",
                           help="run a canned workload first")
    p_metrics.set_defaults(fn=_cmd_metrics)

    p_sample = sub.add_parser(
        "sample", help="run the demo workload; write trace.jsonl/metrics.prom/"
                       "dump.json/trace.perfetto.json/analyze.txt"
    )
    p_sample.add_argument("--out", required=True, help="output directory")
    p_sample.set_defaults(fn=_cmd_sample)

    p_collect = sub.add_parser(
        "collect", help="merge per-process trace rings into one timeline"
    )
    p_collect.add_argument("rings", nargs="+", metavar="RING.jsonl",
                           help="per-process JSONL rings to merge")
    p_collect.add_argument("--out", help="merged JSONL path (stdout when omitted)")
    p_collect.add_argument("--no-align", action="store_true",
                           help="skip clock-offset rebasing (same-host traces)")
    p_collect.add_argument("--root", type=int, metavar="PID",
                           help="pid whose clock anchors the merged timeline")
    p_collect.set_defaults(fn=_cmd_collect)

    p_sdist = sub.add_parser(
        "sample-dist",
        help="two-process demo: traced service child + client check released "
             "over the wire; writes merged trace, causal report, Perfetto "
             "export, fleet metrics scrape",
    )
    p_sdist.add_argument("--out", help="output directory")
    p_sdist.add_argument("--serve", metavar="PORTFILE", help=argparse.SUPPRESS)
    p_sdist.set_defaults(fn=_cmd_sample_dist)

    p_load = sub.add_parser(
        "load",
        help="open-loop load against the counter-backed rate limiter; "
             "writes requests.jsonl, trace(-merged).jsonl, meta.json",
    )
    p_load.add_argument("--out", help="output directory")
    p_load.add_argument("--two-process", action="store_true",
                        help="drive a spawned counter-service child instead "
                             "of an in-process limiter")
    p_load.add_argument("--rate", type=float, default=60.0,
                        help="offered arrival rate (requests/s)")
    p_load.add_argument("--duration", type=float, default=1.5,
                        help="schedule length (seconds)")
    p_load.add_argument("--seed", type=int, default=0,
                        help="arrival-schedule seed")
    p_load.add_argument("--keys", type=int, default=2,
                        help="number of quota keys (user0..userN-1)")
    p_load.add_argument("--limit", type=int, default=5,
                        help="admissions per key per window")
    p_load.add_argument("--window", type=float, default=0.5,
                        help="sliding window (seconds)")
    p_load.add_argument("--roll-interval", type=float, default=0.1,
                        help="window roll period (seconds)")
    p_load.add_argument("--workers", type=int, default=4,
                        help="executor thread count")
    p_load.add_argument("--timeout", type=float, default=2.0,
                        help="per-request acquire timeout (seconds)")
    p_load.add_argument("--objective", type=float, default=0.05,
                        help="SLO latency objective (seconds)")
    p_load.add_argument("--quantile", type=float, default=0.99,
                        help="SLO quantile")
    p_load.add_argument("--serve", metavar="PORTFILE", help=argparse.SUPPRESS)
    p_load.set_defaults(fn=_cmd_load)

    p_slo = sub.add_parser(
        "slo-report",
        help='per-request "why is p99 high" reports for a recorded load run',
    )
    p_slo.add_argument("--in", dest="indir", required=True, metavar="DIR",
                       help="a `load --out` directory")
    p_slo.add_argument("-k", type=int, default=3, dest="k",
                       help="how many tail exemplars to explain")
    p_slo.add_argument("--expect-wire", action="store_true",
                       help="exit 1 unless an exemplar's critical path "
                            "crosses processes")
    p_slo.set_defaults(fn=_cmd_slo_report)

    p_analyze = sub.add_parser(
        "analyze", help="causal report: blame, critical path, Gantt"
    )
    _add_trace_source(p_analyze)
    p_analyze.add_argument("--json", action="store_true", help="JSON instead of text")
    p_analyze.set_defaults(fn=_cmd_analyze)

    p_cp = sub.add_parser("critical-path", help="just the critical path")
    _add_trace_source(p_cp)
    p_cp.add_argument("--json", action="store_true", help="JSON instead of text")
    p_cp.set_defaults(fn=_cmd_critical_path)

    p_export = sub.add_parser(
        "export", help="convert a trace to Perfetto trace_event JSON or OTel spans"
    )
    _add_trace_source(p_export)
    p_export.add_argument("--format", choices=("perfetto", "otel"), default="perfetto")
    p_export.add_argument("--out", help="output file (stdout when omitted)")
    p_export.set_defaults(fn=_cmd_export)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())

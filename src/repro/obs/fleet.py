"""Fleet metrics: merge per-node registry snapshots, render one scrape.

The service's ``fetch_metrics`` op ships a node's
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` as plain JSON; this
module folds any number of those into one fleet-wide view and renders
it in Prometheus text exposition format — the body of the aggregating
endpoint :meth:`repro.dist.service.CounterService.serve_metrics`
serves, so one scrape covers the whole fabric.  :func:`render_snapshot`
is also the one renderer behind a single node's
:meth:`~repro.obs.metrics.MetricsRegistry.prometheus`, so a node and
the fleet export the same metric names by construction.

Merging is per metric kind:

* monotone tallies (increments, parks, ...) and ``dropped_series`` sum;
* high-water gauges take the max (a fleet-wide high water);
* histograms merge bucket-wise — same-bound counts add, ``count`` and
  ``sum`` add — which is exact because every node uses the same fixed
  bounds (:data:`~repro.obs.metrics.LATENCY_BOUNDS` et al.), and safe
  even if bounds ever diverge (the union of bounds is kept);
* trace-ring health sums (fleet totals of emitted/dropped/buffered).

Same-label series from different nodes *merge* rather than collide —
labels in this codebase name counters (``service:.../orders``), and a
counter replicated on three nodes is one logical series.  Per-node
liveness is exported separately as ``repro_fleet_node_up``.
"""

from __future__ import annotations

__all__ = ["merge_histograms", "merge_series", "merge_snapshots", "render_fleet",
           "render_snapshot"]


def merge_histograms(into: dict, other: dict) -> dict:
    """Merge two histogram snapshots (``{"count","sum","buckets"}``)."""
    buckets = dict(into.get("buckets", {}))
    for bound, n in other.get("buckets", {}).items():
        buckets[bound] = buckets.get(bound, 0) + n
    return {
        "count": into.get("count", 0) + other.get("count", 0),
        "sum": into.get("sum", 0.0) + other.get("sum", 0.0),
        "buckets": buckets,
    }


#: (series field, Prometheus name, help) per metric kind: what the merge
#: folds and what :func:`render_snapshot` writes, in one place.
_COUNTERS = (
    ("increments", "repro_counter_increments_total", "Increment operations observed"),
    ("releases", "repro_counter_releases_total", "Wait nodes released by increments"),
    ("parks", "repro_counter_parks_total", "Checks that suspended"),
    ("unparks", "repro_counter_unparks_total", "Suspended checks that resumed"),
    ("timeouts", "repro_counter_timeouts_total", "Checks whose wait expired"),
)
_GAUGES = (
    ("live_levels_hw", "repro_counter_live_levels_high_water", "Max simultaneous distinct waiting levels (the paper's L)"),
    ("live_waiters_hw", "repro_counter_live_waiters_high_water", "Max simultaneous suspended threads"),
)
_HISTOGRAMS = (
    ("wait_latency", "repro_counter_wait_latency_seconds", "Park-to-unpark latency of suspended checks"),
    ("wakeup_latency", "repro_counter_wakeup_latency_seconds", "Release-to-unpark latency (the wakeup path)"),
)
_TRACE_GAUGES = (
    ("emitted", "repro_trace_emitted_total", "Events appended to trace rings (lifetime)"),
    ("dropped", "repro_trace_dropped_total", "Events that fell off ring far ends"),
    ("sink_errors", "repro_trace_sink_errors_total", "Sink invocations that raised (sink detached on first)"),
    ("buffered", "repro_trace_buffered", "Events currently held in rings"),
    ("capacity", "repro_trace_capacity", "Ring capacity (summed over a fleet)"),
)

_SERIES_TALLIES = tuple(attr for attr, _, _ in _COUNTERS)
_SERIES_HIGH_WATERS = tuple(attr for attr, _, _ in _GAUGES)
_SERIES_HISTOGRAMS = tuple(attr for attr, _, _ in _HISTOGRAMS)


def merge_series(into: dict, other: dict) -> dict:
    """Merge two per-label series snapshots (``CounterMetrics.snapshot``)."""
    merged = dict(into)
    for key in _SERIES_TALLIES:
        merged[key] = merged.get(key, 0) + other.get(key, 0)
    for key in _SERIES_HIGH_WATERS:
        merged[key] = max(merged.get(key, 0), other.get(key, 0))
    for key in _SERIES_HISTOGRAMS:
        merged[key] = merge_histograms(merged.get(key, {}), other.get(key, {}))
    return merged


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Fold node registry snapshots into one fleet-wide snapshot.

    ``None`` entries (a node with metrics disabled) are skipped.  The
    result has the same shape as one registry snapshot, so everything
    that can read a node's snapshot can read the fleet's.
    """
    series: dict[str, dict] = {}
    trace: dict | None = None
    dropped = 0
    for snapshot in snapshots:
        if not snapshot:
            continue
        for label, node_series in snapshot.get("series", {}).items():
            if label in series:
                series[label] = merge_series(series[label], node_series)
            else:
                series[label] = dict(node_series)
        health = snapshot.get("trace")
        if health:
            if trace is None:
                trace = dict(health)
            else:
                for key, value in health.items():
                    trace[key] = trace.get(key, 0) + value
        dropped += snapshot.get("dropped_series", 0)
    return {"series": series, "trace": trace, "dropped_series": dropped}


def _escape(label: str) -> str:
    return str(label).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _bound_key(bound: str) -> float:
    return float("inf") if bound == "+Inf" else float(bound)


def render_snapshot(snapshot: dict) -> list[str]:
    """Prometheus exposition lines for one registry-shaped snapshot.

    ``snapshot`` is a :meth:`MetricsRegistry.snapshot` or a
    :func:`merge_snapshots` result.  Histograms follow the
    cumulative-``le`` convention, computed here from the snapshot's
    per-bucket counts.
    """
    lines: list[str] = []
    series = sorted(snapshot["series"].items())
    for table, kind in ((_COUNTERS, "counter"), (_GAUGES, "gauge")):
        for attr, metric, help_text in table:
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} {kind}")
            for label, m in series:
                lines.append(f'{metric}{{counter="{_escape(label)}"}} {m.get(attr, 0)}')
    for attr, metric, help_text in _HISTOGRAMS:
        lines.append(f"# HELP {metric} {help_text}")
        lines.append(f"# TYPE {metric} histogram")
        for label, m in series:
            hist = m.get(attr) or {}
            buckets = hist.get("buckets", {})
            esc = _escape(label)
            cumulative = 0
            for bound in sorted(buckets, key=_bound_key):
                if bound == "+Inf":
                    continue
                cumulative += buckets[bound]
                lines.append(
                    f'{metric}_bucket{{counter="{esc}",le="{float(bound):g}"}} {cumulative}'
                )
            cumulative += buckets.get("+Inf", 0)
            lines.append(f'{metric}_bucket{{counter="{esc}",le="+Inf"}} {cumulative}')
            lines.append(f'{metric}_sum{{counter="{esc}"}} {hist.get("sum", 0.0):g}')
            lines.append(f'{metric}_count{{counter="{esc}"}} {cumulative}')
    trace = snapshot.get("trace")
    if trace:
        for key, metric, help_text in _TRACE_GAUGES:
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {trace.get(key, 0)}")
    return lines


def render_fleet(nodes: list[dict]) -> str:
    """Prometheus exposition for a fleet of node metric replies.

    ``nodes`` entries are ``{"node", "pid", "snapshot", "up"}`` — the
    shape :meth:`CounterService.fetch_peer_metrics` returns; a down or
    metrics-disabled node contributes liveness gauges only.  The merged
    series render through :func:`render_snapshot`, the same function a
    single node's scrape uses.
    """
    merged = merge_snapshots([n.get("snapshot") for n in nodes
                              if n.get("snapshot")])
    lines: list[str] = []
    lines.append("# HELP repro_fleet_nodes Nodes aggregated in this scrape")
    lines.append("# TYPE repro_fleet_nodes gauge")
    lines.append(f"repro_fleet_nodes {len(nodes)}")
    lines.append("# HELP repro_fleet_node_up Whether the node answered the scrape")
    lines.append("# TYPE repro_fleet_node_up gauge")
    for node in nodes:
        pid = node.get("pid")
        lines.append(
            f'repro_fleet_node_up{{node="{_escape(node.get("node", "?"))}"'
            f',pid="{pid if pid is not None else ""}"}} '
            f'{1 if node.get("up") else 0}'
        )
    lines.extend(render_snapshot(merged))
    lines.append("")
    return "\n".join(lines)

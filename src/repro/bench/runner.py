"""The harness behind every ``repro.bench`` suite.

:mod:`repro.bench.counter_ops`, :mod:`repro.bench.dist_ops` and
:mod:`repro.bench.load_ops` each own their sizes, their timed workloads,
the series they gate and the ``derived`` lines they print.  Everything
else is here, once:

* :func:`entry` — the one result-entry shape: ``ops_per_sec`` plus the
  raw samples and their mean, min, median and IQR.
* :func:`document` — the result document around the series, stamped
  with :func:`~repro.bench.hostmeta.host_metadata`.
* :func:`compare` — the regression gate.
* :func:`git_describe` / :func:`append_history` — the per-SHA
  trajectory in ``BENCH_<suite>.history.jsonl``.
* :func:`series_tables` — the ops/sec tables.
* :func:`main` — the CLI every ``python -m repro.bench.<suite>`` runs::

      PYTHONPATH=src python -m repro.bench.<suite> [--quick] [--out PATH]
          [--history PATH | --no-history] [--label TEXT] [--timestamp TS]
          [--compare-to BASELINE.json] [--tolerance 0.3] [--gate SERIES=TOL]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from typing import Callable, Sequence

from repro.bench.hostmeta import host_metadata
from repro.bench.tables import Table
from repro.bench.timing import Timing

__all__ = [
    "SCHEMA",
    "IncomparableBaseline",
    "entry",
    "ratio",
    "document",
    "compare",
    "git_describe",
    "append_history",
    "series_tables",
    "main",
]

#: Version of the result document; 3 is the first with one entry shape
#: (samples, mean, min, median, IQR) across all suites.
SCHEMA = 3

#: Keys two documents must share for their ops/sec to be comparable: a
#: faster run at smaller sizes is not a speedup.
COMPARABLE_KEYS = ("bench", "quick", "config")


class IncomparableBaseline(ValueError):
    """The baseline was produced by another bench, sizes or quick flag."""


def entry(ops: int, timing: Timing, *, stat: str = "mean") -> dict:
    """One series entry: ``ops`` operations per sample, timed by ``timing``.

    ``ops_per_sec`` is based on the mean sample, or with ``stat="min"``
    on the fastest one: interference on a shared host only ever adds
    time, so for sub-millisecond samples the min is the honest estimate
    and the mean is hostage to one stolen quantum.  The samples are kept
    either way.
    """
    basis = timing.minimum if stat == "min" else timing.mean
    return {
        "ops": ops,
        "ops_per_sec": ratio(ops, basis),
        "stat": stat,
        "mean_s": timing.mean,
        "min_s": timing.minimum,
        "median_s": timing.median,
        "iqr_s": timing.iqr,
        "samples": list(timing.samples),
    }


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, infinite when the denominator is 0."""
    return numerator / denominator if denominator else float("inf")


def document(
    bench: str, *, quick: bool, config: dict, series: dict, derived: dict
) -> dict:
    """The JSON-ready result document of one suite run."""
    return {
        "bench": bench,
        "schema": SCHEMA,
        "quick": quick,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        **host_metadata(),
        "config": config,
        "series": series,
        "derived": derived,
    }


def _check_tolerance(value: float, what: str = "tolerance") -> None:
    if not 0 <= value < 1:
        raise ValueError(f"{what} must be in [0, 1), got {value}")


def compare(
    doc: dict,
    baseline: dict,
    *,
    gated: Sequence[str],
    tolerance: float = 0.3,
    overrides: dict[str, float] | None = None,
) -> list[str]:
    """Regression-gate ``doc`` against ``baseline``; return failure messages.

    Checks every implementation the baseline carries in each series of
    ``gated``: new ops/sec below ``(1 - tolerance)`` of the baseline's is
    a regression, and an implementation missing from ``doc`` is a
    failure too (dropping a gated series must not pass the gate).
    ``overrides`` maps a gated series to its own tolerance — how CI pins
    the obs-disabled fast paths at 2% while the noisier blocking series
    keep the default.  Raises :class:`ValueError` for a tolerance outside
    ``[0, 1)`` or an override naming a series not in ``gated``, and
    :class:`IncomparableBaseline` when the documents differ in any of
    :data:`COMPARABLE_KEYS`.
    """
    overrides = overrides or {}
    _check_tolerance(tolerance)
    for series_name, value in overrides.items():
        if series_name not in gated:
            raise ValueError(
                f"{series_name!r} is not a gated series (gated: {', '.join(gated)})"
            )
        _check_tolerance(value, f"tolerance for {series_name}")
    for key in COMPARABLE_KEYS:
        if doc.get(key) != baseline.get(key):
            raise IncomparableBaseline(
                f"result and baseline are not comparable: {key} differs "
                f"({doc.get(key)!r} vs {baseline.get(key)!r})"
            )
    failures = []
    for series_name in gated:
        new_series = doc.get("series", {}).get(series_name, {})
        old_series = baseline.get("series", {}).get(series_name, {})
        series_tolerance = overrides.get(series_name, tolerance)
        for impl in sorted(old_series):
            if impl not in new_series:
                failures.append(
                    f"{series_name}/{impl}: in the baseline but missing from the result"
                )
                continue
            new_ops = new_series[impl]["ops_per_sec"]
            old_ops = old_series[impl]["ops_per_sec"]
            if new_ops < old_ops * (1.0 - series_tolerance):
                failures.append(
                    f"{series_name}/{impl}: {new_ops:,.0f} ops/s is "
                    f"{1 - new_ops / old_ops:.0%} below baseline "
                    f"{old_ops:,.0f} (tolerance {series_tolerance:.0%})"
                )
    return failures


def git_describe() -> dict[str, object]:
    """Current commit SHA (with a ``-dirty`` marker) for the history key.

    Best-effort: outside a git checkout both fields degrade gracefully.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
        dirty = bool(
            subprocess.run(
                ["git", "status", "--porcelain"],
                capture_output=True, text=True, check=True, timeout=10,
            ).stdout.strip()
        )
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": dirty}


def append_history(doc: dict, path: str, *, label: str | None = None) -> dict:
    """Append one trajectory point for ``doc`` to the JSONL file at ``path``.

    The entry carries the full result document plus the git SHA it was
    produced at, so ``grep sha BENCH_<suite>.history.jsonl`` (or any
    JSONL tooling) can reconstruct the per-commit perf trajectory.
    """
    point = dict(git_describe())
    if label:
        point["label"] = label
    point.update(doc)
    with open(path, "a", encoding="utf-8") as fh:
        json.dump(point, fh, sort_keys=True)
        fh.write("\n")
    return point


def series_tables(doc: dict) -> list[str]:
    """One rendered ops/sec table per series of result entries."""
    tables = []
    for series_name, entries in doc["series"].items():
        table = Table(
            f"{doc['bench']}/{series_name} (ops/sec)",
            ["implementation", "ops/sec", "basis", "median ms", "IQR ms"],
        )
        for impl, result in entries.items():
            table.add_row(
                impl,
                result["ops_per_sec"],
                result["stat"],
                result["median_s"] * 1e3,
                result["iqr_s"] * 1e3,
            )
        tables.append(table.render())
    return tables


def _tolerance_arg(text: str) -> float:
    try:
        value = float(text)
        _check_tolerance(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _gate_arg(gated: Sequence[str]) -> Callable[[str], tuple[str, float]]:
    def parse(spec: str) -> tuple[str, float]:
        series_name, sep, value = spec.partition("=")
        if not sep or not series_name:
            raise argparse.ArgumentTypeError(f"expected SERIES=TOL, got {spec!r}")
        if series_name not in gated:
            raise argparse.ArgumentTypeError(
                f"{series_name!r} is not a gated series (gated: {', '.join(gated)})"
            )
        try:
            return series_name, _tolerance_arg(value)
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentTypeError(f"{spec!r}: {exc}") from None

    return parse


def main(
    argv: list[str] | None,
    *,
    bench: str,
    run: Callable[..., dict],
    render: Callable[[dict], list[str]],
    gated: Sequence[str],
    description: str,
) -> int:
    """Run one suite from the command line; returns the exit status.

    ``run(quick=...)`` produces the result document, ``render(doc)`` the
    suite's lines under the series tables, and ``gated`` names the
    series ``--compare-to`` inspects.  Every flag is validated before
    the run starts: a malformed ``--gate``, a tolerance outside
    ``[0, 1)`` or a series outside ``gated`` is a usage error (exit 2).
    Only a baseline from another bench, sizes or quick flag skips the
    gate.
    """
    parser = argparse.ArgumentParser(prog=f"repro.bench.{bench}", description=description)
    parser.add_argument(
        "--quick", action="store_true", help="tiny sizes for a CI smoke run"
    )
    parser.add_argument(
        "--out",
        default=f"BENCH_{bench}.json",
        help=f"where to write the JSON log (default: ./BENCH_{bench}.json)",
    )
    parser.add_argument(
        "--history",
        default=f"BENCH_{bench}.history.jsonl",
        help=f"JSONL trajectory to append to (default: ./BENCH_{bench}.history.jsonl)",
    )
    parser.add_argument(
        "--no-history", action="store_true", help="skip the trajectory append"
    )
    parser.add_argument(
        "--label", default=None, help="free-form tag recorded in the history entry"
    )
    parser.add_argument(
        "--timestamp",
        default=None,
        help="override the recorded timestamp (e.g. to key a re-run to its commit)",
    )
    parser.add_argument(
        "--compare-to",
        default=None,
        metavar="BASELINE.json",
        help="regression-gate the run against a baseline result document",
    )
    parser.add_argument(
        "--tolerance",
        type=_tolerance_arg,
        default=0.3,
        help="allowed fractional ops/sec drop for --compare-to (default 0.3)",
    )
    parser.add_argument(
        "--gate",
        action="append",
        default=[],
        type=_gate_arg(gated),
        metavar="SERIES=TOL",
        help="per-series tolerance override for --compare-to (repeatable); "
        f"gated series: {', '.join(gated)}",
    )
    args = parser.parse_args(argv)
    overrides = dict(args.gate)

    doc = run(quick=args.quick)
    if args.timestamp is not None:
        doc["timestamp"] = args.timestamp
    print("\n\n".join([*series_tables(doc), *render(doc)]))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {args.out}")
    if not args.no_history:
        append_history(doc, args.history, label=args.label)
        print(f"appended trajectory point to {args.history}")
    if args.compare_to is None:
        return 0
    with open(args.compare_to, encoding="utf-8") as fh:
        baseline = json.load(fh)
    try:
        failures = compare(
            doc, baseline, gated=gated, tolerance=args.tolerance, overrides=overrides
        )
    except IncomparableBaseline as exc:
        # The run legitimately changed the bench config/sizes: not a
        # regression, but nothing to compare against either.
        print(f"regression gate skipped: {exc}", file=sys.stderr)
        return 0
    if failures:
        print(f"\nREGRESSION vs {args.compare_to}:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    pins = "".join(f", {name} {value:.0%}" for name, value in overrides.items())
    print(f"no regression vs {args.compare_to} (tolerance {args.tolerance:.0%}{pins})")
    return 0

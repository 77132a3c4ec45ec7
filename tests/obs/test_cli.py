"""The ``python -m repro.obs`` CLI, exercised as real subprocesses.

These are the same invocations CI runs (the ``sample`` subcommand is
its uploaded artifact), so the tests pin the exit codes, the output
formats (JSON for ``dump``, Prometheus text for ``metrics``, the
artifact layout for ``sample`` — its causal additions are pinned in
``tests/obs/causal/test_cli.py``), and the demo workload's footprint.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.obs", *args],
        capture_output=True, text=True, timeout=60, env=env, cwd=REPO,
    )


class TestDumpCommand:
    def test_demo_dump_is_json_with_the_demo_counters(self):
        proc = _run("dump", "--demo")
        assert proc.returncode == 0, proc.stderr
        state = json.loads(proc.stdout)
        names = {d["name"] for d in state["counters"]}
        assert "demo-fanin" in names
        fanin = next(d for d in state["counters"] if d["name"] == "demo-fanin")
        assert fanin["stats"]["increments"] == 5
        assert fanin["stats"]["timeouts"] == 1

    def test_cold_dump_is_empty_but_valid(self):
        proc = _run("dump")
        assert proc.returncode == 0, proc.stderr
        state = json.loads(proc.stdout)
        assert state["counters"] == []
        assert state["totals"]["counters"] == 0


class TestMetricsCommand:
    def test_demo_metrics_render_prometheus_text(self):
        proc = _run("metrics", "--demo")
        assert proc.returncode == 0, proc.stderr
        text = proc.stdout
        assert "# TYPE repro_counter_parks_total counter" in text
        assert 'counter="demo-fanin"' in text
        assert "repro_counter_wait_latency_seconds_bucket" in text
        # The unified stats surface: demo-fanin carries stats=True.
        assert ('repro_counter_stats_total{counter="demo-fanin",'
                'tally="increments"} 5') in text

    def test_without_demo_or_enablement_fails_with_guidance(self):
        proc = _run("metrics")
        assert proc.returncode == 1
        assert "--demo" in proc.stderr


class TestSampleCommand:
    def test_writes_the_three_artifacts(self, tmp_path):
        out = tmp_path / "obs-sample"
        proc = _run("sample", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "wrote" in proc.stdout

        trace_lines = (out / "trace.jsonl").read_text().splitlines()
        assert trace_lines
        kinds = set()
        for line in trace_lines:
            event = json.loads(line)
            assert {"ts", "kind", "source", "thread"} <= set(event)
            kinds.add(event["kind"])
        # The demo workload is built to exercise the headline kinds.
        assert {"increment", "park", "unpark", "release", "timeout"} <= kinds

        dump = json.loads((out / "dump.json").read_text())
        assert dump["counters"]

        prom = (out / "metrics.prom").read_text()
        assert "repro_counter_unparks_total" in prom


class TestLoadAndSloReport:
    """The tail-attribution verbs, in-process mode (the two-process mode
    is CI's ``--expect-wire`` smoke; here we pin the artifact layout and
    that the report explains a real exemplar end to end)."""

    def test_load_writes_run_artifacts_and_report_explains_them(self, tmp_path):
        out = tmp_path / "load-run"
        proc = _run(
            "load", "--out", str(out), "--rate", "80", "--duration", "0.8",
            "--limit", "3", "--window", "0.3", "--objective", "0.02",
            "--seed", "5",
        )
        assert proc.returncode == 0, proc.stderr

        meta = json.loads((out / "meta.json").read_text())
        assert meta["two_process"] is False
        assert meta["summary"]["requests"] > 0
        assert meta["summary"]["seed"] == 5
        assert meta["exemplars"], "no tail exemplars were retained"

        requests = [
            json.loads(line)
            for line in (out / "requests.jsonl").read_text().splitlines()
        ]
        assert len(requests) == meta["summary"]["requests"]
        assert all(r["corr"] for r in requests)

        trace_kinds = {
            json.loads(line)["kind"]
            for line in (out / "trace.jsonl").read_text().splitlines()
        }
        assert {"req_start", "req_done"} <= trace_kinds

        report = _run("slo-report", "--in", str(out), "-k", "2")
        assert report.returncode == 0, report.stderr
        assert "exemplar" in report.stdout
        assert "queue" in report.stdout and "wait" in report.stdout
        assert (out / "slo-report.txt").read_text().strip()

    def test_slo_report_without_a_run_directory_exits_2(self, tmp_path):
        proc = _run("slo-report", "--in", str(tmp_path / "missing"))
        assert proc.returncode == 2
        assert "meta.json" in proc.stderr

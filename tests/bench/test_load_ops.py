"""The load-ops suite's series, derived ratios and CLI (quick sizes).

Gate, history and CLI behaviour shared by every suite: test_runner.py.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench.load_ops import GATED_SERIES, main
from repro.bench.runner import compare


@pytest.fixture(scope="module")
def doc(quick_doc):
    return quick_doc("load_ops")


class TestRunLoadOps:
    def test_quick_run_produces_all_series(self, doc):
        assert doc["bench"] == "load_ops"
        assert doc["quick"] is True
        assert set(doc["series"]) == {
            "ratelimit_admit",
            "ratelimit_admit_obs",
            "capacity",
        }
        for series in ("ratelimit_admit", "ratelimit_admit_obs"):
            entry = doc["series"][series]["local"]
            assert entry["ops_per_sec"] > 0
            assert entry["mean_s"] > 0

    def test_capacity_steps_cover_every_offered_rate(self, doc):
        steps = doc["series"]["capacity"]
        assert [s["offered"] for s in steps] == doc["config"]["capacity_rates"]
        for step in steps:
            assert step["achieved"] >= 0
            assert 0.0 <= step["admit_rate"] <= 1.0
            assert step["p50"] <= step["p99"] <= step["p999"]

    def test_derived_ratios(self, doc):
        tax = doc["derived"]["admit_obs_enabled_vs_disabled"]
        assert tax > 0
        knee = doc["derived"]["capacity_knee"]
        assert knee is None or knee in doc["config"]["capacity_rates"]

    def test_document_is_json_serializable(self, doc):
        json.dumps(doc)


class TestCompare:
    def test_capacity_is_trajectory_not_gate(self, doc):
        worse = copy.deepcopy(doc)
        for step in worse["series"]["capacity"]:
            step["achieved"] = 0.0
        assert compare(worse, doc, gated=GATED_SERIES) == []


class TestMain:
    def test_writes_snapshot_history_and_gates(self, tmp_path):
        out = tmp_path / "BENCH_load_ops.json"
        history = tmp_path / "hist.jsonl"
        assert main([
            "--quick", "--out", str(out), "--history", str(history),
            "--label", "unit",
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["bench"] == "load_ops"
        lines = history.read_text().splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["label"] == "unit"
        assert "sha" in entry
        # Same-machine rerun against its own snapshot passes the gate.
        assert main([
            "--quick", "--out", str(tmp_path / "second.json"), "--no-history",
            "--compare-to", str(out), "--gate", "ratelimit_admit=0.9",
        ]) == 0

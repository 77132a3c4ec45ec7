"""The load-ops suite's series, derived ratios and CLI (quick sizes).

Gate, history and CLI behaviour shared by every suite: test_runner.py.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.load_ops import main


@pytest.fixture(scope="module")
def doc(quick_doc):
    return quick_doc("load_ops")


class TestRunLoadOps:
    def test_quick_run_produces_all_series(self, doc):
        assert doc["bench"] == "load_ops"
        assert doc["quick"] is True
        assert set(doc["series"]) == {"ratelimit_admit", "ratelimit_admit_obs"}
        for series in ("ratelimit_admit", "ratelimit_admit_obs"):
            entry = doc["series"][series]["local"]
            assert entry["ops_per_sec"] > 0
            assert entry["mean_s"] > 0

    def test_derived_ratios(self, doc):
        assert doc["derived"]["admit_obs_enabled_vs_disabled"] > 0

    def test_document_is_json_serializable(self, doc):
        json.dumps(doc)


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

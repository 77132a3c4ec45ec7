"""The dist-ops suite's series, derived ratios and CLI (quick sizes).

Gate, history and CLI behaviour shared by every suite: test_runner.py.
"""

from __future__ import annotations

import copy
import json
import time
import types

import pytest

from repro.bench import dist_ops
from repro.bench.dist_ops import GATED_SERIES, main
from repro.bench.runner import compare
from repro.dist.shm import ShmCounter


@pytest.fixture(scope="module")
def doc(quick_doc):
    return quick_doc("dist_ops")


class TestRunDistOps:
    def test_quick_run_produces_all_series(self, doc):
        assert doc["bench"] == "dist_ops"
        assert doc["quick"] is True
        assert set(doc["series"]) == {
            "shm_readonly_check",
            "shm_increment_scaling",
            "service_pipeline",
            "dist_obs_disabled",
            "dist_obs_enabled",
        }
        for entries in doc["series"].values():
            for entry in entries.values():
                assert entry["ops_per_sec"] > 0
                assert entry["mean_s"] > 0

    def test_host_metadata_carries_the_host(self, doc):
        assert doc["python"] and doc["implementation"] and doc["platform"]
        assert doc["cpu_count"] >= 1
        assert isinstance(doc["gil_enabled"], bool)

    def test_derived_ratios_present(self, doc):
        derived = doc["derived"]
        assert derived["shm_check_vs_manager_proxy"] > 0
        assert derived["pipelined_vs_rpc"] > 0
        assert set(derived["scaling_efficiency"]) == set(
            doc["series"]["shm_increment_scaling"]
        )

    def test_acceptance_ratios_hold_even_quick(self, doc):
        """The ROADMAP acceptance bars (10x / 5x) are same-run ratios
        and hold with margin even at smoke sizes."""
        assert doc["derived"]["shm_check_vs_manager_proxy"] >= 10
        assert doc["derived"]["pipelined_vs_rpc"] >= 5

    def test_obs_series_are_paired_and_tax_is_derived(self, doc):
        disabled = doc["series"]["dist_obs_disabled"]
        enabled = doc["series"]["dist_obs_enabled"]
        assert set(disabled) == set(enabled) == {"shm_check", "pipelined_inc"}
        for impl in disabled:
            # Paired sampling: repeat i's off/on samples ran back-to-back,
            # so the two series must have the same shape.
            assert len(disabled[impl]["samples"]) == len(enabled[impl]["samples"])
        tax = doc["derived"]["obs_enabled_tax"]
        assert set(tax) == {"shm_check", "pipelined_inc"}
        for value in tax.values():
            assert value > 0

    def test_only_the_disabled_obs_series_is_gated(self):
        assert "dist_obs_disabled" in GATED_SERIES
        assert "dist_obs_enabled" not in GATED_SERIES

    def test_document_is_json_serializable(self, doc):
        json.dumps(doc)


class TestShmScalingClock:
    def test_samples_time_the_increments_not_the_last_scan(self, monkeypatch):
        """Each worker sleeps 0.1 s before its first increment, and the
        parent's start-of-sample clock read is delayed 0.2 s.  A clock
        that started after the workers were released would miss the
        work and time only the final satisfied scan."""
        real_increment = ShmCounter.increment
        first = [True]  # copied into each forked worker

        def slow_first_increment(self, amount=1):
            if first:
                first.clear()
                time.sleep(0.1)
            return real_increment(self, amount)

        reads = []

        def delayed_start_read():
            reads.append(None)
            if len(reads) % 2:  # every sample's first read is its start
                time.sleep(0.2)
            return time.perf_counter()

        monkeypatch.setattr(ShmCounter, "increment", slow_first_increment)
        monkeypatch.setattr(
            dist_ops, "time", types.SimpleNamespace(perf_counter=delayed_start_read)
        )
        series = dist_ops._bench_shm_scaling(
            {"increments_per_proc": 1_000, "process_counts": (1,), "repeats": 2}
        )
        samples = series["1proc"]["samples"]
        assert len(samples) == 2
        assert all(sample >= 0.1 for sample in samples), samples


class TestCompare:
    def test_scaling_series_not_gated(self, doc):
        slower = copy.deepcopy(doc)
        for entry in slower["series"]["shm_increment_scaling"].values():
            entry["ops_per_sec"] *= 0.01
        assert compare(slower, doc, gated=GATED_SERIES) == []


class TestMain:
    def test_cli_quick_writes_doc(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        history = tmp_path / "bench.history.jsonl"
        assert main([
            "--quick", "--out", str(out), "--history", str(history),
            "--label", "smoke",
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["bench"] == "dist_ops"
        entry = json.loads(history.read_text().splitlines()[0])
        assert entry["label"] == "smoke"
        assert "sha" in entry
        assert "acceptance floor" in capsys.readouterr().out

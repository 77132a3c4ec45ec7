"""The counter-ops suite's series, derived ratios and CLI (quick sizes).

Gate, history and CLI behaviour shared by every suite: test_runner.py.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.counter_ops import FACTORIES, FAN_IN, HANDOFF, main, render


@pytest.fixture(scope="module")
def doc(quick_doc):
    return quick_doc("counter_ops")


class TestRunCounterOps:
    def test_quick_run_produces_all_series(self, doc):
        assert doc["bench"] == "counter_ops"
        assert doc["quick"] is True
        assert set(doc["series"]) == {
            "immediate_check",
            "uncontended_increment",
            "contended_increment",
            "fan_in_wakeup",
            "handoff_pingpong",
            "multiwait_join",
            "obs_overhead",
        }
        for series in ("immediate_check", "uncontended_increment"):
            assert set(doc["series"][series]) == set(FACTORIES)
            for entry in doc["series"][series].values():
                assert entry["ops_per_sec"] > 0
                assert entry["mean_s"] > 0
        assert doc["derived"]["immediate_check_fast_path_speedup"] > 0
        assert doc["derived"]["multiwait_subscription_vs_sequential"] > 0

    def test_fan_in_covers_blocking_implementations(self, doc):
        assert set(doc["series"]["fan_in_wakeup"]) == set(FAN_IN)

    def test_handoff_compares_wait_policies(self, doc):
        assert set(doc["series"]["handoff_pingpong"]) == set(HANDOFF)

    def test_multiwait_compares_strategies(self, doc):
        assert set(doc["series"]["multiwait_join"]) == {"subscription", "sequential"}
        for entry in doc["series"]["multiwait_join"].values():
            assert entry["ops_per_sec"] > 0

    def test_obs_overhead_measures_both_states(self, doc):
        assert set(doc["series"]["obs_overhead"]) == {
            "immediate_disabled",
            "immediate_enabled",
            "handoff_disabled",
            "handoff_enabled",
        }
        for entry in doc["series"]["obs_overhead"].values():
            assert entry["ops_per_sec"] > 0
        assert doc["derived"]["obs_immediate_enabled_vs_disabled"] > 0
        assert doc["derived"]["obs_handoff_enabled_vs_disabled"] > 0

    def test_obs_overhead_run_leaves_observability_off(self, doc):
        import repro.obs as obs

        assert obs.current() is None


class TestMain:
    def test_main_writes_json_log_and_history(self, tmp_path, capsys):
        out = tmp_path / "BENCH_counter_ops.json"
        history = tmp_path / "history.jsonl"
        assert (
            main(
                [
                    "--quick",
                    "--out",
                    str(out),
                    "--history",
                    str(history),
                    "--timestamp",
                    "2026-01-01T00:00:00+0000",
                ]
            )
            == 0
        )
        doc = json.loads(out.read_text())
        assert doc["bench"] == "counter_ops"
        assert doc["timestamp"] == "2026-01-01T00:00:00+0000"
        assert "immediate_check" in doc["series"]
        entry = json.loads(history.read_text().strip())
        assert entry["timestamp"] == "2026-01-01T00:00:00+0000"
        printed = capsys.readouterr().out
        for line in render(doc):
            assert line in printed

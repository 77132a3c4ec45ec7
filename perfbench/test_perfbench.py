"""The benchmark's own checks: deterministic inputs and decisions, its
oracle, its metric list, and its refusal to run without the program.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import handoff  # noqa: E402
import quota    # noqa: E402
import run      # noqa: E402


def test_schedule_is_byte_identical_per_seed():
    for workload in ("quota_local", "quota_wire"):
        one = quota.make_inputs(workload, 7, 2.0)
        two = quota.make_inputs(workload, 7, 2.0)
        assert one.times.tobytes() == two.times.tobytes()
        assert one.keys.tobytes() == two.keys.tobytes()
        other = quota.make_inputs(workload, 8, 2.0)
        assert one.times.tobytes() != other.times.tobytes()
    think = handoff.make_inputs("handoff_shm", 7, 2.0)
    assert think.tobytes() == handoff.make_inputs("handoff_shm", 7, 2.0).tobytes()
    assert handoff.make_inputs("handoff", 7, 2.0) is None


def _decisions(sched):
    """Drive quota_local's own loop unpaced (every request already due)."""
    run_ = quota.QuotaRun("quota_local", sched, False)
    try:
        run_._alloc()
        run_._plain(0, len(sched), -1e9)
        return run_.ok
    finally:
        run_.close()


def test_quota_local_decisions_repeat_and_pass_the_oracle():
    sched = quota.make_inputs("quota_local", 3, 2.0)
    first = _decisions(sched)
    second = _decisions(sched)
    assert quota.decision_digest(first) == quota.decision_digest(second)
    over, best = quota.oracle(sched, first)
    assert over == 0
    assert 0 < sum(first) <= best


def test_oracle_counts_over_admits():
    sched = quota.make_inputs("quota_local", 3, 1.0)
    over, best = quota.oracle(sched, array("b", bytes([1]) * len(sched)))
    # Every request the greedy replay refuses lands in a full window.
    assert over >= len(sched) - best > 0


def test_benchmark_json_lists_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quota_local",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

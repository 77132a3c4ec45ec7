"""The shared bench harness, checked once for every ``repro.bench`` suite.

Entry shape, regression gate, history writer and CLI live in
:mod:`repro.bench.runner`; each test here is parametrized over the three
suites so a suite that stops wiring one of them through fails by name.
CLI tests replace the suite's ``run_<name>`` with its cached quick
document, so they exercise the argument handling, files and gate
without re-running the bench.
"""

from __future__ import annotations

import copy
import importlib
import json
import statistics

import pytest

from repro.bench import runner
from repro.bench.timing import Timing

ENTRY_KEYS = {
    "ops", "ops_per_sec", "stat", "mean_s", "min_s", "median_s", "iqr_s", "samples",
}


@pytest.fixture(params=("counter_ops", "dist_ops", "load_ops"))
def bench(request):
    return request.param


@pytest.fixture
def suite(bench):
    return importlib.import_module(f"repro.bench.{bench}")


@pytest.fixture
def doc(bench, quick_doc):
    return quick_doc(bench)


@pytest.fixture
def runs(bench, suite, quick_doc, monkeypatch):
    """Replace the suite's run with its quick document; records each call."""
    cached = quick_doc(bench)
    calls: list[bool] = []

    def run(*, quick: bool) -> dict:
        calls.append(quick)
        return copy.deepcopy(cached)

    monkeypatch.setattr(suite, f"run_{bench}", run)
    return calls


def scale_gated(doc: dict, gated, factor: float) -> dict:
    for series_name in gated:
        for result in doc["series"][series_name].values():
            result["ops_per_sec"] *= factor
    return doc


def gate(doc, baseline, suite, **kwargs):
    return runner.compare(doc, baseline, gated=suite.GATED_SERIES, **kwargs)


class TestEntry:
    @pytest.mark.parametrize("stat", ["mean", "min"])
    def test_ops_per_sec_keeps_the_parent_basis(self, stat):
        samples = (0.004, 0.0021, 0.003, 0.0025)
        basis = statistics.fmean(samples) if stat == "mean" else min(samples)
        result = runner.entry(1000, Timing(samples), stat=stat)
        assert result["ops_per_sec"] == 1000 / basis
        assert result["stat"] == stat
        assert result["median_s"] == statistics.median(samples)
        assert result["iqr_s"] == pytest.approx(0.00325 - 0.002400)

    def test_every_series_entry_has_one_shape(self, doc):
        assert doc["schema"] == runner.SCHEMA
        entries = [
            result
            for series in doc["series"].values()
            for result in series.values()
        ]
        assert entries
        for result in entries:
            assert set(result) == ENTRY_KEYS
            assert result["samples"]
            assert result["min_s"] <= result["median_s"] <= max(result["samples"])
            assert result["iqr_s"] >= 0
            basis = result["min_s"] if result["stat"] == "min" else result["mean_s"]
            assert result["ops_per_sec"] == result["ops"] / basis


class TestCompare:
    def test_identical_documents_pass(self, doc, suite):
        assert gate(doc, copy.deepcopy(doc), suite) == []

    def test_regression_detected(self, doc, suite):
        baseline = copy.deepcopy(doc)
        scale_gated(doc, suite.GATED_SERIES, 0.5)
        failures = gate(doc, baseline, suite, tolerance=0.3)
        expected = sum(len(doc["series"][name]) for name in suite.GATED_SERIES)
        assert len(failures) == expected
        assert all(f.split("/")[0] in suite.GATED_SERIES for f in failures)

    def test_improvement_and_small_noise_pass(self, doc, suite):
        baseline = copy.deepcopy(doc)
        scale_gated(baseline, suite.GATED_SERIES, 1.2)  # ~17% slower: within 30%
        assert gate(doc, baseline, suite, tolerance=0.3) == []
        scale_gated(doc, suite.GATED_SERIES, 2.0)
        assert gate(doc, baseline, suite, tolerance=0.3) == []

    def test_ungated_series_not_gated(self, doc, suite):
        baseline = copy.deepcopy(doc)
        ungated = [
            name
            for name in doc["series"]
            if name not in suite.GATED_SERIES
        ]
        scale_gated(doc, ungated, 0.01)
        assert gate(doc, baseline, suite) == []

    def test_override_tightens_one_series(self, doc, suite):
        baseline = copy.deepcopy(doc)
        scale_gated(doc, suite.GATED_SERIES, 0.95)  # inside 30%, outside 2%
        assert gate(doc, baseline, suite, tolerance=0.3) == []
        for series_name in suite.GATED_SERIES:
            failures = gate(
                doc, baseline, suite, tolerance=0.3, overrides={series_name: 0.02}
            )
            assert len(failures) == len(doc["series"][series_name])
            assert all(f.startswith(f"{series_name}/") for f in failures)

    def test_incomparable_documents_rejected(self, doc, suite):
        for key, value in (("bench", "other"), ("quick", False), ("config", {})):
            baseline = dict(doc, **{key: value})
            with pytest.raises(runner.IncomparableBaseline, match=f"{key} differs"):
                gate(doc, baseline, suite)

    def test_bad_tolerance_rejected(self, doc, suite):
        for kwargs in (
            {"tolerance": 1.5},
            {"tolerance": -0.1},
            {"overrides": {suite.GATED_SERIES[0]: 1.0}},
            {"overrides": {suite.GATED_SERIES[0]: -0.1}},
        ):
            with pytest.raises(ValueError, match="tolerance") as info:
                gate(doc, doc, suite, **kwargs)
            assert not isinstance(info.value, runner.IncomparableBaseline)

    def test_unknown_override_series_rejected(self, doc, suite):
        with pytest.raises(ValueError, match="not a gated series") as info:
            gate(doc, doc, suite, overrides={"no_such_series": 0.02})
        assert not isinstance(info.value, runner.IncomparableBaseline)

    def test_missing_gated_series_fails(self, doc, suite):
        baseline = copy.deepcopy(doc)
        series_name = suite.GATED_SERIES[-1]
        del doc["series"][series_name]
        assert gate(doc, baseline, suite) == [
            f"{series_name}/{impl}: in the baseline but missing from the result"
            for impl in sorted(baseline["series"][series_name])
        ]


class TestHistory:
    def test_append_history_accumulates_jsonl(self, doc, tmp_path):
        path = tmp_path / "history.jsonl"
        runner.append_history(doc, str(path), label="first")
        runner.append_history(doc, str(path))
        first, second = (json.loads(line) for line in path.read_text().splitlines())
        assert first["label"] == "first"
        assert "label" not in second
        for point in (first, second):
            assert "sha" in point and "dirty" in point
            assert point["series"] == doc["series"]


class TestMain:
    def test_writes_json_and_history(self, bench, suite, runs, tmp_path, capsys):
        out = tmp_path / "out.json"
        history = tmp_path / "history.jsonl"
        assert suite.main([
            "--quick", "--out", str(out), "--history", str(history),
            "--label", "unit", "--timestamp", "2026-01-01T00:00:00+0000",
        ]) == 0
        assert runs == [True]
        written = json.loads(out.read_text())
        assert written["bench"] == bench
        assert written["schema"] == runner.SCHEMA
        assert written["timestamp"] == "2026-01-01T00:00:00+0000"
        (line,) = history.read_text().splitlines()
        point = json.loads(line)
        assert point["label"] == "unit"
        assert point["timestamp"] == "2026-01-01T00:00:00+0000"
        assert "sha" in point
        assert f"== {bench}/{suite.GATED_SERIES[0]} (ops/sec) ==" in capsys.readouterr().out

    def test_no_history_skips_the_append(self, suite, runs, tmp_path):
        history = tmp_path / "history.jsonl"
        assert suite.main([
            "--quick", "--out", str(tmp_path / "out.json"),
            "--history", str(history), "--no-history",
        ]) == 0
        assert not history.exists()

    def test_compare_gate(self, bench, suite, runs, quick_doc, tmp_path, capsys):
        # Every gated series is doctored: quick-run noise cannot span 1000x.
        for factor, expected in ((0.001, 0), (1000, 1)):
            baseline = tmp_path / f"baseline-{factor}.json"
            baseline.write_text(
                json.dumps(scale_gated(quick_doc(bench), suite.GATED_SERIES, factor))
            )
            assert suite.main([
                "--quick", "--out", str(tmp_path / "out.json"), "--no-history",
                "--compare-to", str(baseline),
            ]) == expected
            captured = capsys.readouterr()
            if expected:
                assert "REGRESSION" in captured.err
            else:
                assert "no regression" in captured.out

    def test_incomparable_baseline_skips_the_gate(
        self, bench, suite, runs, quick_doc, tmp_path, capsys
    ):
        baseline = quick_doc(bench)
        baseline["quick"] = False
        path = tmp_path / "full.json"
        path.write_text(json.dumps(baseline))
        assert suite.main([
            "--quick", "--out", str(tmp_path / "out.json"), "--no-history",
            "--compare-to", str(path),
        ]) == 0
        assert "regression gate skipped" in capsys.readouterr().err


class TestGateHoles:
    """Gate inputs that once passed silently or crashed after the run."""

    def usage_error(self, suite, runs, tmp_path, *flags):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{}")
        with pytest.raises(SystemExit) as info:
            suite.main([
                "--quick", "--out", str(tmp_path / "out.json"), "--no-history",
                "--compare-to", str(baseline), *flags,
            ])
        assert info.value.code == 2
        assert runs == []  # rejected before the bench ran

    @pytest.mark.parametrize("spec", ["nonsense", "=0.1", "SERIES=", "SERIES=fast"])
    def test_malformed_gate_spec_is_a_usage_error(self, suite, runs, tmp_path, spec):
        spec = spec.replace("SERIES", suite.GATED_SERIES[0])
        self.usage_error(suite, runs, tmp_path, "--gate", spec)

    def test_out_of_range_tolerance_is_a_usage_error(self, suite, runs, tmp_path):
        self.usage_error(suite, runs, tmp_path, "--gate", f"{suite.GATED_SERIES[0]}=1.5")
        self.usage_error(suite, runs, tmp_path, "--tolerance", "1.5")

    def test_unknown_gate_series_is_a_usage_error(self, suite, runs, tmp_path):
        self.usage_error(suite, runs, tmp_path, "--gate", "no_such_series=0.02")

    def test_missing_gated_implementation_fails_the_gate(
        self, bench, suite, runs, quick_doc, tmp_path, capsys
    ):
        baseline = quick_doc(bench)
        series_name = suite.GATED_SERIES[0]
        ghost = dict(next(iter(baseline["series"][series_name].values())))
        baseline["series"][series_name]["ghost"] = ghost
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        assert suite.main([
            "--quick", "--out", str(tmp_path / "out.json"), "--no-history",
            "--compare-to", str(path),
        ]) == 1
        assert f"{series_name}/ghost" in capsys.readouterr().err

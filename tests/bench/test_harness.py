"""Tests for the benchmark harness utilities (tables, timing, workloads)."""

from __future__ import annotations

import pytest

from repro.bench import SpreadResult, Table, Timing, measure, spread_waiters
from repro.core import BroadcastCounter, MonotonicCounter
from repro.obs import observe
from tests.helpers import series_of


class TestTable:
    def test_render_contains_title_and_cells(self):
        table = Table("demo", ["a", "b"], caption="cap")
        table.add_row(1, 2.5)
        text = table.render()
        assert "demo" in text and "cap" in text
        assert "2.500" in text  # float formatting
        assert "1" in text

    def test_bool_formatting(self):
        table = Table("t", ["x"])
        table.add_row(True)
        table.add_row(False)
        assert "yes" in table.render() and "no" in table.render()

    def test_row_arity_checked(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_needs_columns(self):
        with pytest.raises(ValueError):
            Table("t", [])

    def test_csv_output(self):
        table = Table("t", ["a", "b"])
        table.add_row(1, "x")
        assert table.to_csv() == "a,b\n1,x\n"

    def test_alignment_padding(self):
        table = Table("t", ["col"])
        table.add_row("longer-cell")
        lines = table.render().splitlines()
        header_line = next(line for line in lines if "col" in line)
        assert len(header_line) >= len("longer-cell")

    def test_len(self):
        table = Table("t", ["a"])
        assert len(table) == 0
        table.add_row(1)
        assert len(table) == 1


class TestTiming:
    def test_measure_collects_samples(self):
        timing = measure(lambda: sum(range(100)), repeats=4)
        assert len(timing.samples) == 4
        assert timing.mean > 0
        assert timing.minimum <= timing.mean

    def test_repeats_validated(self):
        with pytest.raises(ValueError):
            measure(lambda: None, repeats=0)

    def test_single_sample_ci_degenerate(self):
        timing = Timing(samples=(0.5,))
        assert timing.confidence_interval() == (0.5, 0.5)
        assert timing.stdev == 0.0

    def test_ci_brackets_mean(self):
        timing = Timing(samples=(1.0, 2.0, 3.0, 2.0, 2.0))
        low, high = timing.confidence_interval()
        assert low <= timing.mean <= high
        assert low < high

    def test_str_has_units(self):
        assert "ms" in str(measure(lambda: None, repeats=2))


class TestSpreadWaiters:
    def test_levels_spread_and_release(self):
        result = spread_waiters(MonotonicCounter(), waiters=12, levels=4)
        assert isinstance(result, SpreadResult)
        assert result.max_live_levels == 4
        assert result.max_live_waiters == 12

    def test_stepped_release(self):
        counter = MonotonicCounter()
        with observe(trace=False) as h:
            spread_waiters(counter, waiters=8, levels=8, increment_steps=8)
        assert counter.value == 8
        assert series_of(h, counter).unparks == 8  # each woken exactly once

    def test_broadcast_counter_supported(self):
        result = spread_waiters(BroadcastCounter(), waiters=6, levels=3)
        assert result.max_live_waiters == 6
        assert result.max_live_levels == 1  # one anonymous queue

    def test_validation(self):
        with pytest.raises(ValueError):
            spread_waiters(MonotonicCounter(), waiters=2, levels=5)
        with pytest.raises(ValueError):
            spread_waiters(MonotonicCounter(), waiters=0, levels=0)
        with pytest.raises(ValueError):
            spread_waiters(MonotonicCounter(), waiters=4, levels=2, increment_steps=0)

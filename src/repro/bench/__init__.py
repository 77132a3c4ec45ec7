"""Benchmark harness utilities: tables, timing, counter stress workloads.

``python -m repro.bench.counter_ops`` runs the counter-ops ops/sec series
and records ``BENCH_counter_ops.json`` (see :mod:`repro.bench.counter_ops`);
``python -m repro.bench.dist_ops`` and ``python -m repro.bench.load_ops`` do
the same for the cross-process fabric and the quota service.  All three
share one result-entry shape, regression gate, history writer and CLI:
:mod:`repro.bench.runner`.
"""

from repro.bench.tables import Table
from repro.bench.timing import Timing, measure
from repro.bench.workloads import SpreadResult, spread_waiters

__all__ = [
    "Table",
    "Timing",
    "measure",
    "SpreadResult",
    "spread_waiters",
]

"""Example applications (paper §4 and §5 workloads).

* :mod:`~repro.apps.floyd_warshall` — §4's four shortest-path programs
  plus the Figure 1 matrices.
* :mod:`~repro.apps.heat` — §5.1's time-stepped boundary-exchange
  simulation, barrier vs ragged counters.
* :mod:`~repro.apps.accumulate` — §5.2's ordered accumulation, lock vs
  counter.
* :mod:`~repro.apps.paraffins` — §5.3's dataflow pipeline shape
  (integer-partition analogue of the Paraffins Problem).
* :mod:`~repro.apps.lcs` — 2-D wavefront dynamic programming.
* :mod:`~repro.apps.graphs` — seeded graph workload generators.
* :mod:`~repro.apps.sim_models` — virtual-time models of each workload
  for the benchmark harness.
* :mod:`~repro.apps.ratelimit` — the counter-backed sliding-window
  quota service (the tail-latency attribution workload).

Each app is imported on use (``from repro.apps import heat``,
``import repro.apps.floyd_warshall``); importing the package loads none
of them.  The counter stack (:mod:`repro.core`), :mod:`repro.dist` and
:mod:`~repro.apps.ratelimit` import no numpy, so a quota process or a
``CounterService`` loads neither numpy nor the §4–5 apps and their
simulation models (``tests/apps/test_imports.py``).
"""

__all__ = [
    "floyd_warshall",
    "heat",
    "gauss_seidel",
    "accumulate",
    "paraffins",
    "lcs",
    "graphs",
    "sim_models",
    "ratelimit",
]

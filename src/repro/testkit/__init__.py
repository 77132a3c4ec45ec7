"""``repro.testkit`` — schedule-injection testing for the real primitives.

The counters' concurrency tests historically came in two flavours:
hammer tests (real threads, real time, hope the race window opens) and
hand-built monkeypatched reproductions (deterministic, but testing a
Frankenstein object).  This package adds the missing middle: the **real**
primitives, instrumented at named sync points
(:mod:`repro.core.syncpoints`), driven through **chosen** interleavings.

Pieces:

* :class:`Controller` (:mod:`.harness`) — gates worker threads at sync
  points and releases them one grant at a time.
* :mod:`.schedulers` — seeded random and PCT grant policies for
  exploratory runs.
* :mod:`.script` — ``until``/``grant``/``run_thread``/``probe`` ops to
  pin one exact interleaving, and :func:`replay` to re-impose a recorded
  failing trace.
* :mod:`.trace` — the compact ``thread:point`` schedule format failing
  tests print.
* :mod:`.invariants` — quiescence and tally checkers over the counters'
  private state.
* :func:`interleave` (:mod:`.marks`) — the pytest decorator that runs a
  test body under N schedules and reports failures with a replayable
  trace.
* :func:`explore_model` (:mod:`.explore`) — exhaustive DPOR enumeration
  of every inequivalent schedule of a small model, with a certificate
  (:mod:`.por` holds the dependence/happens-before machinery).
* :func:`shrink_trace` / :func:`replay_fails` (:mod:`.shrink`) —
  delta-debug a failing grant trace down to the steps that matter.

The hooks this rides on are compiled into the core but disabled by
default: a module-bool read on the slow paths only, and *no* hook on the
lock-free fast paths (see ``docs/testing.md`` for the measured
non-impact).
"""

from repro.testkit.explore import (
    DeadlockWitness,
    ExploreReport,
    FailureWitness,
    explore_model,
)
from repro.testkit.harness import (
    WORKER_START,
    Controller,
    DeadlockReport,
    ScheduleDeadlock,
    ScheduleError,
    ScheduleFailure,
)
from repro.testkit.invariants import (
    assert_counter_quiescent,
    assert_multiwait_closed,
    tallies_consistent,
)
from repro.testkit.marks import ScheduleRun, interleave
from repro.testkit.schedulers import (
    DirectedScheduler,
    PCTScheduler,
    PrefixDivergence,
    RandomScheduler,
    make_scheduler,
)
from repro.testkit.script import (
    Grant,
    Probe,
    ReplayResult,
    RunThread,
    StaleTraceError,
    Until,
    grant,
    probe,
    replay,
    run_script,
    run_thread,
    until,
)
from repro.testkit.shrink import ShrinkResult, replay_fails, shrink_trace
from repro.testkit.trace import Trace, TraceStep

__all__ = [
    "Controller",
    "DeadlockReport",
    "ScheduleError",
    "ScheduleDeadlock",
    "ScheduleFailure",
    "WORKER_START",
    "RandomScheduler",
    "PCTScheduler",
    "DirectedScheduler",
    "PrefixDivergence",
    "make_scheduler",
    "explore_model",
    "ExploreReport",
    "DeadlockWitness",
    "FailureWitness",
    "shrink_trace",
    "replay_fails",
    "ShrinkResult",
    "StaleTraceError",
    "Trace",
    "TraceStep",
    "interleave",
    "ScheduleRun",
    "run_script",
    "replay",
    "ReplayResult",
    "until",
    "grant",
    "run_thread",
    "probe",
    "Until",
    "Grant",
    "RunThread",
    "Probe",
    "assert_counter_quiescent",
    "assert_multiwait_closed",
    "tallies_consistent",
]

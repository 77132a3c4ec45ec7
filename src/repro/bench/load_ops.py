"""Load-ops harness: quota-service admit throughput.

Times the counter-backed rate limiter's (:mod:`repro.apps.ratelimit`)
decision loop and writes ``BENCH_load_ops.json`` so successive PRs
accumulate a recorded trajectory, mirroring
:mod:`repro.bench.counter_ops`:

* ``ratelimit_admit`` — obs-disabled ``try_acquire`` on the always-admit
  path (huge limit, one key): the hot decision loop the observability
  layer must not tax.  This is the **gated** series — CI pins it against
  the merge-base at 2%, the same contract the counter fast paths carry.
* ``ratelimit_admit_obs`` — the same loop with observability enabled:
  the honest price of corr stamping + syncpoint seams, recorded but not
  gated (it is allowed to cost).

The limiter's latency under open-loop load is measured from outside the
package by ``perfbench``'s ``quota_local`` and ``quota_wire`` workloads.

Every run appends one line to ``BENCH_load_ops.history.jsonl`` (keyed by
git SHA and timestamp) in addition to overwriting the latest snapshot,
and ``--compare-to BASELINE.json`` turns the run into a regression gate.
The CLI, the entry shape and the gate are :mod:`repro.bench.runner`'s::

    PYTHONPATH=src python -m repro.bench.load_ops [--quick] [--out PATH]
        [--compare-to BASELINE.json] [--gate SERIES=TOL] ...

``--quick`` shrinks every size so a CI smoke run finishes in seconds.
"""

from __future__ import annotations

from repro.apps.ratelimit import RateLimiter
from repro.bench import runner
from repro.bench.runner import entry, ratio
from repro.bench.timing import Timing, measure

__all__ = ["run_load_ops", "render", "main"]

#: Series the --compare-to regression gate inspects.  Only the
#: obs-disabled admit path is gated: it is the zero-cost-when-off
#: contract extended to the application layer.  The enabled series is
#: trajectory data, not a gate.
GATED_SERIES = ("ratelimit_admit",)


def _sizes(quick: bool) -> dict:
    if quick:
        return {"admit_ops": 2_000, "repeats": 2}
    return {"admit_ops": 50_000, "repeats": 5}


def _bench_admit(ops: int, repeats: int) -> Timing:
    """Hot try_acquire loop on the always-admit path, one key.

    The limit is far above what the loop can consume inside one window,
    so every call takes the admit branch — the decision fast path whose
    obs-disabled cost the CI gate pins.  A fresh limiter per sample
    keeps the marks deque from carrying across repeats.
    """
    r = range(ops)

    def run() -> None:
        limiter = RateLimiter(10 * ops, 60.0, name="bench-admit")
        try:
            try_acquire = limiter.try_acquire
            for _ in r:
                try_acquire("user0")
        finally:
            limiter.close()

    return measure(run, repeats=repeats, warmup=1)


def run_load_ops(*, quick: bool = False) -> dict:
    """Run every series and return the JSON-ready result document."""
    import repro.obs as obs

    sizes = _sizes(quick)
    repeats = sizes["repeats"]
    series: dict = {}

    obs.disable()  # belt and braces: never inherit ambient enablement
    series["ratelimit_admit"] = {
        "local": entry(sizes["admit_ops"], _bench_admit(sizes["admit_ops"], repeats))
    }
    obs.enable()
    try:
        series["ratelimit_admit_obs"] = {
            "local": entry(sizes["admit_ops"], _bench_admit(sizes["admit_ops"], repeats))
        }
    finally:
        obs.disable()

    admit_off = series["ratelimit_admit"]["local"]["ops_per_sec"]
    admit_on = series["ratelimit_admit_obs"]["local"]["ops_per_sec"]
    return runner.document(
        "load_ops",
        quick=quick,
        config=sizes,
        series=series,
        derived={
            # The obs-enabled tax on the admit path (well below 1.0):
            # reported, not gated.  What stays free is the disabled path,
            # which CI pins at 2% against the merge-base.
            "admit_obs_enabled_vs_disabled": ratio(admit_on, admit_off),
        },
    )


def render(doc: dict) -> list[str]:
    """The derived line printed under the admit tables."""
    tax = doc["derived"]["admit_obs_enabled_vs_disabled"]
    return [f"admit path obs enabled vs disabled: {tax:.2f}x"]


def main(argv: list[str] | None = None) -> int:
    return runner.main(
        argv,
        bench="load_ops",
        run=run_load_ops,
        render=render,
        gated=GATED_SERIES,
        description=__doc__.splitlines()[0],
    )


if __name__ == "__main__":
    raise SystemExit(main())

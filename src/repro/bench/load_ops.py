"""Load-ops harness: quota-service admit throughput and capacity table.

The benchmark half of the tail-attribution pipeline.  Runs the
counter-backed rate limiter (:mod:`repro.apps.ratelimit`) under the
open-loop generator (:mod:`repro.obs.load`) and writes
``BENCH_load_ops.json`` so successive PRs accumulate a recorded
trajectory, mirroring :mod:`repro.bench.counter_ops`:

* ``ratelimit_admit`` — obs-disabled ``try_acquire`` on the always-admit
  path (huge limit, one key): the hot decision loop the observability
  layer must not tax.  This is the **gated** series — CI pins it against
  the merge-base at 2%, the same contract the counter fast paths carry.
* ``ratelimit_admit_obs`` — the same loop with observability enabled:
  the honest price of corr stamping + syncpoint seams, recorded but not
  gated (it is allowed to cost).
* ``capacity`` — an offered-rate sweep of open-loop runs against a
  realistically-sized limiter: each step records achieved rate,
  admit rate, and exact p50/p99/p999 latency from intended send time.
  The derived ``capacity_knee`` is the highest offered rate the service
  still tracks (achieved ≥ 90% of offered) — the number the
  EXPERIMENTS capacity table plots.

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
from repro.bench.tables import Table
from repro.bench.timing import Timing, measure
from repro.obs.load import run_load

__all__ = ["run_load_ops", "render", "main"]

#: Series the --compare-to regression gate inspects.  Only the
#: obs-disabled admit path is gated: it is the zero-cost-when-off
#: contract extended to the application layer.  The enabled series and
#: the capacity sweep are trajectory data, not gates.
GATED_SERIES = ("ratelimit_admit",)


def _sizes(quick: bool) -> dict:
    if quick:
        return {
            "admit_ops": 2_000,
            "capacity_rates": [40, 120],
            "capacity_duration": 0.4,
            "capacity_limit": 20,
            "capacity_window": 0.25,
            "capacity_keys": 2,
            "capacity_workers": 4,
            "repeats": 2,
        }
    return {
        "admit_ops": 50_000,
        "capacity_rates": [100, 300, 1_000, 3_000],
        "capacity_duration": 2.0,
        "capacity_limit": 200,
        "capacity_window": 0.5,
        "capacity_keys": 4,
        "capacity_workers": 8,
        "repeats": 5,
    }


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


def _bench_capacity_step(rate: float, sizes: dict) -> dict:
    """One offered-rate step of the capacity sweep (obs off)."""
    limiter = RateLimiter(
        sizes["capacity_limit"],
        sizes["capacity_window"],
        name="bench-capacity",
        roll_interval=sizes["capacity_window"] / 8,
    )
    try:
        with limiter:  # background roller retires windows during the run
            result = run_load(
                limiter,
                rate=rate,
                duration=sizes["capacity_duration"],
                seed=0,
                keys=tuple(f"user{i}" for i in range(sizes["capacity_keys"])),
                mode="open",
                workers=sizes["capacity_workers"],
                timeout=sizes["capacity_window"],
            )
    finally:
        limiter.close()
    return {
        "offered": rate,
        "achieved": round(result.achieved_rate, 3),
        "requests": len(result.records),
        "admit_rate": round(result.admit_rate, 4),
        "p50": result.percentile(0.50),
        "p99": result.percentile(0.99),
        "p999": result.percentile(0.999),
    }


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

    series["capacity"] = [
        _bench_capacity_step(rate, sizes) for rate in sizes["capacity_rates"]
    ]

    admit_off = series["ratelimit_admit"]["local"]["ops_per_sec"]
    admit_on = series["ratelimit_admit_obs"]["local"]["ops_per_sec"]
    knee = None
    for step in series["capacity"]:
        if step["offered"] and step["achieved"] >= 0.9 * step["offered"]:
            knee = step["offered"]
    return runner.document(
        "load_ops",
        quick=quick,
        config=sizes,
        series=series,
        derived={
            # ~1.0 by construction: with obs disabled the admit path has
            # no hooks, only dormant syncpoint seams.
            "admit_obs_enabled_vs_disabled": ratio(admit_on, admit_off),
            # Highest offered rate the service still tracks (achieved ≥
            # 90% of offered) — None when even the first step saturates.
            "capacity_knee": knee,
        },
    )


def render(doc: dict) -> list[str]:
    """The capacity table and derived lines printed under the admit tables."""
    capacity = Table(
        "load_ops/capacity (open loop, latency from intended send)",
        ["offered/s", "achieved/s", "admit", "p50 s", "p99 s", "p999 s"],
    )
    for step in doc["series"]["capacity"]:
        capacity.add_row(
            step["offered"], step["achieved"], step["admit_rate"],
            step["p50"], step["p99"], step["p999"],
        )
    tax = doc["derived"]["admit_obs_enabled_vs_disabled"]
    knee = doc["derived"]["capacity_knee"]
    return [
        capacity.render(),
        f"admit path obs enabled vs disabled: {tax:.2f}x",
        "capacity knee (achieved >= 90% of offered): "
        f"{knee if knee is not None else 'below first step'}",
    ]


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

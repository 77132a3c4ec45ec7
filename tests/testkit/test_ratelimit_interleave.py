"""The rate limiter under adversarial schedules.

Two invariants carry the quota service:

* **never over quota** — however admits, opportunistic rolls, and
  explicit rolls interleave, a key's window estimate never exceeds the
  limit, because every decision reads both counters under the entry
  lock and ``retired`` is always a sample from at least one window ago.
* **eviction never orphans a live acquirer** — an entry is pinned from
  ``_touch`` until the decision (and through the park on reject), so
  the LRU sweep can never close counters a thread is about to decide
  on or is parked on.  Without the pin, a key could be evicted and
  re-created mid-acquire, splitting the window estimate across two
  counter pairs — over quota.
* **eviction never forgets an admit** — an evicted entry's in-window
  residue seeds the key's next entry, so evict → re-create → admit sees
  the same window estimate as if the key had never left.
"""

from __future__ import annotations

from repro.apps.ratelimit import RateLimiter
from repro.testkit import interleave, probe, run_script, run_thread, until


def fixed_clock(value: float = 0.0):
    def clock() -> float:
        return clock.now

    clock.now = value
    return clock


@interleave(schedules=12)
def test_never_admits_over_quota(sched):
    """All threads race try_acquire on one key, limit below the thread
    count: exactly ``limit`` admits, whatever the schedule."""
    clock = fixed_clock()
    limiter = RateLimiter(2, 1.0, clock=clock)
    results = {}

    def worker(name):
        results[name] = limiter.try_acquire("k")

    for i in range(sched.threads):
        sched.spawn(f"t{i}", worker, f"t{i}")
    sched.run()
    assert sum(results.values()) == 2
    snap = limiter.snapshot()["k"]
    assert snap["admitted"] == 2
    assert snap["in_window"] <= limiter.limit
    assert snap["pins"] == 0


@interleave(schedules=10, scheduler="pct")
def test_rolls_racing_admits_stay_under_quota(sched):
    """Admits interleaved with explicit rolls at a later clock: rolls may
    free quota mid-race, but the estimate never exceeds the limit and
    every window holds at most ``limit`` admissions."""
    clock = fixed_clock()
    limiter = RateLimiter(2, 1.0, roll_interval=1000.0, clock=clock)
    results = []

    def acquirer():
        results.append(limiter.try_acquire("k"))

    def roller():
        # A roll from a future instant: everything marked so far ages out.
        limiter.roll("k", now=clock.now + 5.0)

    for i in range(sched.threads - 1):
        sched.spawn(f"a{i}", acquirer)
    sched.spawn("roll", roller)
    sched.run()
    snap = limiter.snapshot().get("k")
    if snap is not None:
        assert snap["in_window"] <= limiter.limit
        assert snap["pins"] == 0
    # The roll retires at most what was admitted before it sampled, so
    # even with freed quota the admit count stays within two windows.
    assert sum(results) <= 2 * limiter.limit


@interleave(schedules=10)
def test_eviction_pressure_never_orphans_a_key(sched):
    """try_acquire over more keys than max_keys, every schedule: each
    key's quota holds and no thread ever decides against a re-created
    counter pair (which would show up as an over-limit window)."""
    clock = fixed_clock()
    limiter = RateLimiter(1, 1.0, max_keys=2, clock=clock)
    keys = [f"k{i % 3}" for i in range(sched.threads)]
    results = []

    def worker(key):
        results.append((key, limiter.try_acquire(key)))

    for i, key in enumerate(keys):
        sched.spawn(f"t{i}", worker, key)
    sched.run()
    for snap in limiter.snapshot().values():
        assert snap["in_window"] <= limiter.limit
        assert snap["pins"] == 0
    # Per key, at most one admit can have landed on any single counter
    # pair; an orphaned-entry split would allow two.
    for key in set(keys):
        admitted = sum(ok for k, ok in results if k == key)
        assert admitted <= limiter.limit, f"{key} over-admitted: {results}"


@interleave(schedules=8)
def test_parked_waiter_survives_eviction_pressure(sched):
    """A blocked acquirer parked on a full key, LRU churn from other
    keys, and the roll that frees it: the waiter must always be woken
    (an eviction pulling its counters would strand it — the harness
    reports that as a deadlock)."""
    limiter = RateLimiter(1, 1.0, max_keys=2,
                          roll_interval=1000.0, clock=fixed_clock())
    assert limiter.try_acquire("a")  # fill the quota before the race
    results = {}

    def waiter():
        results["a"] = limiter.acquire("a")

    def churn(key):
        results[key] = limiter.try_acquire(key)

    def releaser():
        limiter.roll("a", now=5.0)

    sched.spawn("wait", waiter)
    sched.spawn("churn-b", churn, "b")
    sched.spawn("churn-c", churn, "c")
    sched.spawn("roll", releaser)
    sched.run()
    assert results["a"] is True
    assert "a" in limiter.keys()
    assert limiter.snapshot()["a"]["pins"] == 0


def test_scripted_pin_blocks_eviction_at_the_decision_gate():
    """The pin protocol, pinned as one exact interleaving: a thread
    paused at the admission gate (touched, not yet decided) while
    another floods the LRU — the sweep must skip the pinned entry, and
    the paused thread's admit must land on the original counters."""
    limiter = RateLimiter(1, 1.0, max_keys=1, clock=fixed_clock())

    controller = run_script(
        [
            until("t1", "ratelimit.lock"),      # touched "a": pin held
            probe(lambda c: _assert_pinned(limiter, "a")),
            run_thread("flood", expect="done"),  # touches "b": sweep runs
            probe(lambda c: _assert_survived(limiter, "a")),
            run_thread("t1", expect="done"),     # decides on the live entry
        ],
        {
            "t1": (limiter.try_acquire, "a"),
            "flood": (limiter.try_acquire, "b"),
        },
    )
    points = {step.point for step in controller.trace}
    assert "ratelimit.lock" in points
    snap = limiter.snapshot()["a"]
    assert snap["admitted"] == 1 and snap["pins"] == 0


def _assert_pinned(limiter, key):
    assert limiter._entries[key].pins == 1, "touch did not pin the entry"


def _assert_survived(limiter, key):
    assert key in limiter._entries, "eviction swept a pinned entry"


def test_scripted_evict_recreate_admit_stays_within_limit():
    """Eviction carries a key's in-window admits: ``a`` admits, a flood
    evicts it at the sweep gate, and the re-created ``a`` must still see
    its full window and reject, whatever the LRU did in between."""
    limiter = RateLimiter(1, 1.0, max_keys=1, clock=fixed_clock())
    results = {}

    def acquire(label, key):
        results[label] = limiter.try_acquire(key)

    run_script(
        [
            run_thread("first", expect="done"),      # "a" admits its limit
            until("flood", "ratelimit.evict"),       # sweep picked "a"
            probe(lambda c: _assert_survived(limiter, "a")),
            run_thread("flood", expect="done"),
            probe(lambda c: _assert_evicted(limiter, "a")),
            run_thread("again", expect="done"),      # re-creates "a"
        ],
        {
            "first": (acquire, "first", "a"),
            "flood": (acquire, "flood", "b"),
            "again": (acquire, "again", "a"),
        },
    )
    assert results == {"first": True, "flood": True, "again": False}
    assert limiter.evictions == 2
    assert limiter.in_window("a") == limiter.limit


def _assert_evicted(limiter, key):
    assert key not in limiter.keys(), "the sweep did not evict the entry"

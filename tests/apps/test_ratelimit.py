"""The counter-backed sliding-window rate limiter (local backend).

The property everything else leans on: ``admitted - retired`` is an
over-estimate of the true in-window count (``retired`` is an admitted
sample from at least one window ago), so admit-iff-under-limit can never
over-admit — stale marks err toward rejecting.  Schedule-exhaustive
coverage of the same invariants lives in
``tests/testkit/test_ratelimit_interleave.py``.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
import threading
import time
from collections import deque

import pytest

from repro.apps.ratelimit import LocalBackend, RateLimiter
from tests.helpers import join_all, spawn, wait_until


NAN, INF = float("nan"), float("inf")


def fixed_clock(value: float = 0.0):
    """A settable clock: ``clock.now = t`` moves time."""

    def clock() -> float:
        return clock.now

    clock.now = value
    return clock


class TestConstruction:
    @pytest.mark.parametrize("limit", [0, -1, True, 1.5, "3"])
    def test_limit_must_be_positive_int(self, limit):
        with pytest.raises(ValueError):
            RateLimiter(limit, 1.0)

    @pytest.mark.parametrize("window", [0, -0.5, NAN, INF, True, "1"])
    def test_window_must_be_positive(self, window):
        with pytest.raises(ValueError):
            RateLimiter(5, window)

    @pytest.mark.parametrize("interval", [0, -1.0, NAN, INF])
    def test_roll_interval_must_be_finite_and_positive(self, interval):
        with pytest.raises(ValueError):
            RateLimiter(5, 1.0, roll_interval=interval)

    def test_max_keys_must_be_positive(self):
        with pytest.raises(ValueError):
            RateLimiter(5, 1.0, max_keys=0)

    @pytest.mark.parametrize("max_keys", [1.5, True, "8"])
    def test_max_keys_must_be_an_int(self, max_keys):
        with pytest.raises(ValueError):
            RateLimiter(5, 1.0, max_keys=max_keys)

    def test_roll_interval_defaults_to_an_eighth_of_the_window(self):
        assert RateLimiter(5, 8.0).roll_interval == pytest.approx(1.0)

    def test_repr_names_the_quota(self):
        text = repr(RateLimiter(5, 2.0, name="api"))
        assert "api" in text and "5" in text


class TestAdmission:
    def test_burst_admits_exactly_the_limit(self):
        clock = fixed_clock()
        limiter = RateLimiter(5, 1.0, clock=clock)
        grants = [limiter.try_acquire("u") for _ in range(12)]
        assert sum(grants) == 5
        assert grants[:5] == [True] * 5  # FIFO within the burst
        assert limiter.in_window("u") == 5

    def test_keys_are_independent(self):
        clock = fixed_clock()
        limiter = RateLimiter(2, 1.0, clock=clock)
        assert [limiter.try_acquire("a") for _ in range(3)] == [True, True, False]
        assert [limiter.try_acquire("b") for _ in range(3)] == [True, True, False]

    def test_unknown_key_has_empty_window(self):
        assert RateLimiter(5, 1.0).in_window("ghost") == 0

    def test_stale_marks_reject_rather_than_over_admit(self):
        # Time passes but nothing rolls: the estimate stays pinned at the
        # limit and admission keeps refusing — the conservative failure
        # mode the stability argument promises.
        clock = fixed_clock()
        limiter = RateLimiter(3, 1.0, roll_interval=1000.0, clock=clock)
        for _ in range(3):
            assert limiter.try_acquire("u")
        clock.now = 50.0  # far past the window, but no roll ran
        assert not limiter.try_acquire("u")
        assert limiter.in_window("u") == 3

    def test_roll_frees_quota_after_the_window(self):
        clock = fixed_clock()
        limiter = RateLimiter(2, 1.0, roll_interval=1000.0, clock=clock)
        assert limiter.try_acquire("u") and limiter.try_acquire("u")
        assert not limiter.try_acquire("u")
        clock.now = 0.5
        limiter.roll("u")  # mid-window: admissions still young, nothing retires
        assert not limiter.try_acquire("u")
        clock.now = 1.6
        limiter.roll("u")  # the t=0 sample is now a window old
        assert limiter.try_acquire("u")

    def test_opportunistic_roll_on_admit(self):
        # No explicit roll call: the decision path itself rolls once
        # roll_interval has elapsed.
        clock = fixed_clock()
        limiter = RateLimiter(2, 1.0, roll_interval=0.25, clock=clock)
        assert limiter.try_acquire("u") and limiter.try_acquire("u")
        clock.now = 2.0
        assert limiter.try_acquire("u")

    def test_marks_stay_bounded_across_many_rolls(self):
        clock = fixed_clock()
        limiter = RateLimiter(1000, 1.0, roll_interval=1000.0, clock=clock)
        for i in range(200):
            clock.now = i * 0.1
            limiter.try_acquire("u")
            limiter.roll("u")
        assert limiter.snapshot()["u"]["marks"] < 20

    def test_snapshot_shape_and_pin_hygiene(self):
        limiter = RateLimiter(2, 60.0)
        limiter.try_acquire("u")
        for _ in range(3):
            limiter.try_acquire("u")
        snap = limiter.snapshot()["u"]
        assert snap["admitted"] == 2
        assert snap["retired"] == 0
        assert snap["in_window"] == 2
        assert snap["pins"] == 0  # every touch's pin was paid back


class TestBlockingAcquire:
    def test_timeout_returns_false(self):
        limiter = RateLimiter(1, 60.0)
        assert limiter.acquire("u")
        t0 = time.monotonic()
        assert limiter.acquire("u", timeout=0.1) is False
        assert time.monotonic() - t0 < 5.0
        assert limiter.snapshot()["u"]["pins"] == 0

    def test_zero_budget_timeout_never_parks(self):
        limiter = RateLimiter(1, 60.0)
        assert limiter.acquire("u")
        assert limiter.acquire("u", timeout=0.0) is False

    def test_blocked_acquire_wakes_on_roll(self):
        limiter = RateLimiter(1, 0.25, roll_interval=1000.0)
        assert limiter.try_acquire("u")
        got = []
        waiter = spawn(lambda: got.append(limiter.acquire("u", timeout=10.0)))
        wait_until(lambda: limiter.snapshot()["u"]["pins"] > 0)
        time.sleep(0.3)  # let the admission age past the window
        limiter.roll("u")
        join_all([waiter])
        assert got == [True]

    def test_roller_context_frees_quota_continuously(self):
        limiter = RateLimiter(2, 0.1, roll_interval=0.02)
        admitted = 0
        with limiter:
            deadline = time.monotonic() + 0.6
            while time.monotonic() < deadline:
                if limiter.acquire("u", timeout=0.5):
                    admitted += 1
        # Strictly more than one window's worth proves rolls recycled
        # quota; the exact count is schedule noise.
        assert admitted > 2
        assert limiter.in_window("u") <= 2

    def test_start_roller_twice_is_an_error(self):
        limiter = RateLimiter(1, 1.0)
        with limiter:
            with pytest.raises(RuntimeError):
                limiter.start_roller()


class _AfterRelease:
    """A lock that calls ``hook`` once, right after its first release."""

    def __init__(self, lock, hook) -> None:
        self._lock = lock
        self._hook = hook

    def __enter__(self):
        self._lock.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self._lock.release()
        hook, self._hook = self._hook, None
        if hook is not None:
            hook()


#: sha256 of the Zipf replay's decision sequence (one byte per call).
REPLAY_DIGESTS = {
    1: "82883f5db30998837d08310008d6c98a4e1ecf02d445442d2528635405259477",
    2: "e9abcb1880cfd951f30fc19630361526f63a6f38999e58510fc0ad383492e7d7",
}


class TestLru:
    def test_eviction_is_oldest_first_and_counted(self):
        limiter = RateLimiter(2, 1.0, max_keys=2)
        for key in "abcd":
            limiter.try_acquire(key)
        assert limiter.evictions == 2
        assert limiter.keys() == ["c", "d"]

    def test_touch_refreshes_recency(self):
        limiter = RateLimiter(2, 1.0, max_keys=2)
        limiter.try_acquire("a")
        limiter.try_acquire("b")
        limiter.try_acquire("a")  # "b" is now the LRU victim
        limiter.try_acquire("c")
        assert limiter.keys() == ["a", "c"]

    def test_eviction_skips_entries_with_parked_waiters(self):
        limiter = RateLimiter(1, 60.0, max_keys=2, roll_interval=1000.0)
        assert limiter.try_acquire("a")
        got = []
        waiter = spawn(lambda: got.append(limiter.acquire("a", timeout=20.0)))
        wait_until(
            lambda: bool(limiter._entries["a"].retired.snapshot().nodes)
        )
        limiter.try_acquire("b")
        limiter.try_acquire("c")  # over budget: sweep must skip busy "a"
        assert "a" in limiter.keys()
        # Free the waiter by force-rolling far in the future.
        limiter.roll("a", now=time.monotonic() + 120.0)
        join_all([waiter])
        assert got == [True]

    def test_eviction_never_over_admits(self):
        # Three keys over two slots: every call evicts the key that
        # admitted 20 ms earlier, so each re-created entry must start
        # from its evicted residue, not an empty window.  The exact
        # oracle: per key, at most ``limit`` admits inside any window_s.
        clock = fixed_clock()
        limiter = RateLimiter(1, 1.0, max_keys=2, clock=clock)
        admits: dict[str, list[float]] = {}
        for i in range(9):
            clock.now = i * 0.01
            key = "abc"[i % 3]
            if limiter.try_acquire(key):
                admits.setdefault(key, []).append(clock.now)
        for key, times in admits.items():
            for t in times:
                in_window = [u for u in times if t <= u < t + limiter.window_s]
                assert len(in_window) <= limiter.limit, (key, times)

    def test_pinned_front_is_skipped_and_keeps_its_place(self):
        limiter = RateLimiter(1, 60.0, max_keys=3, roll_interval=1000.0)
        assert limiter.try_acquire("a")
        got = []
        waiter = spawn(lambda: got.append(limiter.acquire("a", timeout=20.0)))
        wait_until(lambda: limiter.snapshot()["a"]["pins"] > 0)
        limiter.try_acquire("b")
        limiter.try_acquire("c")
        assert limiter.keys() == ["a", "b", "c"]
        limiter.try_acquire("d")  # "a" is the LRU front but pinned
        assert limiter.keys() == ["a", "c", "d"]
        assert limiter.evictions == 1
        limiter.roll("a", now=time.monotonic() + 120.0)
        join_all([waiter])
        assert got == [True]

    def test_evicted_key_resumes_from_its_residue(self):
        clock = fixed_clock()
        limiter = RateLimiter(2, 1.0, max_keys=1, clock=clock)
        assert limiter.try_acquire("a") and limiter.try_acquire("a")
        clock.now = 0.1
        assert limiter.try_acquire("b")  # evicts "a" with two live admits
        clock.now = 0.2
        assert not limiter.try_acquire("a")  # evicts "b"; "a" is still full
        assert limiter.in_window("a") == 2
        clock.now = 1.05
        assert limiter.try_acquire("a")  # the t=0 admits have aged out

    def test_evicted_key_reads_its_residue(self):
        clock = fixed_clock()
        limiter = RateLimiter(1, 1.0, max_keys=1, clock=clock)
        assert limiter.try_acquire("a")
        clock.now = 0.1
        assert limiter.try_acquire("b")  # evicts "a" with one live admit
        assert limiter.keys() == ["b"]
        assert limiter.in_window("a") == 1
        assert limiter.snapshot()["a"] == {
            "admitted": 1, "retired": 0, "in_window": 1, "marks": 1,
            "pins": 0, "evicted": True}
        # Reading rolled a copy: the stored window, and so the decision
        # the key comes back to, are unchanged.
        assert limiter.in_window("a") == 1
        assert not limiter.try_acquire("a")
        assert "evicted" not in limiter.snapshot()["a"]
        assert limiter.in_window("b") == 1  # evicted by "a" in turn
        clock.now = 1.15  # b's t=0.1 admit has aged out of its residue
        assert limiter.in_window("b") == 0
        assert "b" not in limiter.snapshot()

    def test_roll_holding_an_evicted_entry_leaves_its_window_alone(self):
        # roll() lists the live entries, and before it reaches "a" an
        # eviction stores a's window.  The roll then runs on the dead
        # entry; the re-created "a" must start from the same window as
        # on a twin limiter where no roll raced the eviction.
        def run(race_a_roll: bool) -> tuple[list, list]:
            clock = fixed_clock()
            limiter = RateLimiter(2, 1.0, max_keys=1, clock=clock)
            assert limiter.try_acquire("a") and limiter.try_acquire("a")
            clock.now = 0.1
            if race_a_roll:
                limiter._entries_lock = _AfterRelease(
                    limiter._entries_lock, lambda: limiter.try_acquire("b"))
                limiter.roll(now=5.0)
            else:
                limiter.try_acquire("b")
            assert limiter.keys() == ["b"]
            clock.now = 0.2
            decisions = [limiter.try_acquire("a")]
            marks = list(limiter._entries["a"].marks)
            for now in (0.5, 1.05):
                clock.now = now
                decisions.append(limiter.try_acquire("a"))
            return decisions, marks

        assert run(race_a_roll=True) == run(race_a_roll=False)
        assert run(race_a_roll=False)[0] == [False, False, True]

    def test_residue_expires_after_one_window(self):
        clock = fixed_clock()
        limiter = RateLimiter(5, 1.0, max_keys=1, clock=clock)
        limiter.try_acquire("a")
        clock.now = 0.1
        limiter.try_acquire("b")  # evicts "a": residue kept
        assert list(limiter._residue) == ["a"]
        clock.now = 0.9
        limiter.try_acquire("c")  # evicts "b"; "a" left 0.8 s ago: kept
        assert list(limiter._residue) == ["a", "b"]
        clock.now = 1.15
        limiter.try_acquire("d")  # "a" evicted >= one window ago: dropped
        assert list(limiter._residue) == ["b", "c"]
        limiter.close()
        assert not limiter._residue

    @pytest.mark.parametrize("seed", [1, 2])
    def test_zipf_replay_under_eviction_never_over_admits(self, seed):
        # Poisson arrivals over 8x more keys than LRU slots, so evicted
        # keys come back while their admits are still in the window.
        # The oracle counts admits per key in every (t - window, t].
        # The sha256 of the decision sequence pins every decision: an
        # eviction or residue change that flips one fails here.
        rate, seconds, nkeys = 4000.0, 10.0, 2048
        rng = random.Random(seed)
        cum = list(itertools.accumulate(
            1.0 / (rank ** 1.1) for rank in range(1, nkeys + 1)))
        clock = fixed_clock()
        limiter = RateLimiter(10, 1.0, max_keys=256, clock=clock)
        admitted: dict[int, deque] = {}
        allowed: dict[int, deque] = {}
        t = violations = admits = best = 0
        decisions = bytearray()
        while True:
            t += rng.expovariate(rate)
            if t >= seconds:
                break
            key = bisect.bisect(cum, rng.random() * cum[-1])
            clock.now = t
            horizon = t - limiter.window_s
            greedy = allowed.setdefault(key, deque())
            while greedy and greedy[0] <= horizon:
                greedy.popleft()
            if len(greedy) < limiter.limit:
                greedy.append(t)
                best += 1
            ok = limiter.try_acquire(f"k{key}")
            decisions.append(ok)
            if ok:
                admits += 1
                window = admitted.setdefault(key, deque())
                while window and window[0] <= horizon:
                    window.popleft()
                window.append(t)
                violations += len(window) > limiter.limit
        assert limiter.evictions > 5000
        assert violations == 0
        assert admits / best > 0.95
        assert hashlib.sha256(decisions).hexdigest() == REPLAY_DIGESTS[seed]

    def test_close_releases_everything(self):
        limiter = RateLimiter(2, 1.0)
        limiter.try_acquire("a")
        limiter.try_acquire("b")
        limiter.close()
        assert limiter.keys() == []


class TestBackendSurface:
    def test_local_backend_rolls(self):
        assert LocalBackend.rolls is True

    def test_admitted_reads_are_exact(self):
        # Decisions read admitted right after bumping it, under the entry
        # lock: every bump must be visible to the next read.
        backend = LocalBackend()
        counter = backend.admitted("t:x:admitted")
        backend.bump(counter, None)
        backend.bump(counter, None)
        assert backend.admitted_value(counter) == 2

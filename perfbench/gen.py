"""Seeded inputs: open-loop arrival schedules with Zipf key popularity.

Everything here is a pure function of its arguments, so one seed gives
byte-identical inputs on every run (``test_perfbench.py`` checks it).
The program under test only ever sees the generated arrays.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from itertools import accumulate


class Schedule:
    """Arrival times (seconds from the run start) and key indices."""

    __slots__ = ("times", "keys", "nkeys")

    def __init__(self, times: array, keys: array, nkeys: int) -> None:
        self.times = times
        self.keys = keys
        self.nkeys = nkeys

    def __len__(self) -> int:
        return len(self.times)


def poisson_zipf(seed: int, *, rate: float, duration: float, nkeys: int,
                 exponent: float) -> Schedule:
    """Poisson arrivals at ``rate``/s over ``duration`` s; keys Zipf(exponent).

    Key ranks are shuffled onto key indices, so the hottest key's index
    differs per seed while the popularity curve stays the same.
    """
    rng = random.Random(seed)
    cdf = list(accumulate(1.0 / (rank ** exponent) for rank in range(1, nkeys + 1)))
    total = cdf[-1]
    cdf = [c / total for c in cdf]
    ids = list(range(nkeys))
    rng.shuffle(ids)
    times = array("d")
    keys = array("i")
    t = rng.expovariate(rate)
    while t < duration:
        times.append(t)
        keys.append(ids[min(bisect_left(cdf, rng.random()), nkeys - 1)])
        t += rng.expovariate(rate)
    return Schedule(times, keys, nkeys)

"""The engine's wheel-entry claim race, on the exhaustive explorer.

The release-vs-timeout claim was originally pinned as a handful of
scripted schedules.  Here the *whole* schedule space of the race is
enumerated: every inequivalent interleaving, with the exhaustiveness
certificate asserted, so the claim invariants ("exactly one winner",
"no double set") are proven over the space rather than spot-checked.
"""

from __future__ import annotations

import pytest

from repro.core.engine import ParkingSlot, WheelEntry
from repro.testkit import explore_model

pytestmark = pytest.mark.explore

FAST = dict(settle=0.004, stall_timeout=0.008)


def wheel_claim_model():
    """The release pass and the sweeper race for one entry's claim."""
    entry = WheelEntry(ParkingSlot(), deadline=0.0)

    def oracle(controller):
        # Exactly one side won; the slot took exactly one set (a second
        # set would have crashed the loser inside the run).
        assert entry.claimed
        assert entry.why in ("release", "timeout")
        return entry.why

    return {
        "rel": entry.release_wake,
        "tmo": entry.fire_timeout,
    }, oracle


def test_wheel_release_vs_timeout_exhaustive():
    report = explore_model(wheel_claim_model, **FAST)
    report.check()
    assert "EXHAUSTIVE" in report.certificate
    # The claim race is the whole model: each side can win.
    assert report.states == {"release", "timeout"}
    # Two workers, two gates each, total dependence on the entry: the
    # space is exactly the two claim orders.
    assert report.schedules == 2

"""Unit tests for the DPOR substrate: dependence, clocks, races, keys."""

from __future__ import annotations

from repro.testkit.por import (
    GrantEvent,
    ObjLabeler,
    annotate,
    canonical_key,
    conflicts,
    family_of,
    footprints_conflict,
    happens_before_clocks,
    racing_pairs,
)


def ev(index, thread, point, label=None):
    return GrantEvent(index, thread, point, family_of(point, label))


class TestDependence:
    def test_object_scoped_points_conflict_only_on_same_object(self):
        assert conflicts(ev(0, "a", "increment.lock", "o0"), ev(1, "b", "check.lock", "o0"))
        assert not conflicts(ev(0, "a", "increment.lock", "o0"), ev(1, "b", "check.lock", "o1"))

    def test_same_thread_always_conflicts(self):
        assert conflicts(ev(0, "a", "start"), ev(1, "a", "start"))
        assert conflicts(ev(0, "a", "park.enter", "o0"), ev(1, "a", "park.enter", "o0"))

    def test_wildcard_points_conflict_with_everything(self):
        node_signal = ev(0, "a", "node.signal")
        assert node_signal.family is None
        assert conflicts(node_signal, ev(1, "b", "increment.lock", "o0"))
        assert conflicts(node_signal, ev(1, "b", "park.enter", "o0"))

    def test_start_segments_commute_with_each_other(self):
        assert not conflicts(ev(0, "a", "start"), ev(1, "b", "start"))

    def test_start_commutes_with_value_preserving_segments(self):
        # check.lock / park.* never publish a counter value, so a
        # pre-first-gate read cannot observe them.
        assert not conflicts(ev(0, "a", "start"), ev(1, "b", "check.lock", "o0"))
        assert not conflicts(ev(0, "a", "start"), ev(1, "b", "park.drain", "o0"))

    def test_start_ordered_against_value_publication(self):
        assert conflicts(ev(0, "a", "start"), ev(1, "b", "increment.lock", "o0"))
        assert conflicts(ev(0, "a", "start"), ev(1, "b", "node.signal"))

    def test_park_enter_is_thread_local(self):
        park = ev(0, "a", "park.enter", "o0")
        # Two threads parking their own slots commute; parking commutes
        # with the increment's critical section on the same counter...
        assert not conflicts(park, ev(1, "b", "park.enter", "o0"))
        assert not conflicts(park, ev(1, "b", "increment.release", "o0"))
        assert not conflicts(park, ev(1, "b", "check.lock", "o0"))
        # ...but stays ordered against wake delivery (wildcard).
        assert conflicts(park, ev(1, "b", "node.signal"))

    def test_symmetric_points_commute_across_threads(self):
        assert not conflicts(ev(0, "a", "check.lock", "o0"), ev(1, "b", "check.lock", "o0"))
        assert not conflicts(ev(0, "a", "park.drain", "o0"), ev(1, "b", "park.drain", "o0"))
        # Symmetry is per-point: mixed pairs keep the family conflict.
        assert conflicts(ev(0, "a", "check.lock", "o0"), ev(1, "b", "park.drain", "o0"))

    def test_footprints_conflict_mirrors_event_dependence(self):
        assert footprints_conflict(("increment.lock", "o0"), ("check.lock", "o0"))
        assert not footprints_conflict(("increment.lock", "o0"), ("park.enter", "o0"))
        assert not footprints_conflict(("start", None), ("start", None))
        assert footprints_conflict(("wheel.release", "o0"), ("wheel.timeout", "o0"))
        assert not footprints_conflict(("wheel.release", "o0"), ("wheel.timeout", "o1"))


class TestObjLabeler:
    def test_labels_by_first_sighting(self):
        labeler = ObjLabeler()
        a, b = object(), object()
        assert labeler.label(a) == "o0"
        assert labeler.label(b) == "o1"
        assert labeler.label(a) == "o0"
        assert labeler.label(None) is None

    def test_id_reuse_cannot_alias(self):
        labeler = ObjLabeler()
        for i in range(64):
            labeler.label(object())  # would recycle ids without the keep-list
        assert len({labeler.label(obj) for obj in labeler._keep}) == 64


class _Step:
    def __init__(self, thread, point, obj=None):
        self.thread, self.point, self.obj = thread, point, obj


class TestClocksAndRaces:
    def test_annotate_labels_objects(self):
        counter = object()
        events = annotate(
            [_Step("a", "start"), _Step("a", "increment.lock", counter)]
        )
        assert events[0].family is None
        assert events[1].family == ("obj", "o0")

    def test_happens_before_orders_dependent_chain(self):
        events = [
            ev(0, "a", "increment.lock", "o0"),
            ev(1, "b", "check.lock", "o0"),
        ]
        clocks = happens_before_clocks(events)
        assert clocks[0].happens_before(clocks[1])

    def test_independent_grants_stay_concurrent(self):
        events = [
            ev(0, "a", "increment.lock", "o0"),
            ev(1, "b", "increment.lock", "o1"),
        ]
        clocks = happens_before_clocks(events)
        assert clocks[0].concurrent_with(clocks[1])

    def test_racing_pairs_finds_adjacent_reversals(self):
        events = [
            ev(0, "a", "increment.lock", "o0"),
            ev(1, "b", "check.lock", "o0"),
        ]
        assert racing_pairs(events) == [(0, 1)]

    def test_transitively_ordered_pair_is_not_a_race(self):
        # a -> b (same obj), b -> c (same obj): a -> c is implied, so
        # reversing (a, c) alone is not a schedulable choice.
        events = [
            ev(0, "a", "increment.lock", "o0"),
            ev(1, "b", "increment.lock", "o0"),
            ev(2, "c", "increment.lock", "o0"),
        ]
        assert (0, 2) not in racing_pairs(events)
        assert (0, 1) in racing_pairs(events)
        assert (1, 2) in racing_pairs(events)


class TestCanonicalKey:
    def test_commuting_interleavings_share_a_key(self):
        ab = [ev(0, "a", "increment.lock", "o0"), ev(1, "b", "increment.lock", "o1")]
        ba = [ev(0, "b", "increment.lock", "o1"), ev(1, "a", "increment.lock", "o0")]
        assert canonical_key(ab) == canonical_key(ba)

    def test_dependent_interleavings_differ(self):
        ab = [ev(0, "a", "increment.lock", "o0"), ev(1, "b", "check.lock", "o0")]
        ba = [ev(0, "b", "check.lock", "o0"), ev(1, "a", "increment.lock", "o0")]
        assert canonical_key(ab) != canonical_key(ba)

    def test_key_levels_are_foata_fronts(self):
        events = [
            ev(0, "a", "start"),
            ev(1, "b", "start"),
            ev(2, "a", "increment.lock", "o0"),
        ]
        key = canonical_key(events)
        # Both starts commute into one front; the lock forms the next.
        assert key[0] == (("a", "start"), ("b", "start"))
        assert key[1] == (("a", "increment.lock"),)

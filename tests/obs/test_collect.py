"""The cross-process collector: JSONL rings, clock offsets, merge, fleet.

Everything here is synthetic — events built by hand with known pids and
known clock skews — so the assertions can check *exact* arithmetic: an
injected +0.5s offset must come back as +0.5s, a rebased timestamp must
land where the root clock says it happened, a merged histogram bucket
must be the sum of its inputs.  The live end-to-end paths (a real
service shipping its ring over the wire) are covered in
``tests/dist/test_obs_dist.py``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.obs import fleet
from repro.obs.collect import clock_offsets, load_jsonl, merge, write_jsonl
from repro.obs.events import Event


def ev(ts, kind, pid=None, thread=1, **kw):
    return Event(ts=ts, kind=kind, source=kw.pop("source", "c"),
                 thread=thread, pid=pid, **kw)


def quad(corr, t0, *, requester, responder, offset, rtt=0.002):
    """A full RPC quad where ``responder``'s clock leads by ``offset``.

    True time: send at t0, recv at t0+rtt/2, reply at t0+rtt/2 (instant
    service), reply recv at t0+rtt.  Responder-side stamps carry the
    injected skew.
    """
    return [
        ev(t0, "frame_send", pid=requester, corr=corr, op="get"),
        ev(t0 + rtt / 2 + offset, "frame_recv", pid=responder, corr=corr, op="get"),
        ev(t0 + rtt / 2 + offset, "frame_send", pid=responder, corr=corr, op="ack"),
        ev(t0 + rtt, "frame_recv", pid=requester, corr=corr, op="ack"),
    ]


class TestJsonlRoundTrip:
    def test_write_stamps_this_pid_by_default(self, tmp_path):
        path = str(tmp_path / "ring.jsonl")
        n = write_jsonl([ev(1.0, "increment", seq=3, amount=2, value=2)], path)
        assert n == 1
        (loaded,) = load_jsonl(path)
        assert loaded.pid == os.getpid()
        assert (loaded.seq, loaded.amount, loaded.value) == (3, 2, 2)

    def test_explicit_pid_wins_but_stamped_events_keep_theirs(self, tmp_path):
        path = str(tmp_path / "ring.jsonl")
        write_jsonl(
            [ev(1.0, "park"), ev(2.0, "unpark", pid=777)], path, pid=1234
        )
        unstamped, stamped = load_jsonl(path)
        assert unstamped.pid == 1234
        assert stamped.pid == 777  # relayed ring: origin stamp is kept

    def test_v3_fields_round_trip_and_v2_docs_stay_v2(self, tmp_path):
        path = str(tmp_path / "ring.jsonl")
        write_jsonl(
            [ev(1.0, "frame_send", op="inc", corr="ab-1", seq=9)], path, pid=42
        )
        with open(path, encoding="utf-8") as fh:
            doc = json.loads(fh.read())
        assert (doc["op"], doc["corr"], doc["pid"]) == ("inc", "ab-1", 42)
        # A pre-v3 event's dict form grows no v3 keys at all.
        v2 = ev(1.0, "release", token=5, seq=2, cause_seq=1).as_dict()
        assert not {"pid", "op", "corr"} & v2.keys()
        back = Event.from_dict(v2)
        assert back.pid is None and back.corr is None and back.op is None

    def test_load_accepts_dicts_events_and_blank_lines(self, tmp_path):
        path = str(tmp_path / "ring.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(ev(1.0, "park").as_dict()) + "\n\n")
            fh.write(json.dumps({"ts": 2.0, "kind": "unpark", "source": "c",
                                 "thread": 1, "future_field": True}) + "\n")
        events = load_jsonl(path)
        assert [e.kind for e in events] == ["park", "unpark"]


class TestClockOffsets:
    def test_recovers_an_injected_half_second_skew(self):
        events = []
        for i in range(5):
            events.extend(quad(f"a-{i}", 1.0 + i, requester=10, responder=20,
                               offset=0.5))
        # Root defaults to the pid with the most events: give 10 more.
        events.append(ev(0.5, "park", pid=10))
        offsets = clock_offsets(events)
        assert offsets[10] == 0.0
        assert offsets[20] == pytest.approx(0.5, abs=1e-9)

    def test_offsets_compose_transitively(self):
        # 10 <-> 20 skew +0.5; 20 <-> 30 skew -0.2; 30 never talks to 10,
        # so its offset relative to 10 exists only by composition.
        events = quad("a-1", 1.0, requester=10, responder=20, offset=0.5)
        events += quad("b-1", 3.0, requester=20, responder=30, offset=-0.2)
        offsets = clock_offsets(events, root=10)
        assert offsets[20] == pytest.approx(0.5, abs=1e-9)
        assert offsets[30] == pytest.approx(0.3, abs=1e-9)

    def test_median_rejects_one_outlier_quad(self):
        events = []
        for i in range(4):
            events.extend(quad(f"a-{i}", 1.0 + i, requester=10, responder=20,
                               offset=0.5))
        # One wildly asymmetric exchange (0.9s out, 0.1s back — NTP's
        # irreducible error) skews its sample to 0.9; the median holds.
        events += [
            ev(9.0, "frame_send", pid=10, corr="a-bad", op="get"),
            ev(9.9 + 0.5, "frame_recv", pid=20, corr="a-bad", op="get"),
            ev(9.9 + 0.5, "frame_send", pid=20, corr="a-bad", op="ack"),
            ev(10.0, "frame_recv", pid=10, corr="a-bad", op="ack"),
        ]
        events.append(ev(0.5, "park", pid=10))
        assert clock_offsets(events)[20] == pytest.approx(0.5, abs=1e-9)

    def test_isolated_pid_keeps_offset_zero(self):
        events = quad("a-1", 1.0, requester=10, responder=20, offset=0.5)
        events.append(ev(5.0, "park", pid=99))
        events.append(ev(0.5, "park", pid=10))
        assert clock_offsets(events)[99] == 0.0

    def test_explicit_root_rebases_the_other_side(self):
        events = quad("a-1", 1.0, requester=10, responder=20, offset=0.5)
        offsets = clock_offsets(events, root=20)
        assert offsets[20] == 0.0
        assert offsets[10] == pytest.approx(-0.5, abs=1e-9)

    def test_no_pids_no_offsets(self):
        assert clock_offsets([ev(1.0, "park")]) == {}


class TestMerge:
    def test_overlapping_rings_dedup_by_pid_and_seq(self):
        # A local ring merged with its own fetch_trace echo (same pid,
        # same seqs) must not duplicate events — duplicated park/unpark
        # pairs corrupt causal pairing.
        ring = [
            ev(1.0, "park", pid=10, seq=1, level=1),
            ev(2.0, "increment", pid=10, seq=2, amount=1, value=1),
            ev(2.1, "unpark", pid=10, seq=3, level=1),
        ]
        merged = merge(ring, [e.as_dict() for e in ring])
        assert len(merged) == 3
        assert [e.seq for e in merged] == [1, 2, 3]
        # Distinct pids sharing seq values are NOT duplicates.
        other = [ev(1.5, "park", pid=20, seq=1, level=1)]
        assert len(merge(ring, other)) == 4

    def test_rebases_foreign_timestamps_into_the_root_clock(self):
        wire = quad("a-1", 1.0, requester=10, responder=20, offset=0.5)
        # In pid 20's (skewed) clock this increment reads *after* the
        # requester's reply-recv; rebased it belongs inside the RPC.
        foreign = ev(1.5015, "increment", pid=20, seq=1, amount=1, value=1)
        anchor = ev(0.9, "park", pid=10)
        merged = merge([anchor] + wire + [foreign])
        inc = next(e for e in merged if e.kind == "increment")
        assert inc.ts == pytest.approx(1.0015, abs=1e-9)  # 1.5015 - 0.5
        assert merged.index(inc) < len(merged) - 1

    def test_align_false_keeps_native_timestamps(self):
        wire = quad("a-1", 1.0, requester=10, responder=20, offset=0.5)
        foreign = ev(1.7, "increment", pid=20)
        merged = merge(wire + [foreign], align=False)
        assert merged[-1].ts == 1.7

    def test_orders_by_ts_then_pid_then_seq(self):
        events = [
            ev(1.0, "park", pid=20, seq=2),
            ev(1.0, "park", pid=10, seq=5),
            ev(1.0, "unpark", pid=20, seq=1),
            ev(0.5, "increment", pid=20, seq=9),
        ]
        merged = merge(events, align=False)
        assert [(e.pid, e.seq) for e in merged] == [
            (20, 9), (10, 5), (20, 1), (20, 2)
        ]

    def test_accepts_mixed_rings_of_dicts_and_events(self):
        ring_a = [ev(1.0, "park", pid=10)]
        ring_b = [ev(2.0, "unpark", pid=20).as_dict()]
        merged = merge(ring_a, ring_b)
        assert [e.kind for e in merged] == ["park", "unpark"]
        assert all(isinstance(e, Event) for e in merged)


class TestFleetMerge:
    def test_histograms_add_bucketwise_and_union_bounds(self):
        a = {"count": 3, "sum": 0.3, "buckets": {"0.001": 2, "+Inf": 1}}
        b = {"count": 2, "sum": 0.1, "buckets": {"0.001": 1, "0.01": 1}}
        merged = fleet.merge_histograms(a, b)
        assert merged["count"] == 5
        assert merged["sum"] == pytest.approx(0.4)
        assert merged["buckets"] == {"0.001": 3, "0.01": 1, "+Inf": 1}

    def test_series_sum_tallies_and_max_high_waters(self):
        a = {"increments": 10, "parks": 2, "live_waiters_hw": 3,
             "wait_latency": {"count": 1, "sum": 0.5, "buckets": {"+Inf": 1}}}
        b = {"increments": 5, "parks": 4, "live_waiters_hw": 7,
             "wait_latency": {"count": 2, "sum": 0.2, "buckets": {"+Inf": 2}}}
        merged = fleet.merge_series(a, b)
        assert merged["increments"] == 15
        assert merged["parks"] == 6
        assert merged["live_waiters_hw"] == 7
        assert merged["wait_latency"]["count"] == 3

    def test_snapshots_merge_same_label_series_across_nodes(self):
        node_a = {"series": {"orders": {"increments": 3}},
                  "trace": {"emitted": 10, "dropped": 1},
                  "dropped_series": 1}
        node_b = {"series": {"orders": {"increments": 4},
                             "jobs": {"increments": 1}},
                  "trace": {"emitted": 7, "dropped": 0},
                  "dropped_series": 0}
        merged = fleet.merge_snapshots([node_a, None, node_b])
        assert merged["series"]["orders"]["increments"] == 7
        assert merged["series"]["jobs"]["increments"] == 1
        assert merged["trace"]["emitted"] == 17
        assert merged["dropped_series"] == 1

    def test_render_fleet_liveness_and_cumulative_buckets(self):
        nodes = [
            {"node": "svc-a", "pid": 100, "up": True,
             "snapshot": {"series": {"orders": {
                 "increments": 7,
                 "wait_latency": {"count": 3, "sum": 0.25,
                                  "buckets": {"0.001": 1, "0.01": 1, "+Inf": 1}},
             }}}},
            {"node": "svc-b", "pid": 200, "up": False, "snapshot": None},
        ]
        text = fleet.render_fleet(nodes)
        assert "repro_fleet_nodes 2" in text
        assert 'repro_fleet_node_up{node="svc-a",pid="100"} 1' in text
        assert 'repro_fleet_node_up{node="svc-b",pid="200"} 0' in text
        assert 'repro_counter_increments_total{counter="orders"} 7' in text
        # Prometheus buckets are cumulative: 1, then 1+1, then +Inf total.
        assert 'wait_latency_seconds_bucket{counter="orders",le="0.001"} 1' in text
        assert 'wait_latency_seconds_bucket{counter="orders",le="0.01"} 2' in text
        assert 'wait_latency_seconds_bucket{counter="orders",le="+Inf"} 3' in text
        assert 'wait_latency_seconds_count{counter="orders"} 3' in text

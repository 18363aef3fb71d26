"""Merged fleet timeline: linkage, tracks, snapshot, summary text."""

import json

import pytest

from repro.chaos import ChaosConfig, run_chaos_cluster
from repro.scope import FleetScope
from repro.scope.export import (CHAOS_TRACK, FABRIC_TRACK, REQUESTS_TRACK,
                                dumps_merged_trace, merged_chrome_trace,
                                render_scope_summary, scope_snapshot)
from repro.trace import Tracer
from repro.trace.export import validate_chrome_trace


def observed_run(**config):
    """One fleet run observed end to end: ``(result, tracer, scope)``."""
    tracer, scope = Tracer(), FleetScope()
    result = run_chaos_cluster(ChaosConfig(**config), tracer=tracer,
                               scope=scope)
    return result, tracer, scope


@pytest.fixture(scope="module")
def chaos_run():
    """One 4-replica chaos run observed end to end."""
    return observed_run(replicas=4, requests=32, profile="mayhem", seed=3)


@pytest.fixture(scope="module")
def merged(chaos_run):
    _result, tracer, scope = chaos_run
    return merged_chrome_trace(tracer, scope)


def events_on(doc, pid, phases=None):
    return [e for e in doc["traceEvents"] if e.get("pid") == pid and
            e.get("ph") != "M" and
            (phases is None or e.get("ph") in phases)]


class TestMergedTrace:
    def test_merged_trace_validates(self, merged):
        validate_chrome_trace(merged)

    def test_every_served_request_has_linked_async_span(self, chaos_run,
                                                        merged):
        _result, _tracer, scope = chaos_run
        served = [r for r in scope.records if r.status == "ok"]
        assert served, "fixture run served nothing"
        begins = events_on(merged, REQUESTS_TRACK, {"b"})
        ends = events_on(merged, REQUESTS_TRACK, {"e"})
        begin_ids = {e["id"] for e in begins}
        end_ids = {e["id"] for e in ends}
        for record in served:
            assert str(record.trace_id) in begin_ids
            assert str(record.trace_id) in end_ids

    def test_request_spans_link_to_replica_serve_spans(self, chaos_run,
                                                       merged):
        """Front-end -> fabric -> replica linkage via trace_id."""
        _result, tracer, scope = chaos_run
        served_ids = {r.trace_id for r in scope.records
                      if r.status == "ok"}
        serve_ids = {e.args_dict().get("trace_id")
                     for e in tracer.events
                     if e.name.startswith("serve:") and
                     e.category == "cluster"}
        route_ids = {e.args_dict().get("trace_id")
                     for e in tracer.events
                     if e.name == "route" and e.category == "cluster"}
        hop_ids = {h.trace_id for h in scope.hops
                   if h.trace_id is not None}
        # every served request shows up at all three layers; the only
        # admissible gap is a replica-side serve span whose inbound
        # frame had its trace field mangled by a corrupt fault (the
        # sealed record survives byte flips the JSON envelope doesn't)
        corrupt = [f for f in scope.faults if f.kind == "corrupt"]
        assert len(served_ids - serve_ids) <= len(corrupt)
        assert served_ids <= route_ids
        assert served_ids <= hop_ids

    def test_fabric_hops_are_instants_on_their_track(self, merged,
                                                     chaos_run):
        _result, _tracer, scope = chaos_run
        hops = events_on(merged, FABRIC_TRACK)
        assert all(e["ph"] == "i" for e in hops)
        assert len(hops) == len(scope.hops)

    def test_fault_events_land_on_the_chaos_track(self, merged,
                                                  chaos_run):
        _result, _tracer, scope = chaos_run
        assert scope.faults, "mayhem schedule injected nothing"
        chaos_events = events_on(merged, CHAOS_TRACK)
        assert all(e["ph"] == "i" for e in chaos_events)
        kinds = {e["name"] for e in chaos_events}
        for fault in scope.faults:
            assert f"fault:{fault.kind}" in kinds

    def test_merged_trace_is_superset_of_machine_trace(self, chaos_run,
                                                       merged):
        from repro.trace.export import chrome_trace
        _result, tracer, _scope = chaos_run
        base = chrome_trace(tracer)["traceEvents"]
        merged_events = merged["traceEvents"]
        assert len(merged_events) > len(base)
        # the per-machine events survive unchanged in the merge
        base_spans = [e for e in base if e.get("ph") == "X"]
        merged_spans = [e for e in merged_events if e.get("ph") == "X"]
        assert base_spans == merged_spans

    def test_dumps_is_deterministic_json(self, chaos_run):
        _result, tracer, scope = chaos_run
        first = dumps_merged_trace(tracer, scope)
        second = dumps_merged_trace(tracer, scope)
        assert first == second
        json.loads(first)


class TestSnapshotAndSummary:
    def test_snapshot_shape(self, chaos_run):
        _result, _tracer, scope = chaos_run
        snap = scope_snapshot(scope)
        assert snap["hops"] == len(scope.hops)
        assert len(snap["requests"]) == len(scope.records)
        assert snap["metrics"]["latency"], "no latency histograms"
        json.dumps(snap, sort_keys=True)

    def test_snapshot_reports_exact_percentiles(self, chaos_run):
        _result, _tracer, scope = chaos_run
        latencies = sorted(r.latency for r in scope.records
                           if r.status == "ok" and r.klass == "get")
        assert latencies
        pct = scope.percentiles("get")
        # nearest-rank p50 over the recorded population
        rank = -((-50 * len(latencies)) // 100)
        exact = latencies[rank - 1]
        # the HDR histogram keeps 9 significant bits: better than 0.4%
        assert abs(pct["p50"] - exact) <= max(1, exact // 256)

    def test_summary_mentions_classes_and_faults(self, chaos_run):
        _result, _tracer, scope = chaos_run
        text = render_scope_summary(scope)
        assert "get" in text
        assert "p50" in text and "p99" in text
        assert "faults:" in text

    def test_clean_run_has_no_faults(self):
        _result, _tracer, scope = observed_run(
            replicas=2, requests=8, profile="none")
        assert scope.faults == []
        assert len([r for r in scope.records
                    if r.status == "ok"]) == 8

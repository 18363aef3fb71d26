"""The determinism contract extended to multi-machine fleet runs."""

from repro.chaos import ChaosConfig, run_chaos_cluster
from repro.trace import Tracer
from repro.trace.export import dumps_chrome_trace


def traced_run(config):
    tracer = Tracer()
    result = run_chaos_cluster(config, tracer=tracer).cluster
    return result, tracer


class TestFleetDeterminism:
    def test_identical_runs_export_identical_traces(self):
        config = ChaosConfig(profile="none", replicas=2, requests=16)
        _res_a, tracer_a = traced_run(config)
        _res_b, tracer_b = traced_run(config)
        assert dumps_chrome_trace(tracer_a) == dumps_chrome_trace(tracer_b)

    def test_rejection_path_is_deterministic_too(self):
        config = ChaosConfig(profile="none", replicas=2, requests=10,
                             tampered=(1,))
        _res_a, tracer_a = traced_run(config)
        _res_b, tracer_b = traced_run(config)
        assert dumps_chrome_trace(tracer_a) == dumps_chrome_trace(tracer_b)

    def test_ledgers_and_routing_are_reproducible(self):
        config = ChaosConfig(profile="none", replicas=3, requests=24,
                             policy="consistent-hash")
        res_a, _ = traced_run(config)
        res_b, _ = traced_run(config)
        assert res_a.routed_by_replica == res_b.routed_by_replica
        assert res_a.replica_cycles == res_b.replica_cycles
        assert res_a.frontend_cycles == res_b.frontend_cycles
        assert res_a.makespan_cycles == res_b.makespan_cycles
        assert res_a.handshake_cycles == res_b.handshake_cycles

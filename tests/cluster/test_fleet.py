"""Integration tests: fleet boot, attestation gating, serving, audit."""

import pytest

from repro.chaos import ChaosConfig, run_chaos_cluster
from repro.cluster import ClusterConfig, ClusterFleet
from repro.errors import SimulationError
from repro.trace import Tracer

SMALL = dict(requests=20)


def run_clean(tracer=None, **config):
    """One clean closed-loop run: the chaos driver's ``none`` preset."""
    return run_chaos_cluster(ChaosConfig(profile="none", **config),
                             tracer=tracer).cluster


class TestHonestFleet:
    def test_all_replicas_admitted_and_served(self):
        result = run_clean(replicas=2, **SMALL)
        assert result.rejected == []
        assert result.requests_routed == 20
        assert set(result.routed_by_replica) == {"replica0", "replica1"}
        assert all(n > 0 for n in result.routed_by_replica.values())

    def test_handshake_costs_accounted(self):
        result = run_clean(replicas=2, **SMALL)
        for name in ("replica0", "replica1"):
            assert result.handshake_cycles[name] > 0
            assert result.replica_cycles[name] > 0
        assert result.frontend_cycles > 0

    def test_audit_sweep_verifies_every_replica(self):
        result = run_clean(replicas=2, **SMALL)
        assert result.audit.all_verified
        # Every served request leaves audited records (recvfrom/sendto).
        assert result.audit.total_entries > result.requests_routed

    def test_sqlite_workload(self):
        result = run_clean(replicas=2, workload="sqlite", **SMALL)
        assert result.requests_routed == 20
        assert result.audit.all_verified

    def test_shielded_replicas(self):
        """Enclave-hosted handlers serve the same stream, dearer."""
        native = run_clean(replicas=1, **SMALL)
        shielded = run_clean(replicas=1, shielded=True, **SMALL)
        assert shielded.requests_routed == native.requests_routed
        assert shielded.replica_cycles["replica0"] > \
            native.replica_cycles["replica0"]


class TestTamperedReplica:
    def test_zero_requests_routed(self):
        tracer = Tracer()
        result = run_clean(tracer, replicas=3, tampered=(1,), **SMALL)
        assert [r.replica for r in result.rejected] == ["replica1"]
        assert "replica1" not in result.routed_by_replica
        assert result.requests_routed == 20
        # The rejection is a recorded trace event with the reason.
        rejected = tracer.instants("cluster", "handshake_rejected")
        assert len(rejected) == 1
        args = dict(rejected[0].args)
        assert args["replica"] == "replica1"
        assert "mismatch" in args["reason"]
        assert tracer.metrics.counters["handshake_rejected/replica1"] == 1

    def test_tampered_replica_gets_no_fabric_request_traffic(self):
        tracer = Tracer()
        run_clean(tracer, replicas=2, tampered=(0,), **SMALL)
        counters = tracer.metrics.counters
        # Handshake probes reached it; request routing never did.
        assert counters.get("cluster_route/replica0") is None
        assert counters["cluster_route/replica1"] == 20

    def test_whole_fleet_tampered_cannot_serve(self):
        tracer = Tracer()
        fleet = ClusterFleet(
            ClusterConfig(replicas=2, tampered=(0, 1), **SMALL),
            tracer=tracer)
        with pytest.raises(SimulationError,
                           match="^no attested replicas admitted$"):
            fleet.attest_all()
        assert fleet.links == {}
        assert len(fleet.rejected) == 2
        with pytest.raises(SimulationError):
            fleet.frontend.request({"op": "get", "key": "k"})


class TestScaling:
    def test_throughput_scales_1_2_4_8(self):
        """Near-linear scaling, with per-replica cycle totals and
        handshake costs in the metrics registry at every size."""
        tracer = Tracer()
        sizes = (1, 2, 4, 8)
        results = [run_clean(tracer, replicas=replicas, requests=64)
                   for replicas in sizes]
        throughputs = [result.throughput_rps for result in results]
        assert throughputs == sorted(throughputs)
        assert all(a < b for a, b in zip(throughputs, throughputs[1:]))
        assert throughputs[-1] > 4 * throughputs[0]
        histograms = tracer.metrics.histograms
        for replicas, result in zip(sizes, results):
            for index in range(replicas):
                name = f"replica{index}"
                assert result.handshake_cycles[name] > 0
                assert result.replica_cycles[name] > 0
                assert histograms[f"handshake_cycles/{name}"].count > 0
                assert histograms[f"replica_total_cycles/{name}"].total > 0
        assert all(result.rejected == [] for result in results)


class TestDegenerateConfig:
    @pytest.mark.parametrize("replicas", [0, -1])
    def test_empty_fleet_refused(self, replicas):
        with pytest.raises(SimulationError,
                           match=f"replicas must be at least 1, got "
                                 f"{replicas}"):
            ClusterFleet(ClusterConfig(replicas=replicas))

    @pytest.mark.parametrize("requests", [0, -1])
    def test_no_requests_refused(self, requests):
        with pytest.raises(SimulationError,
                           match=f"requests must be at least 1, got "
                                 f"{requests}"):
            ClusterConfig(requests=requests)

    @pytest.mark.parametrize("index", [2, -1])
    def test_tampered_index_outside_fleet_refused(self, index):
        with pytest.raises(SimulationError,
                           match=rf"tampered replica index {index} is "
                                 rf"outside \[0, 2\)"):
            ClusterConfig(replicas=2, tampered=(index,))

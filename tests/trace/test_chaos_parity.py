"""Parity: the chaos driver's ``none`` schedule is the clean fleet.

The determinism contract for veil-chaos: wrapping the fleet's fabric in
:class:`ChaoticNetwork` must be invisible until a plan injects something
-- cycle ledgers and the exported Chrome trace stay byte-identical to a
bare fleet on an :class:`InterHostNetwork`.  That is what lets the chaos
driver's ``none`` schedule run the clean fleet (``repro cluster``),
makes chaos runs comparable to clean baselines, and guarantees merely
*shipping* the chaos layer never perturbs results.
"""

from repro.chaos import (ChaosConfig, ChaoticNetwork, FaultPlan,
                         run_chaos_cluster)
from repro.cluster import (ClusterConfig, ClusterFleet, InterHostNetwork,
                           request_payload)
from repro.trace import Tracer
from repro.trace.export import dumps_chrome_trace

CONFIG = dict(replicas=2, requests=16)


def run_bare(plan=None, wrapped=False, activate_for_drive=False):
    """A fleet driven by the request stream, with no driver around it."""
    tracer = Tracer()
    config = ClusterConfig(**CONFIG)
    net = ChaoticNetwork(plan, tracer=tracer) if wrapped \
        else InterHostNetwork(tracer=tracer)
    fleet = ClusterFleet(config, tracer=tracer, net=net)
    fleet.attest_all()
    if activate_for_drive:
        plan.activate()
    for index in range(config.requests):
        fleet.frontend.request(request_payload(config.workload, index))
    if activate_for_drive:
        plan.deactivate()
        net.flush_held()
        fleet.frontend.heal_quarantined()
    audit = fleet.audit_all()
    return fleet.result(audit), tracer


def assert_same_run(plain, tracer_a, other, tracer_b):
    assert dumps_chrome_trace(tracer_a) == dumps_chrome_trace(tracer_b)
    assert plain.replica_cycles == other.replica_cycles
    assert plain.frontend_cycles == other.frontend_cycles
    assert plain.routed_by_replica == other.routed_by_replica


class TestChaosParity:
    def test_no_plan_is_byte_identical(self):
        plain, tracer_a = run_bare()
        wrapped, tracer_b = run_bare(None, wrapped=True)
        assert_same_run(plain, tracer_a, wrapped, tracer_b)

    def test_inactive_plan_is_byte_identical(self):
        plain, tracer_a = run_bare()
        wrapped, tracer_b = run_bare(FaultPlan(99, "mayhem"), wrapped=True)
        assert_same_run(plain, tracer_a, wrapped, tracer_b)

    def test_none_schedule_is_the_clean_fleet(self):
        """The whole driver -- active ``none`` plan, periodic heals,
        invariant sweep -- exports what the bare fleet exports."""
        plain, tracer_a = run_bare()
        tracer_b = Tracer()
        chaos = run_chaos_cluster(ChaosConfig(profile="none", **CONFIG),
                                  tracer=tracer_b)
        assert_same_run(plain, tracer_a, chaos.cluster, tracer_b)
        assert chaos.events == []
        assert chaos.invariants.ok and chaos.invariants.audit_verified

    def test_active_plan_diverges(self):
        """Sanity check the parity test has teeth: an *active* plan
        actually perturbs the run."""
        plain, tracer_a = run_bare()
        wrapped, tracer_b = run_bare(FaultPlan(99, "mayhem"), wrapped=True,
                                     activate_for_drive=True)
        assert dumps_chrome_trace(tracer_a) != dumps_chrome_trace(tracer_b)

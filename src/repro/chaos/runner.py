"""Drive a fleet through one seeded chaos schedule, then check it.

:func:`run_chaos_cluster` is the chaos analog of
:func:`~repro.cluster.fleet.run_cluster`: boot the fleet on a
fault-injecting fabric, attest (possibly against a byzantine
hypervisor), then push a closed-loop workload while the plan drops,
duplicates, delays, and corrupts messages, crashes replicas
mid-request, and injects spurious exits.  The front end is expected to
*complete* the workload through bounded retries, failover, quarantine,
and re-attestation -- not to raise.  Afterwards injection is switched
off, held messages are flushed, quarantined replicas are healed, and
the :class:`~repro.chaos.invariants.InvariantChecker` asserts the
security story survived.

Everything is deterministic: same :class:`ChaosConfig` -> same fault
schedule, same ledgers, same result.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from ..cluster.auditor import FleetAuditReport
from ..cluster.fleet import ClusterConfig, ClusterFleet, ClusterResult
from ..cluster.net import NetCostModel
from ..errors import SimulationError
from .invariants import InvariantChecker, InvariantReport
from .net import ChaoticNetwork
from .plan import FaultPlan, FaultProfile, profile_by_name

if typing.TYPE_CHECKING:
    from ..trace.tracer import Tracer


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of one chaos run."""

    seed: int = 1
    profile: str = "mayhem"
    replicas: int = 3
    requests: int = 48
    workload: str = "memcached"
    policy: str = "least-outstanding"
    #: Attempt to re-admit quarantined replicas every N requests
    #: (0 = no periodic heal).
    heal_every: int = 8
    set_every: int = 10
    keyspace: int = 16
    net_cost: NetCostModel = field(default_factory=NetCostModel)

    def __post_init__(self):
        # The fleet shape refuses a replica or request count below 1.
        self.cluster_config()
        if self.heal_every < 0:
            raise SimulationError(
                f"heal_every must be at least 0 (0 = no periodic heal), "
                f"got {self.heal_every}")

    def cluster_config(self) -> ClusterConfig:
        """The underlying fleet shape for this chaos run."""
        return ClusterConfig(
            replicas=self.replicas, requests=self.requests,
            workload=self.workload, policy=self.policy,
            set_every=self.set_every, keyspace=self.keyspace,
            net_cost=self.net_cost)


@dataclass
class ChaosResult:
    """Everything one chaos run produced."""

    config: ChaosConfig
    profile: FaultProfile
    completed: int
    failed: int
    retries: int
    crashes: dict[str, int]
    quarantines: int
    reattestations: int
    events: list[tuple]
    invariants: InvariantReport
    cluster: ClusterResult


def _maybe_crash(fleet: ClusterFleet, plan: FaultPlan, index: int,
                 downed: dict[str, int]) -> None:
    """Crash one eligible replica when the schedule says so.

    replica0 is exempt so the candidate set never empties -- the point
    is recovery under degradation, not proving that a fully-dead fleet
    serves nothing.
    """
    profile = plan.profile
    if not profile.crash_period or index == 0 \
            or index % profile.crash_period:
        return
    candidates = [r for r in fleet.replicas.values()
                  if r.alive and r.index != 0]
    victim = plan.pick(sorted(candidates, key=lambda r: r.index))
    if victim is None:
        return
    victim.crash()
    plan.record("crash", victim.name, index)
    downed[victim.name] = index + profile.downtime


def _maybe_restart(fleet: ClusterFleet, plan: FaultPlan, index: int,
                   downed: dict[str, int]) -> None:
    """Restart replicas whose downtime has elapsed."""
    for name in [n for n, when in downed.items() if index >= when]:
        fleet.replicas[name].restart()
        plan.record("restart", name, index)
        del downed[name]


def _maybe_spurious_exit(fleet: ClusterFleet, plan: FaultPlan,
                         index: int) -> None:
    """Byzantine hypervisor: bounce one running replica instance."""
    profile = plan.profile
    if not profile.spurious_period or index == 0 \
            or index % profile.spurious_period:
        return
    alive = sorted((r for r in fleet.replicas.values() if r.alive),
                   key=lambda r: r.index)
    victim = plan.pick(alive)
    if victim is None:
        return
    victim.machine.hypervisor.inject_spurious_exit(victim.core)
    plan.record("spurious_exit", victim.name, index)


def _request_payload(config: ChaosConfig, index: int) -> dict:
    """The same closed-loop request stream ``ClusterFleet.drive`` uses."""
    key = f"key{index % config.keyspace}"
    if config.workload == "memcached":
        op = "set" if index % config.set_every == 0 else "get"
        return {"op": op, "key": key}
    return {"op": "insert", "key": key}


def run_chaos_cluster(config: ChaosConfig | None = None, *,
                      tracer: "Tracer | None" = None,
                      scope=None) -> ChaosResult:
    """Boot, torture, recover, and verify one fleet."""
    config = config or ChaosConfig()
    profile = profile_by_name(config.profile)
    plan = FaultPlan(config.seed, profile)
    if tracer is None:
        from ..trace.tracer import default_tracer
        tracer = default_tracer()
    net = ChaoticNetwork(plan, cost=config.net_cost, tracer=tracer)
    fleet = ClusterFleet(config.cluster_config(), tracer=tracer, net=net,
                         scope=scope)

    # Byzantine mode: one victim hypervisor corrupts attestation replies
    # before the initial handshakes; the relying party must detect it.
    if profile.corrupt_attestations:
        victim = plan.pick(sorted(fleet.replicas.values(),
                                  key=lambda r: r.index))
        victim.machine.hypervisor.corrupt_ghcb_replies = \
            profile.corrupt_attestations
        plan.record("byzantine_attest", victim.name,
                    profile.corrupt_attestations)

    fleet.attest_all()
    if not fleet.frontend.members:
        raise SimulationError("no attested replicas admitted")
    fleet.frontend.reset_schedule()
    plan.activate()

    completed = failed = 0
    downed: dict[str, int] = {}
    for index in range(config.requests):
        _maybe_restart(fleet, plan, index, downed)
        _maybe_crash(fleet, plan, index, downed)
        _maybe_spurious_exit(fleet, plan, index)
        try:
            fleet.frontend.request(_request_payload(config, index))
            completed += 1
        except SimulationError as exhausted:
            failed += 1
            plan.record("request_failed", index, str(exhausted))
            net.tracer.metrics.count("chaos_request_failed", "frontend")
        if config.heal_every and (index + 1) % config.heal_every == 0:
            fleet.frontend.heal_quarantined()

    # Schedule over: stop injecting, bring everything back, and let the
    # front end re-admit whatever is still quarantined before the
    # invariant sweep audits the fleet.
    plan.deactivate()
    for name in list(downed):
        fleet.replicas[name].restart()
        plan.record("restart", name, config.requests)
        del downed[name]
    released = net.flush_held()
    if released:
        plan.record("flush_held", released)
    fleet.frontend.heal_quarantined()

    invariants = InvariantChecker().check(fleet, net)
    reattestations = sum(h.reattested
                         for h in fleet.frontend.health.values())
    cluster = fleet.result(invariants.audit or FleetAuditReport())
    return ChaosResult(
        config=config, profile=profile, completed=completed,
        failed=failed, retries=fleet.frontend.retries,
        crashes={name: replica.crashes
                 for name, replica in sorted(fleet.replicas.items())},
        quarantines=fleet.frontend.quarantines,
        reattestations=reattestations,
        events=list(plan.events), invariants=invariants,
        cluster=cluster)

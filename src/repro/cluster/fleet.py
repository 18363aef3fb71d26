"""Fleet orchestration: boot N Veil CVMs, attest, route, audit.

:func:`run_cluster` is the whole story in one call -- boot the fleet,
run the relying-party handshakes (recording which replicas were
rejected), drive a closed-loop request stream through the front end, and
finish with a fleet-wide audit sweep.  The CLI (``repro cluster``), the
scaling benchmark, and the cluster tests all sit on top of it.

Determinism contract: given the same :class:`ClusterConfig`, two runs
produce identical ledgers, metrics, and trace event streams (the
multi-machine extension of the single-machine contract in
``docs/TRACING.md``).  The shared tracer is clocked off a
:class:`FleetClock` that sums every host's ledger, so cross-machine
event ordering is a pure function of simulated work.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from ..errors import AttestationError, SimulationError
from ..hv.attestation import platform_signing_key
from ..hw.cycles import CLOCK_HZ
from ..scope.collector import NULL_SCOPE
from .attest import AttestedLink, FleetVerifier, RejectedHandshake
from .auditor import FleetAuditor, FleetAuditReport
from .frontend import FrontEnd
from .net import InterHostNetwork, NetCostModel
from .replica import ClusterReplica, expected_fleet_measurement

if typing.TYPE_CHECKING:
    from ..trace.tracer import Tracer


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of one fleet run."""

    replicas: int = 2
    requests: int = 100
    workload: str = "memcached"
    policy: str = "least-outstanding"
    #: Host each replica's request handler inside a VeilS-ENC enclave.
    shielded: bool = False
    #: Replica indices booted from a tampered (backdoored) image.
    tampered: tuple[int, ...] = ()
    #: 90:10 GET:SET mix like memaslap; every ``set_every``-th op is a set.
    set_every: int = 10
    #: Distinct keys cycled through the request stream.
    keyspace: int = 16
    net_cost: NetCostModel = field(default_factory=NetCostModel)
    memory_bytes: int = 32 * 1024 * 1024
    num_cores: int = 2
    log_storage_pages: int = 64

    def __post_init__(self):
        if self.replicas < 1:
            raise SimulationError(
                f"replicas must be at least 1, got {self.replicas}")
        if self.requests < 1:
            raise SimulationError(
                f"requests must be at least 1, got {self.requests}")


class FleetClock:
    """Sums every host ledger: the fleet's monotonic virtual clock.

    Passed to :meth:`Tracer.attach_ledger` (anything with ``.total``
    qualifies) once all machines are booted, so one shared tracer gives
    a single coherent timeline across N CVMs plus the front-end hosts.

    Monotonicity is a *contract*, not an accident of the ledgers: a
    cold reboot rebuilds a replica's :class:`CycleLedger` from zero, and
    naively re-summing after the swap would step the merged clock
    backwards by everything the dead ledger had accrued -- handing the
    tracer out-of-order timestamps.  The clock therefore keeps a
    high-water mark: :meth:`replace` folds the outgoing sum into it
    before swapping ledgers, and :attr:`total` never reports below it.
    """

    def __init__(self, ledgers: list):
        self._ledgers = list(ledgers)
        self._high_water = 0

    def add(self, ledger) -> None:
        """Fold another host's ledger into the fleet timeline."""
        self._ledgers.append(ledger)

    def replace(self, old, new) -> None:
        """Swap a rebuilt host ledger in without stepping backwards.

        The pre-swap sum is captured as the clock's floor, so the new
        ledger's charges advance fleet time from where the old one
        stopped instead of rewinding it to the fleet minus one host.
        """
        now = sum(ledger.total for ledger in self._ledgers)
        if now > self._high_water:
            self._high_water = now
        self._ledgers = [new if ledger is old else ledger
                         for ledger in self._ledgers]

    @property
    def total(self) -> int:
        now = sum(ledger.total for ledger in self._ledgers)
        if now > self._high_water:
            self._high_water = now
        return self._high_water


@dataclass
class ClusterResult:
    """Everything a fleet run produced."""

    config: ClusterConfig
    requests_routed: int
    routed_by_replica: dict[str, int]
    rejected: list[RejectedHandshake]
    makespan_cycles: int
    throughput_rps: float
    handshake_cycles: dict[str, int]
    replica_cycles: dict[str, int]
    frontend_cycles: int
    audit: FleetAuditReport

    def summary_rows(self) -> list[dict]:
        """Per-replica table for the CLI / benchmark renderers."""
        rows = []
        for name in sorted(self.routed_by_replica):
            rows.append({
                "replica": name,
                "requests": self.routed_by_replica[name],
                "handshake_cycles": self.handshake_cycles.get(name, 0),
                "total_cycles": self.replica_cycles.get(name, 0),
            })
        return rows


class ClusterFleet:
    """A booted fleet: fabric + replicas + front end + auditor."""

    def __init__(self, config: ClusterConfig,
                 tracer: "Tracer | None" = None,
                 net: InterHostNetwork | None = None,
                 scope=None):
        from ..trace.tracer import default_tracer
        self.config = config
        if tracer is None:
            # Pick up the harness-wide tracer (VEIL_TRACE_DIR capture)
            # so fleet runs trace like single-machine runs do.
            tracer = default_tracer()
        self.tracer = tracer
        #: veil-scope observer; NULL_SCOPE (zero-cost no-op) by default.
        self.scope = scope if scope is not None else NULL_SCOPE
        #: ``net`` lets a caller supply a pre-built fabric -- the chaos
        #: harness wraps the fleet in a fault-injecting subclass this way.
        self.net = net if net is not None else InterHostNetwork(
            cost=config.net_cost, tracer=tracer)
        self.replicas: dict[str, ClusterReplica] = {}
        for index in range(config.replicas):
            replica = ClusterReplica(
                index, self.net, workload=config.workload,
                shielded=config.shielded,
                memory_bytes=config.memory_bytes,
                num_cores=config.num_cores,
                log_storage_pages=config.log_storage_pages,
                tracer=tracer, tampered=index in config.tampered)
            self.replicas[replica.name] = replica
        self.frontend = FrontEnd(self.net, policy=config.policy,
                                 tracer=tracer)
        self.frontend.scope = self.scope
        if scope is not None:
            # Wire the observer into the fabric too (a caller-supplied
            # net keeps its own scope when none is given here).
            self.net.scope = scope
        self.auditor = FleetAuditor(self.net, tracer=tracer)
        # Fleet-wide expected digest: what an *untampered* image of this
        # config measures to (the operator builds the image themselves).
        reference = expected_fleet_measurement(
            self.replicas["replica0"].config)
        self.verifier = FleetVerifier(
            expected_measurement=reference,
            platform_public=platform_signing_key().public,
            ledger=self.frontend.ledger, tracer=tracer)
        self.links: dict[str, AttestedLink] = {}
        self.rejected: list[RejectedHandshake] = []
        self.frontend.reattest = self._reattest
        clock = FleetClock([r.ledger for r in self.replicas.values()])
        clock.add(self.frontend.ledger)
        clock.add(self.auditor.ledger)
        self.clock = clock
        if tracer is not None:
            tracer.attach_ledger(clock)
        self.scope.attach_clock(clock)

    def _reattest(self, name: str) -> AttestedLink:
        """Front-end heal hook: fresh handshake with one replica.

        A crashed-and-restarted (or desynced) replica is only re-admitted
        through the same relying-party flow as initial admission; the new
        link replaces the old one everywhere the fleet tracks it.
        """
        replica = self.replicas[name]
        if not replica.alive:
            raise AttestationError(f"replica {name} is down")
        link = self.verifier.establish(replica, self.frontend.name)
        self.links[name] = link
        return link

    def reboot_replica(self, name: str) -> None:
        """Cold-restart ``name``: fresh CVM stack, fresh cycle ledger.

        Unlike the warm :meth:`ClusterReplica.restart` (same machine
        back up, ledger intact), a reboot rebuilds the whole stack, so
        the replica's ledger restarts from zero.  The fleet clock is
        told via :meth:`FleetClock.replace` so merged time stays
        monotone across the swap; the replica stays unattested until
        the front end's next heal sweep re-admits it.
        """
        replica = self.replicas[name]
        old_ledger = replica.ledger
        replica.reboot()
        self.clock.replace(old_ledger, replica.ledger)
        if self.tracer is not None:
            # Booting the fresh CVM re-attached the shared tracer to the
            # new machine's own (zeroed) ledger; put it back on fleet
            # time or every timestamp after the reboot rewinds.
            self.tracer.attach_ledger(self.clock)

    # -- phases ----------------------------------------------------------

    def attest_all(self) -> None:
        """Handshake every replica; admit the verified, record the rest."""
        for name in sorted(self.replicas,
                           key=lambda n: self.replicas[n].index):
            replica = self.replicas[name]
            try:
                link = self.verifier.establish(replica, self.frontend.name)
            except AttestationError as refused:
                self.rejected.append(
                    RejectedHandshake(replica=name, reason=str(refused)))
                continue
            self.links[name] = link
            self.frontend.admit(link, replica)

    def drive(self, requests: int) -> int:
        """Closed-loop client: issue ``requests`` ops through the front
        end and return how many were routed."""
        config = self.config
        for i in range(requests):
            key = f"key{i % config.keyspace}"
            if config.workload == "memcached":
                op = "set" if i % config.set_every == 0 else "get"
                payload = {"op": op, "key": key}
            else:
                payload = {"op": "insert", "key": key}
            self.frontend.request(payload)
        return sum(self.frontend.routed.values())

    def audit_all(self) -> FleetAuditReport:
        """Fleet-wide log pull + chain verification over attested links."""
        ordered = [self.links[n] for n in sorted(
            self.links, key=lambda n: self.replicas[n].index)]
        return self.auditor.sweep(ordered, self.replicas)

    def result(self, audit: FleetAuditReport) -> ClusterResult:
        """Assemble the run summary and publish fleet-level metrics."""
        tracer = self.tracer
        replica_cycles = {name: replica.ledger.total
                         for name, replica in self.replicas.items()}
        if tracer is not None:
            for name, total in sorted(replica_cycles.items()):
                tracer.metrics.observe("replica_total_cycles", name, total)
            tracer.metrics.observe("frontend_total_cycles", "frontend",
                                   self.frontend.ledger.total)
        return ClusterResult(
            config=self.config,
            requests_routed=sum(self.frontend.routed.values()),
            routed_by_replica=dict(self.frontend.routed),
            rejected=list(self.rejected),
            makespan_cycles=self.frontend.makespan_cycles(),
            throughput_rps=self.frontend.throughput_rps(),
            handshake_cycles={name: link.handshake_cycles
                              for name, link in self.links.items()},
            replica_cycles=replica_cycles,
            frontend_cycles=self.frontend.ledger.total,
            audit=audit)


def run_cluster(config: ClusterConfig | None = None, *,
                tracer: "Tracer | None" = None,
                scope=None) -> ClusterResult:
    """Boot, attest, serve, and audit one fleet run."""
    config = config or ClusterConfig()
    fleet = ClusterFleet(config, tracer=tracer, scope=scope)
    fleet.attest_all()
    fleet.frontend.reset_schedule()
    fleet.drive(config.requests)
    audit = fleet.audit_all()
    return fleet.result(audit)


def cycles_to_seconds(cycles: int) -> float:
    """Seconds at the simulator's nominal clock."""
    return cycles / CLOCK_HZ

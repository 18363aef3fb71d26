"""Fleet orchestration: boot N Veil CVMs, attest, route, audit.

:class:`ClusterFleet` holds the phases of one run -- boot, attest,
serve, audit -- and :func:`request_payload` the one request stream.  The
drivers sit above this package: the closed loop is
:func:`~repro.chaos.runner.run_chaos_cluster` (``repro cluster`` is its
``none`` schedule), the open loop :class:`~repro.surge.runner.SurgeRun`.

Determinism contract: given the same :class:`ClusterConfig`, two runs
produce identical ledgers, metrics, and trace event streams (the
multi-machine extension of the single-machine contract in
``docs/TRACING.md``).  The shared tracer is clocked off a
:class:`FleetClock` that sums every host's ledger, so cross-machine
event ordering is a pure function of simulated work.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from ..errors import AttestationError, SimulationError
from ..hv.attestation import platform_signing_key
from ..scope.collector import NULL_SCOPE
from .attest import AttestedLink, FleetVerifier, RejectedHandshake
from .auditor import FleetAuditor, FleetAuditReport
from .frontend import FrontEnd
from .net import InterHostNetwork
from .replica import ClusterReplica, expected_fleet_measurement

if typing.TYPE_CHECKING:
    from ..trace.tracer import Tracer


#: 90:10 GET:SET mix like memaslap: every ``SET_EVERY``-th op is a set.
SET_EVERY = 10
#: Distinct keys cycled through the request stream.
KEYSPACE = 16


def request_payload(workload: str, index: int) -> dict:
    """Request ``index`` of the stream every fleet driver issues."""
    key = f"key{index % KEYSPACE}"
    if workload == "memcached":
        return {"op": "set" if index % SET_EVERY == 0 else "get",
                "key": key}
    return {"op": "insert", "key": key}


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of one fleet run (the chaos and surge configs extend it)."""

    replicas: int = 2
    requests: int = 100
    workload: str = "memcached"
    policy: str = "least-outstanding"
    #: Host each replica's request handler inside a VeilS-ENC enclave.
    shielded: bool = False
    #: Replica indices booted from a tampered (backdoored) image.
    tampered: tuple[int, ...] = ()

    def __post_init__(self):
        if self.replicas < 1:
            raise SimulationError(
                f"replicas must be at least 1, got {self.replicas}")
        if self.requests < 1:
            raise SimulationError(
                f"requests must be at least 1, got {self.requests}")
        for index in self.tampered:
            if not 0 <= index < self.replicas:
                raise SimulationError(
                    f"tampered replica index {index} is outside "
                    f"[0, {self.replicas})")


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
        self.config = config
        self.tracer = tracer
        #: veil-scope observer; NULL_SCOPE (zero-cost no-op) by default.
        self.scope = scope if scope is not None else NULL_SCOPE
        #: ``net`` lets a caller supply a pre-built fabric -- the chaos
        #: harness wraps the fleet in a fault-injecting subclass this way.
        self.net = net if net is not None else InterHostNetwork(
            tracer=tracer)
        self.replicas: dict[str, ClusterReplica] = {}
        for index in range(config.replicas):
            replica = ClusterReplica(
                index, self.net, workload=config.workload,
                shielded=config.shielded, tracer=tracer,
                tampered=index in config.tampered)
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
        clock = FleetClock([r.ledger for r in self.replicas.values()] +
                           [self.frontend.ledger, self.auditor.ledger])
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
        """Handshake every replica; admit the verified, record the rest,
        refuse an empty fleet, and start the serving epoch."""
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
        if not self.frontend.members:
            raise SimulationError("no attested replicas admitted")
        self.frontend.reset_schedule()

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

"""Open-loop surge runs: arrivals meet the attested fleet.

:func:`run_surge` is the open-loop sibling of the closed-loop driver
(:func:`~repro.chaos.runner.run_chaos_cluster`): boot and attest the
same fleet, but instead of issuing one request at a time it replays a
seeded :class:`~repro.surge.arrivals.ArrivalPlan` on the discrete-event
scheduler -- arrivals land whether or not the fleet has kept up, so
offered load and service rate can diverge and queueing becomes real.

The queueing model per replica is M/G/c-shaped: :data:`SLOTS` service
slots (the replica's cores), a FIFO backlog behind them, and measured
service times -- each dispatched request runs the *actual* sealed round
trip through the fabric and the replica CVM, and its measured cycle
cost is its service time on the virtual timeline.  A request's latency
is ``completion - arrival``: queue wait plus service, both in fleet
cycles.

Layered on top:

* **Admission control** -- a cap on total in-flight requests; arrivals
  beyond it are shed at the door (counted, recorded as failed, never
  executed).  An overloaded front end that queues without bound helps
  nobody; shedding keeps tail latency of *admitted* traffic sane.
* **Autoscaling** -- a least-outstanding-aware policy over a warm pool:
  all replicas are booted and attested up front, but only ``min_active``
  serve initially; the scaler activates standbys when outstanding work
  per active replica crosses ``SurgeRun.SCALE_UP_OUTSTANDING`` and
  drains the idlest active one below ``SCALE_DOWN_OUTSTANDING``.

Determinism: same config (seed included) => byte-identical ledgers,
traces, FleetScope records, and summary -- pinned by
``tests/trace/test_surge_parity.py``.
"""

from __future__ import annotations

import math
import typing
from collections import deque
from dataclasses import dataclass, field

from ..cluster.fleet import ClusterConfig, ClusterFleet
from ..errors import SimulationError
from ..hw.cycles import CLOCK_HZ
from ..scope.collector import FleetScope
from ..scope.context import TraceContext
from ..trace.tracer import NULL_TRACER
from .arrivals import ArrivalPlan, ArrivalProfile, arrivals_by_name
from .sched import ARRIVAL, COMPLETION, DiscreteEventScheduler

if typing.TYPE_CHECKING:
    from ..trace.tracer import Tracer

#: Per-request service-cycle estimate that converts ``load`` into an
#: arrival rate; calibrated from measured runs.
SERVICE_ESTIMATE = 280_000
#: Service slots per replica: its cores serving concurrently.
SLOTS = 2


@dataclass(frozen=True)
class SurgeConfig(ClusterConfig):
    """Shape of one open-loop surge run."""

    replicas: int = 8
    requests: int = 2000
    seed: int = 1
    arrivals: str = "poisson"
    #: Offered load as a multiple of estimated fleet capacity: the mean
    #: inter-arrival gap is ``SERVICE_ESTIMATE / (active slots) / load``.
    load: float = 2.0
    #: Total in-flight cap; 0 disables admission control.
    admit_limit: int = 0
    #: Warm-pool floor: replicas serving from the first arrival.
    min_active: int = 0            # 0 = all replicas active, no scaler

    def __post_init__(self):
        # The fleet shape refuses a replica or request count below 1.
        super().__post_init__()
        if not 0 < self.load < math.inf:
            raise SimulationError(
                f"load must be a positive finite number, got {self.load}")
        if self.admit_limit < 0:
            raise SimulationError(
                f"admit_limit must be at least 0 (0 = no limit), got "
                f"{self.admit_limit}")
        if not 0 <= self.min_active <= self.replicas:
            raise SimulationError(
                f"min_active must be between 0 and replicas "
                f"({self.replicas}), got {self.min_active}")

    def arrival_profile(self) -> ArrivalProfile:
        """The arrival shape at this config's offered rate."""
        profile = arrivals_by_name(self.arrivals)
        slots = max(1, (self.min_active or self.replicas) * SLOTS)
        return profile.with_gap(
            max(1, int(SERVICE_ESTIMATE / (slots * self.load))))


@dataclass
class _Job:
    """One admitted request moving through the queueing model."""

    index: int
    request_id: int
    ctx: TraceContext
    payload: dict
    klass: str
    arrival_ts: int
    replica: str = ""
    start_ts: int = 0
    attempts: int = 0


class _Server:
    """Per-replica scheduling state (slots + backlog)."""

    __slots__ = ("name", "queue", "busy", "served", "peak_queue")

    def __init__(self, name: str):
        self.name = name
        self.queue: deque[_Job] = deque()
        self.busy = 0
        self.served = 0
        self.peak_queue = 0

    @property
    def outstanding(self) -> int:
        """Requests queued or in service on this replica."""
        return len(self.queue) + self.busy


@dataclass
class SurgeResult:
    """Everything one surge run produced."""

    config: SurgeConfig
    requests: int
    completed: int
    shed: int
    failed: int
    max_in_flight: int
    peak_queue_depth: int
    makespan_cycles: int
    offered_rps: float
    throughput_rps: float
    #: class -> {"p50": ..., "p95": ..., "p99": ...} latency cycles.
    latency: dict
    queue_wait: dict
    service: dict
    routed_by_replica: dict
    #: (ts, "up"|"down", replica) autoscale decisions, in order.
    scale_events: list
    active_high_water: int
    scope: FleetScope = field(repr=False, default=None)
    fleet: ClusterFleet = field(repr=False, default=None)

    def summary_dict(self) -> dict:
        """Deterministic summary (no wall-clock anywhere) for JSON."""
        return {
            "config": {
                "seed": self.config.seed,
                "arrivals": self.config.arrivals,
                "replicas": self.config.replicas,
                "requests": self.config.requests,
                "load": self.config.load,
                "workload": self.config.workload,
                "policy": self.config.policy,
                "concurrency": SLOTS,
                "admit_limit": self.config.admit_limit,
                "min_active": self.config.min_active,
            },
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
            "max_in_flight": self.max_in_flight,
            "peak_queue_depth": self.peak_queue_depth,
            "makespan_cycles": self.makespan_cycles,
            "offered_rps": round(self.offered_rps, 1),
            "throughput_rps": round(self.throughput_rps, 1),
            "latency": {k: dict(v) for k, v in
                        sorted(self.latency.items())},
            "queue_wait": {k: dict(v) for k, v in
                           sorted(self.queue_wait.items())},
            "routed": dict(sorted(self.routed_by_replica.items())),
            "scale_events": [list(e) for e in self.scale_events],
            "active_high_water": self.active_high_water,
        }


class SurgeRun:
    """One run's mutable state: fleet, scheduler, servers, counters."""

    #: Failover attempts per admitted request before it counts failed.
    MAX_ATTEMPTS = 4
    #: Outstanding requests per active replica that trigger scale-up.
    SCALE_UP_OUTSTANDING = 8
    #: ... and scale-down of the idlest active replica.
    SCALE_DOWN_OUTSTANDING = 1

    def __init__(self, config: SurgeConfig, *,
                 tracer: "Tracer | None" = None,
                 scope: FleetScope | None = None):
        self.config = config
        self.scope = scope if scope is not None else FleetScope()
        self.fleet = ClusterFleet(config, tracer=tracer, scope=self.scope)
        self.tracer = self.fleet.tracer or NULL_TRACER
        self.sched = DiscreteEventScheduler()
        # Scope timestamps come off *event time*, not ledger time: the
        # open-loop story (arrival, queue wait, completion) lives on
        # the discrete-event clock.  Ledgers still clock the tracer.
        self.scope.attach_clock(self.sched)
        self.plan = ArrivalPlan(
            config.seed, config.arrival_profile(),
            requests=config.requests, workload=config.workload)
        self.servers: dict[str, _Server] = {}
        self.active: list[str] = []
        self.standby: list[str] = []
        self.draining: set[str] = set()
        self.in_flight = 0
        self.max_in_flight = 0
        self.peak_queue_depth = 0
        self.completed = 0
        self.shed = 0
        self.failed = 0
        self.first_arrival = 0
        self.last_completion = 0
        self.scale_events: list[tuple] = []
        self.active_high_water = 0

    # -- membership ------------------------------------------------------

    def _setup_pool(self) -> None:
        """Split the attested fleet into active set and warm standbys."""
        config = self.config
        members = self.fleet.frontend.members
        floor = config.min_active or len(members)
        floor = max(1, min(floor, len(members)))
        for name in members:
            self.servers[name] = _Server(name)
        self.active = list(members[:floor])
        self.standby = list(members[floor:])
        self.active_high_water = len(self.active)

    def _candidates(self) -> list[str]:
        """Routable replicas: active, healthy, not draining."""
        healthy = set(self.fleet.frontend.healthy)
        return [n for n in self.active
                if n in healthy and n not in self.draining]

    # -- autoscaler ------------------------------------------------------

    def _autoscale(self) -> None:
        """Least-outstanding-aware scaling, run after every event."""
        config = self.config
        if not config.min_active:
            return
        candidates = self._candidates()
        if not candidates:
            return
        outstanding = {n: self.servers[n].outstanding
                       for n in candidates}
        per_active = sum(outstanding.values()) / len(candidates)
        if per_active >= self.SCALE_UP_OUTSTANDING and self.standby:
            name = self.standby.pop(0)
            self.active.append(name)
            self.active_high_water = max(self.active_high_water,
                                         len(self._candidates()))
            self.scale_events.append((self.sched.now, "up", name))
            self.tracer.instant(
                "cluster", "surge_scale_up",
                args={"replica": name,
                      "outstanding_per_active": round(per_active, 2)})
            self._dispatch(name)
        elif (per_active <= self.SCALE_DOWN_OUTSTANDING and
                len(candidates) > max(1, config.min_active)):
            # Drain the idlest active replica (ties to highest name so
            # low-index replicas, the warm core, stay hot).
            idlest = min(candidates,
                         key=lambda n: (self.servers[n].outstanding, n))
            if self.servers[idlest].outstanding == 0 and \
                    idlest != self._candidates()[0]:
                self.active.remove(idlest)
                self.standby.append(idlest)
                self.standby.sort()
                self.scale_events.append((self.sched.now, "down",
                                          idlest))
                self.tracer.instant(
                    "cluster", "surge_scale_down",
                    args={"replica": idlest})

    # -- the event handlers ----------------------------------------------

    def _on_arrival(self, arrival) -> None:
        frontend = self.fleet.frontend
        request_id = frontend.allocate_request_id()
        ctx = TraceContext(trace_id=request_id, span_id=0)
        self.scope.request_begin(ctx, arrival.klass)
        config = self.config
        if config.admit_limit and self.in_flight >= config.admit_limit:
            self.shed += 1
            self.scope.request_failed(ctx, "shed: admission limit")
            self.tracer.metrics.count("surge_shed",
                                            arrival.klass)
            return
        candidates = self._candidates()
        if not candidates:
            self.shed += 1
            self.scope.request_failed(ctx, "shed: no active replicas")
            return
        job = _Job(index=arrival.index, request_id=request_id, ctx=ctx,
                   payload=arrival.payload, klass=arrival.klass,
                   arrival_ts=self.sched.now)
        self.in_flight += 1
        if self.in_flight > self.max_in_flight:
            self.max_in_flight = self.in_flight
        outstanding = {n: self.servers[n].outstanding
                       for n in candidates}
        picked = frontend.policy.choose(arrival.payload, candidates,
                                        outstanding)
        job.replica = picked
        server = self.servers[picked]
        server.queue.append(job)
        if len(server.queue) > server.peak_queue:
            server.peak_queue = len(server.queue)
            if len(server.queue) > self.peak_queue_depth:
                self.peak_queue_depth = len(server.queue)
        self._dispatch(picked)

    def _dispatch(self, name: str) -> None:
        """Start queued jobs while ``name`` has free service slots."""
        server = self.servers[name]
        while server.queue and server.busy < SLOTS:
            job = server.queue.popleft()
            self._start(server, job)

    def _start(self, server: _Server, job: _Job) -> None:
        """Run the sealed round trip and schedule its completion.

        The attempt executes *now* (charging real ledgers); its measured
        cycle cost is the service time, so the completion event lands
        ``service`` cycles later on the virtual timeline.  A failed
        attempt fails over to the other active replicas, bounded like
        the closed-loop path.
        """
        frontend = self.fleet.frontend
        job.start_ts = self.sched.now
        tried: set[str] = set()
        name = server.name
        for attempt in range(1, self.MAX_ATTEMPTS + 1):
            job.attempts = attempt
            out = frontend.open_loop_attempt(
                name, job.payload, job.request_id,
                job.ctx.child(attempt))
            if out is not None:
                result, service_cycles, breakdown = out
                host = self.servers[name]
                host.busy += 1
                host.served += 1
                done_at = self.sched.now + max(1, service_cycles)
                self.sched.at(done_at, COMPLETION,
                              lambda j=job, n=name, s=service_cycles,
                              b=breakdown: self._on_complete(j, n, s, b))
                return
            tried.add(name)
            rest = [n for n in self._candidates() if n not in tried]
            if not rest:
                break
            outstanding = {n: self.servers[n].outstanding for n in rest}
            name = frontend.policy.choose(job.payload, rest, outstanding)
        self.in_flight -= 1
        self.failed += 1
        self.scope.request_failed(
            job.ctx, f"request {job.request_id} failed after "
            f"{job.attempts} attempts")

    def _on_complete(self, job: _Job, name: str, service_cycles: int,
                     breakdown: dict) -> None:
        server = self.servers[name]
        server.busy -= 1
        self.in_flight -= 1
        self.completed += 1
        self.last_completion = self.sched.now
        self.scope.request_end(
            job.ctx, replica=name, attempts=job.attempts,
            queue_wait=max(0, job.start_ts - job.arrival_ts),
            service_cycles=service_cycles, breakdown=breakdown)
        self._dispatch(name)

    # -- run -------------------------------------------------------------

    def run(self) -> SurgeResult:
        """Attest, replay the plan on the scheduler, summarize."""
        self.fleet.attest_all()
        self._setup_pool()
        arrivals = self.plan.schedule()
        self.first_arrival = arrivals[0].ts
        for arrival in arrivals:
            self.sched.at(arrival.ts, ARRIVAL,
                          lambda a=arrival: self._on_arrival(a))
        while self.sched.step():
            self._autoscale()
        return self._result()

    def _result(self) -> SurgeResult:
        scope = self.scope
        latency, queue_wait, service = {}, {}, {}
        for klass, hist in scope.metrics.latencies_named(
                "latency").items():
            latency[klass] = hist.percentiles()
        for klass, hist in scope.metrics.latencies_named(
                "queue_wait").items():
            queue_wait[klass] = hist.percentiles()
        for klass, hist in scope.metrics.latencies_named(
                "service").items():
            service[klass] = hist.percentiles()
        makespan = max(0, self.last_completion - self.first_arrival)
        seconds = makespan / CLOCK_HZ if makespan else 0.0
        offered_span = self.plan.span_cycles() - self.first_arrival \
            + int(self.plan.offered_gap_cycles())
        offered = (self.config.requests /
                   (offered_span / CLOCK_HZ)) if offered_span else 0.0
        return SurgeResult(
            config=self.config, requests=self.config.requests,
            completed=self.completed, shed=self.shed, failed=self.failed,
            max_in_flight=self.max_in_flight,
            peak_queue_depth=self.peak_queue_depth,
            makespan_cycles=makespan,
            offered_rps=offered,
            throughput_rps=(self.completed / seconds) if seconds else 0.0,
            latency=latency, queue_wait=queue_wait, service=service,
            routed_by_replica={n: s.served
                               for n, s in sorted(self.servers.items())},
            scale_events=list(self.scale_events),
            active_high_water=self.active_high_water,
            scope=scope, fleet=self.fleet)


def run_surge(config: SurgeConfig | None = None, *,
              tracer: "Tracer | None" = None,
              scope: FleetScope | None = None) -> SurgeResult:
    """Boot, attest, and surge one fleet through an arrival plan."""
    return SurgeRun(config or SurgeConfig(), tracer=tracer,
                    scope=scope).run()

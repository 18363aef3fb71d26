"""The fleet's load-balancing front end.

The front end is an ordinary (non-CVM) host: it terminates client
traffic and fans requests out to attested replicas over per-link data
channels.  It never sees replica plaintext beyond what the links carry
-- it *is* the relying party that established those links, so it holds
the initiator ends.

Scheduling uses a deterministic virtual clock derived from the cycle
ledgers: the front end's own ledger (which the fabric charges for every
message) is "now", and each replica has a ``busy_until`` horizon pushed
forward by the measured service cycles of every request routed to it.
``outstanding`` is how far a replica's horizon sits beyond now -- the
queue depth a real least-outstanding balancer tracks -- so aggregate
throughput is the makespan of the resulting schedule and scales with
replica count.

Three routing policies, selectable by name:

``round-robin``
    Rotate through admitted replicas.
``least-outstanding``
    Route to the replica with the smallest outstanding-work horizon
    (ties break to the lowest replica index).
``consistent-hash``
    SHA-256 hash ring with virtual nodes keyed by the request key --
    stable key → replica affinity under membership change.

Failure semantics (veil-chaos): the fabric between the front end and
the replicas is *untrusted* -- it may drop, duplicate, delay, and
corrupt messages, and replicas may crash mid-request.  The request path
therefore assumes nothing about delivery: every logical request carries
an idempotent ``request_id``, failed attempts are retried with
deterministic exponential backoff, repeatedly-failing replicas are
struck and quarantined (degrading the routing candidate set instead of
raising), and quarantined replicas are periodically re-admitted through
a full re-attestation handshake (:attr:`FrontEnd.reattest`).  A request
only fails once every bounded retry against every candidate has been
exhausted.
"""

from __future__ import annotations

import typing
from bisect import bisect_left
from dataclasses import dataclass

from ..crypto import sha256
from ..errors import AttestationError, SecurityViolation, SimulationError
from ..hw.cycles import CLOCK_HZ, CycleLedger
from ..scope.collector import NULL_SCOPE
from ..scope.context import TraceContext
from ..trace.tracer import NULL_TRACER
from .attest import AttestedLink
from .net import InterHostNetwork, encode_message, try_decode

if typing.TYPE_CHECKING:
    from .replica import ClusterReplica


class RoutingPolicy:
    """Strategy interface: pick a replica name for one request."""

    name = "abstract"

    def choose(self, request: dict, candidates: list[str],
               outstanding: dict[str, int]) -> str:
        """Return the chosen replica name from ``candidates``."""
        raise NotImplementedError


class RoundRobin(RoutingPolicy):
    """Rotate through the admitted replica set."""

    name = "round-robin"

    def __init__(self):
        self._cursor = 0

    def choose(self, request, candidates, outstanding):
        """Pick the next replica in rotation, ignoring load."""
        picked = candidates[self._cursor % len(candidates)]
        self._cursor += 1
        return picked


class LeastOutstanding(RoutingPolicy):
    """Route to the replica with the least outstanding work."""

    name = "least-outstanding"

    def choose(self, request, candidates, outstanding):
        """Pick the idlest replica (name order breaks ties)."""
        return min(candidates, key=lambda n: (outstanding.get(n, 0), n))


class ConsistentHash(RoutingPolicy):
    """SHA-256 hash ring with virtual nodes, keyed by the request key."""

    name = "consistent-hash"
    VNODES = 16

    def __init__(self):
        self._ring: list[tuple[bytes, str]] = []
        self._positions: list[bytes] = []
        self._members: tuple[str, ...] = ()

    def _rebuild(self, candidates: list[str]) -> None:
        self._members = tuple(candidates)
        self._ring = sorted(
            (sha256(f"{name}#{vnode}".encode()), name)
            for name in candidates for vnode in range(self.VNODES))
        self._positions = [position for position, _name in self._ring]

    def choose(self, request, candidates, outstanding):
        """Map the request key to its clockwise ring successor.

        Binary search over the sorted ring positions (``bisect``), not a
        linear scan: the successor is the first position >= the key's
        hash point, wrapping to the first ring entry past the top.
        """
        if tuple(candidates) != self._members:
            self._rebuild(candidates)
        point = sha256(str(request.get("key", "")).encode())
        index = bisect_left(self._positions, point)
        if index == len(self._ring):
            index = 0
        return self._ring[index][1]


#: Policy registry for the CLI / benchmarks.
POLICIES: dict[str, type[RoutingPolicy]] = {
    RoundRobin.name: RoundRobin,
    LeastOutstanding.name: LeastOutstanding,
    ConsistentHash.name: ConsistentHash,
}


def make_policy(name: str) -> RoutingPolicy:
    """Instantiate a routing policy by registry name."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise SimulationError(
            f"unknown routing policy {name!r}; choose from "
            f"{', '.join(sorted(POLICIES))}") from None


@dataclass
class ReplicaHealth:
    """Per-replica failure bookkeeping held by the front end."""

    strikes: int = 0              # consecutive failed attempts
    quarantined: bool = False
    reason: str = ""              # why the replica was quarantined
    failures: int = 0             # all-time failed attempts
    reattested: int = 0           # successful re-admissions


class FrontEnd:
    """Attestation-aware load balancer over the fleet fabric."""

    #: Bounded retry budget for one logical request (attempts, not
    #: replicas: failover counts against the same budget).
    MAX_ATTEMPTS = 6
    #: Consecutive failures before a replica is quarantined.
    STRIKE_LIMIT = 3
    #: Deterministic backoff charged to the front-end ledger before
    #: retry ``n``: ``BACKOFF_BASE_CYCLES << min(n - 1, 6)``.
    BACKOFF_BASE_CYCLES = 4_000

    def __init__(self, net: InterHostNetwork, *, name: str = "frontend",
                 policy: "RoutingPolicy | str" = "least-outstanding",
                 tracer=None):
        self.net = net
        self.name = name
        self.policy = make_policy(policy) if isinstance(policy, str) \
            else policy
        self.tracer = tracer or NULL_TRACER
        #: Fleet-wide request-telemetry observer (veil-scope); the fleet
        #: swaps in a live collector on scoped runs.  Trace contexts are
        #: created and propagated regardless -- only observation toggles.
        self.scope = NULL_SCOPE
        #: The front end is a real host: the fabric charges its ledger.
        self.ledger = CycleLedger()
        net.attach(name, self.ledger)
        self._links: dict[str, AttestedLink] = {}
        self._replicas: dict[str, "ClusterReplica"] = {}
        #: Virtual-clock horizon (front-end ledger time) per replica.
        self.busy_until: dict[str, int] = {}
        self.routed: dict[str, int] = {}
        self.health: dict[str, ReplicaHealth] = {}
        #: Every replica ever admitted (the invariant checker uses this
        #: to assert no unattested replica served traffic).
        self.ever_admitted: set[str] = set()
        #: Re-attestation hook installed by the fleet: callable taking a
        #: replica name and returning a fresh :class:`AttestedLink`
        #: (raising ``AttestationError``/``SimulationError`` on failure).
        self.reattest: "typing.Callable[[str], AttestedLink] | None" = None
        self._request_seq = 0
        self.retries = 0
        #: All-time quarantine count (health entries reset on re-admit,
        #: this does not).
        self.quarantines = 0
        self._epoch = self.ledger.total

    # -- membership ------------------------------------------------------

    def admit(self, link: AttestedLink, replica: "ClusterReplica") -> None:
        """Add an attested replica to the routing set.

        Re-admission (after a successful re-attestation handshake)
        replaces the link -- fresh channels, fresh sequence space -- and
        clears the replica's failure record.
        """
        self._links[link.replica] = link
        self._replicas[link.replica] = replica
        self.busy_until.setdefault(link.replica, self.ledger.total)
        self.routed.setdefault(link.replica, 0)
        self.health[link.replica] = ReplicaHealth()
        self.ever_admitted.add(link.replica)

    @property
    def members(self) -> list[str]:
        """Admitted replica names, in index order."""
        return sorted(self._links, key=lambda n: self._replicas[n].index)

    @property
    def healthy(self) -> list[str]:
        """Admitted, non-quarantined replica names, in index order."""
        return [n for n in self.members
                if not self.health[n].quarantined]

    def link(self, name: str) -> AttestedLink:
        """The attested link for replica ``name`` (KeyError if not admitted)."""
        return self._links[name]

    def outstanding(self, name: str) -> int:
        """Cycles of queued work on ``name`` beyond the virtual now."""
        return max(0, self.busy_until.get(name, 0) - self.ledger.total)

    # -- health & recovery -----------------------------------------------

    def quarantine(self, name: str, reason: str) -> None:
        """Remove ``name`` from the routing candidates until re-attested."""
        health = self.health[name]
        if health.quarantined:
            return
        health.quarantined = True
        health.reason = reason
        # Drop the replica's scheduling state with it: whatever horizon
        # it had accrued is dead work now, and keeping it would skew
        # least-outstanding routing against the replica for its entire
        # first epoch back after re-admission (``admit`` re-seeds the
        # horizon at the virtual now of the heal).
        self.busy_until.pop(name, None)
        self.quarantines += 1
        self.tracer.instant("cluster", "replica_quarantined",
                            args={"replica": name, "reason": reason})
        self.tracer.metrics.count("replica_quarantined", name)

    def heal_quarantined(self) -> int:
        """Try to re-admit quarantined replicas via re-attestation.

        Each quarantined replica gets one fresh relying-party handshake
        (through :attr:`reattest`); success replaces the link and clears
        the quarantine, failure leaves it quarantined for the next heal
        sweep.  Returns how many replicas were re-admitted.
        """
        if self.reattest is None:
            return 0
        healed = 0
        for name in [n for n in self.members
                     if self.health[n].quarantined]:
            reattests = self.health[name].reattested
            try:
                link = self.reattest(name)
            except (AttestationError, SecurityViolation,
                    SimulationError) as refused:
                self.tracer.instant("cluster", "reattest_failed",
                                    args={"replica": name,
                                          "reason": str(refused)})
                self.tracer.metrics.count("reattest_failed", name)
                continue
            self.admit(link, self._replicas[name])
            self.health[name].reattested = reattests + 1
            self.tracer.metrics.count("replica_reattested", name)
            healed += 1
        return healed

    def _note_failure(self, name: str, reason: str, *,
                      ctx: "TraceContext | None" = None) -> None:
        """Record one failed attempt against ``name``; maybe quarantine."""
        health = self.health[name]
        health.strikes += 1
        health.failures += 1
        self.retries += 1
        if ctx is not None:
            self.scope.retry(ctx, name, reason)
        self.tracer.instant("cluster", "request_retry",
                            args={"replica": name, "reason": reason})
        self.tracer.metrics.count("request_retry", name)
        if health.strikes >= self.STRIKE_LIMIT:
            self.quarantine(name, reason)

    def _backoff(self, attempt: int) -> None:
        """Charge the deterministic retry backoff to the virtual clock."""
        cycles = self.BACKOFF_BASE_CYCLES << min(attempt - 1, 6)
        self.ledger.charge("backoff", cycles)

    # -- request path ----------------------------------------------------

    def allocate_request_id(self) -> int:
        """Claim the next idempotent request id (one per logical request)."""
        request_id = self._request_seq
        self._request_seq += 1
        return request_id

    def open_loop_attempt(self, name: str, payload: dict,
                          request_id: int, ctx: TraceContext
                          ) -> "tuple[dict, int, dict] | None":
        """One sealed round trip for an open-loop (surge) request.

        The surge scheduler owns arrival time, queueing, and completion
        on its event heap, so this path deliberately skips the
        closed-loop machinery -- no ``busy_until`` horizon push, no
        backoff charge, no retry loop.  Success bookkeeping runs through
        :meth:`_served` and failure bookkeeping (strikes, quarantine,
        scope retry records) through :meth:`_note_failure` inside
        :meth:`_attempt`, as in the closed loop, so chaos faults degrade
        the candidate set identically in both loops.

        Returns ``(result, service_cycles, breakdown)`` or ``None``.
        """
        body = dict(payload, request_id=request_id)
        out = self._attempt(name, body, request_id, ctx)
        if out is not None:
            self._served(name, out[1])
        return out

    def request(self, payload: dict) -> dict:
        """Route one closed-loop request and return the replica's reply.

        The request is retried (with failover across the healthy
        candidate set and deterministic backoff) until it completes or
        the bounded attempt budget is exhausted; only the latter raises.
        """
        if not self._links:
            raise SimulationError("no attested replicas admitted")
        request_id = self.allocate_request_id()
        # One trace context per logical request: trace_id is the
        # idempotent request id, span 0 is the root, each delivery
        # attempt is a child span.  Created unconditionally -- the
        # context rides the wire and must cost the same whether or not
        # a scope is observing.
        ctx = TraceContext(trace_id=request_id, span_id=0)
        klass = str(payload.get("op", "request"))
        self.scope.request_begin(ctx, klass)
        body = dict(payload, request_id=request_id)
        tried: set[str] = set()
        failures: list[str] = []
        for attempt in range(1, self.MAX_ATTEMPTS + 1):
            candidates = [n for n in self.healthy if n not in tried]
            if not candidates:
                tried.clear()
                candidates = self.healthy
            if not candidates:
                self.heal_quarantined()
                candidates = self.healthy
            if not candidates:
                break
            outstanding = {n: self.outstanding(n) for n in candidates}
            picked = self.policy.choose(body, candidates, outstanding)
            if attempt > 1:
                self._backoff(attempt)
            attempt_result = self._attempt(picked, body, request_id,
                                           ctx.child(attempt))
            if attempt_result is not None:
                result, service_cycles, breakdown = attempt_result
                self._complete(picked, service_cycles)
                self.scope.request_end(
                    ctx, replica=picked, attempts=attempt,
                    queue_wait=outstanding.get(picked, 0),
                    service_cycles=service_cycles, breakdown=breakdown)
                return result
            tried.add(picked)
            failures.append(picked)
        reason = (f"request {request_id} failed after {len(failures)} "
                  f"attempts (replicas tried: "
                  f"{', '.join(failures) or 'none'})")
        self.scope.request_failed(ctx, reason)
        raise SimulationError(reason)

    def _attempt(self, picked: str, body: dict, request_id: int,
                 ctx: TraceContext) -> "tuple[dict, int, dict] | None":
        """One sealed round trip to ``picked``; ``None`` on any failure."""
        link = self._links[picked]
        replica = self._replicas[picked]
        with self.tracer.span("cluster", "route",
                              args={"replica": picked,
                                    "policy": self.policy.name,
                                    "trace_id": ctx.trace_id,
                                    "span_id": ctx.span_id}):
            before = replica.ledger.snapshot()
            try:
                sealed = link.data.send(body)
            except SecurityViolation as refused:
                self._note_failure(picked, f"seal failed: {refused}",
                                   ctx=ctx)
                return None
            self.net.send(self.name, picked, encode_message(
                {"kind": "request", "request_id": request_id,
                 "record_hex": sealed.hex(),
                 "trace": ctx.as_wire()}))
            replica.pump()
            reply = self._reply_for(request_id, picked)
            if reply is None:
                self._note_failure(picked, "no reply", ctx=ctx)
                return None
            if reply.get("status") != "ok":
                self._note_failure(
                    picked, str(reply.get("reason", "refused")), ctx=ctx)
                return None
            try:
                result = link.data.receive(
                    bytes.fromhex(reply["record_hex"]))
            except (KeyError, ValueError) as malformed:
                self._note_failure(picked,
                                   f"malformed reply: {malformed}",
                                   ctx=ctx)
                return None
            except SecurityViolation as tampered:
                self._note_failure(picked,
                                   f"tampered reply: {tampered}",
                                   ctx=ctx)
                return None
            delta = replica.ledger.since(before)
            return result, delta.total, dict(delta.by_category)

    def _reply_for(self, request_id: int, picked: str) -> dict | None:
        """Drain this host's inbox for ``picked``'s reply to this attempt.

        Anything else in the inbox -- duplicated replies, delayed
        replies from a *different* replica tried earlier (same
        ``request_id``, wrong seal), late replies to requests that
        already completed, fabric garbage -- is discarded (and
        counted): the front end trusts only the sealed record inside a
        matching reply, never the envelope.
        """
        matched = None
        while self.net.pending(self.name):
            src, wire = self.net.recv(self.name)
            message = try_decode(wire)
            if message is not None and matched is None and \
                    src == picked and \
                    message.get("request_id") == request_id:
                matched = message
            else:
                self.tracer.metrics.count("frontend_discarded",
                                          "stale" if message is not None
                                          else "garbage")
        return matched

    def _complete(self, picked: str, service_cycles: int) -> None:
        """Closed-loop success: push the schedule horizon, then count."""
        now = self.ledger.total
        start = max(now, self.busy_until.get(picked, 0))
        self.busy_until[picked] = start + service_cycles
        self._served(picked, service_cycles)

    def _served(self, name: str, service_cycles: int) -> None:
        """Success bookkeeping both request paths share."""
        self.health[name].strikes = 0
        self.routed[name] = self.routed.get(name, 0) + 1
        self.tracer.metrics.count("cluster_route", name)
        self.tracer.metrics.observe("service_cycles", name,
                                    service_cycles)

    # -- schedule accounting ---------------------------------------------

    def reset_schedule(self) -> None:
        """Start a fresh makespan epoch (e.g. after warm-up requests)."""
        self._epoch = self.ledger.total
        for name in self.busy_until:
            self.busy_until[name] = self._epoch

    def makespan_cycles(self) -> int:
        """Virtual-clock span from the epoch to the last completion."""
        horizon = max(self.busy_until.values(),
                      default=self.ledger.total)
        return max(horizon, self.ledger.total) - self._epoch

    def throughput_rps(self) -> float:
        """Aggregate requests/second over the current epoch's schedule."""
        cycles = self.makespan_cycles()
        total = sum(self.routed.values())
        if cycles == 0:
            return 0.0
        return total / (cycles / CLOCK_HZ)

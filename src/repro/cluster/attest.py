"""Attestation-gated secure links between the front end and replicas.

The front end is the fleet's *relying party*: before any request is
routed to a replica CVM, it demands a PSP-signed attestation report over
the inter-host fabric, checks the launch measurement against the fleet's
expected-digest policy, and only then completes the DH handshake that
derives the per-link keys (the SNPGuard / e-vTPM verification flow, run
once per replica).  A replica whose report fails verification -- wrong
digest, forged signature, wrong requesting VMPL -- is never admitted to
the routing set; the rejection is a recorded trace event.

Each admitted link carries two :class:`~repro.crypto.SecureChannel`
instances derived from the same attested DH secret:

* the **control channel** -- the exact key VeilMon holds
  (``user_channel``), used for sealed log export and other
  monitor-mediated operations;
* the **data channel** -- a domain-separated derivation
  (``SHA-256(key || "veil-fleet-data")``) provisioned to the service
  replica, so high-rate request traffic cannot desynchronize the control
  channel's sequence numbers.

Keys are per-link and per-handshake: the relying-party DH keypair is
seeded from the expected measurement, the replica's name and the
verifier's running handshake count, so every replica gets its own key
and every re-attestation rotates it.  A record sealed for one replica is
garbage on every other link, and a record sealed before a
re-attestation is garbage on the link that replaces it (tested in
``tests/cluster/test_link_keys.py``).  The seed is deterministic, so
same-seed runs still replay byte for byte.

The monitor's side of the exchange does recur: every VeilMon derives
its DH pair from the same seed, so a fleet re-attesting after crashes
presents one monitor value again and again.  The verifier remembers
each monitor value whose handshake completed and raises it through a
:class:`~repro.crypto.FixedBase` table, built the first time the value
recurs and passes every check.  The table only speeds up the
exponentiation; every report is still verified in full, and the key is
the one ``pow`` would derive.  The tables live and die with the
verifier.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from ..crypto import FixedBase, SecureChannel, sha256
from ..errors import AttestationError
from ..hv.attestation import AttestationReport, RemoteUser
from ..hw import VMPL_MON
from ..hw.cycles import CostModel
from .net import encode_message, try_decode

if typing.TYPE_CHECKING:
    from ..hw.cycles import CycleLedger
    from .replica import ClusterReplica

#: Domain-separation label folded into the data-plane key derivation.
DATA_KEY_LABEL = b"veil-fleet-data"

#: Anti-replay window (in records) on every fleet channel.  The fabric
#: may drop or reorder traffic under fault injection, so links use a
#: DTLS-style sliding window instead of the strict in-order mode: a
#: retried request re-sealed under a fresh counter is accepted even
#: though earlier counters were lost, while true replays inside the
#: window are still refused.
CHANNEL_WINDOW = 64


def derive_data_key(link_key: bytes) -> bytes:
    """Domain-separated data-plane key from the attested link key."""
    return sha256(link_key + DATA_KEY_LABEL)


@dataclass
class AttestedLink:
    """One verified front-end <-> replica association."""

    replica: str                    # endpoint name on the fabric
    measurement_hex: str
    control: SecureChannel          # initiator end of VeilMon's channel
    data: SecureChannel             # initiator end of the data channel
    handshake_cycles: int = 0


@dataclass
class RejectedHandshake:
    """A replica that failed attestation and was refused admission."""

    replica: str
    reason: str


@dataclass
class FleetVerifier:
    """Relying-party policy + handshake driver for the whole fleet.

    ``expected_measurement`` is the digest of the boot image the fleet
    operator built; ``platform_public`` is the AMD platform signing key.
    Verification work (signature check, digest comparison, key
    derivation) is charged to the verifier's own ledger -- the front end
    is a real host with real CPUs.
    """

    expected_measurement: bytes
    platform_public: object
    ledger: "CycleLedger"
    cost: CostModel = field(default_factory=CostModel)
    tracer: object = None

    #: Handshakes begun so far; folded into each relying-party DH seed.
    handshakes: int = field(default=0, init=False)

    #: Fixed-base table of each monitor DH value (as sent) whose
    #: handshake completed; its rows are built when the value recurs.
    monitor_tables: dict[bytes, FixedBase] = field(
        default_factory=dict, init=False, repr=False)

    #: Relying-party bookkeeping around one handshake (nonce management,
    #: policy lookup, session install).
    HANDSHAKE_BASE_CYCLES = 20_000

    @staticmethod
    def _expect_reply(net, frontend_name: str, replica_name: str) -> dict:
        """Pop the replica's next well-formed handshake reply.

        Re-attestation after a crash can find the relying party's inbox
        holding stale replies from the pre-crash exchange (or fabric
        garbage under fault injection); those are discarded rather than
        misparsed as the handshake response.
        """
        while net.pending(frontend_name):
            src, wire = net.recv(frontend_name)
            if src != replica_name:
                continue
            reply = try_decode(wire)
            if reply is None or "request_id" in reply:
                continue      # garbage, or a stale data-path envelope
            return reply
        raise AttestationError(
            f"replica {replica_name} sent no handshake reply")

    def establish(self, replica: "ClusterReplica",
                  frontend_name: str) -> AttestedLink:
        """Run the full attestation handshake with one replica.

        Raises :class:`AttestationError` on any verification failure;
        the caller records the rejection and excludes the replica.
        """
        net = replica.net
        name = replica.name
        tracer = self.tracer or replica.tracer
        before_fe = self.ledger.total
        before_replica = replica.ledger.total
        with tracer.span("cluster", "handshake", args={"replica": name}):
            # Mint a fresh relying-party DH keypair and demand an
            # attestation report from the replica.
            self.handshakes += 1
            user = RemoteUser(self.expected_measurement,
                              self.platform_public,
                              session=(name.encode(),
                                       self.handshakes.to_bytes(8, "big")))
            net.send(frontend_name, name,
                     # veil-lint: allow(trace-context) -- control-plane frame: attestation precedes any request, so there is no trace context to carry
                     encode_message({"kind": "attest"}))
            replica.pump()
            reply = self._expect_reply(net, frontend_name, name)
            report_dict = reply.get("report")
            if not isinstance(report_dict, dict):
                raise AttestationError(
                    f"replica {name} returned no attestation report")
            try:
                report = AttestationReport(
                    measurement=bytes.fromhex(
                        report_dict["measurement_hex"]),
                    requester_vmpl=int(report_dict["requester_vmpl"]),
                    report_data=bytes.fromhex(
                        report_dict["report_data_hex"]),
                    signature=bytes.fromhex(report_dict["signature_hex"]))
                dh_public = bytes.fromhex(report_dict["dh_public_hex"])
            except (KeyError, ValueError, TypeError) as bad:
                raise AttestationError(
                    f"replica {name} sent a malformed "
                    f"attestation report: {bad}") from None
            # Relying-party verification cost: one RSA verify, hashing
            # the report body and the DH binding, plus session
            # bookkeeping.
            self.ledger.charge("crypto", self.cost.signature_verify +
                               self.cost.sha256_cost(len(dh_public)) +
                               self.HANDSHAKE_BASE_CYCLES)
            try:
                key = user.channel_key_from_report(
                    report, dh_public, require_vmpl=VMPL_MON,
                    table=self.monitor_tables.get(dh_public))
            except AttestationError as refused:
                tracer.instant("cluster", "handshake_rejected",
                               args={"replica": name,
                                     "reason": str(refused)})
                tracer.metrics.count("handshake_rejected", name)
                raise
            # Complete the handshake: hand VeilMon our DH public value so
            # it derives the same key, then provision the data channel.
            # veil-lint: allow(trace-context) -- control-plane frame: channel setup precedes any request, so there is no trace context to carry
            net.send(frontend_name, name, encode_message({
                "kind": "channel_init",
                "peer_public_hex": user.dh.public.to_bytes(256,
                                                           "big").hex()}))
            replica.pump()
            handshake_cycles = ((self.ledger.total - before_fe) +
                                (replica.ledger.total - before_replica))
            install = self._expect_reply(net, frontend_name, name)
            if install.get("status") != "ok":
                raise AttestationError(
                    f"replica {name} refused channel install")
            if dh_public not in self.monitor_tables:
                self.monitor_tables[dh_public] = FixedBase(
                    int.from_bytes(dh_public, "big"))
            link = AttestedLink(
                replica=name,
                measurement_hex=report.measurement.hex(),
                control=SecureChannel(key, role="initiator",
                                      window=CHANNEL_WINDOW),
                data=SecureChannel(derive_data_key(key),
                                   role="initiator",
                                   window=CHANNEL_WINDOW),
                handshake_cycles=handshake_cycles)
        tracer.metrics.observe("handshake_cycles", name, handshake_cycles)
        tracer.metrics.count("handshake_ok", name)
        return link

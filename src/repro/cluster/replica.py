"""One fleet member: a whole Veil CVM serving a workload replica.

A :class:`ClusterReplica` boots an independent
:class:`~repro.hw.platform.SevSnpMachine` + Veil stack (its own PSP
launch measurement, VeilMon, protected services, kernel, processes),
attaches it to the inter-host fabric, and runs one service replica --
the paper's memcached or SQLite workload model -- behind the
attestation-gated data channel.

Two hosting modes mirror the paper's evaluation axes:

* ``shielded=True`` (default): the request handler executes inside a
  VeilS-ENC enclave; every syscall it makes takes the redirection path
  with its domain-switch costs (Fig. 5's deployment);
* ``shielded=False``: the handler is an ordinary DomUNT process (the
  audited-native baseline of Fig. 6).

Either way VeilS-LOG auditing is active, so every served request leaves
chained audit records that the fleet auditor later pulls and verifies
over the attested control channel.
"""

from __future__ import annotations

import dataclasses
import typing

from ..core import VeilConfig, boot_veil_system
from ..core.boot import build_boot_image, module_signing_key
from ..core.services.base import ProtectedService
from ..crypto import SecureChannel, sha256
from ..errors import SecurityViolation
from ..kernel.net import AF_INET, SOCK_STREAM
from ..scope.context import TraceContext, extract_context
from ..workloads.audit_programs import (MEMCACHED_COMPUTE_PER_OP,
                                        MEMCACHED_VALUE_BYTES)
from ..workloads.base import NativeApi
from ..workloads.programs import (SQLITE_COMPUTE_PER_INSERT,
                                  SQLITE_JOURNAL_BYTES, SQLITE_ROW_BYTES)
from .attest import CHANNEL_WINDOW, derive_data_key
from .net import InterHostNetwork, encode_message, try_decode

if typing.TYPE_CHECKING:
    from ..trace.tracer import Tracer

#: Service port each replica's workload listens on (in-CVM loopback).
REPLICA_PORT = 11311

#: Replica workload models available to the fleet.
WORKLOADS = ("memcached", "sqlite")

#: Completed requests remembered for idempotent re-execution (per
#: replica).  Retries arrive within a handful of requests of the
#: original; 512 comfortably covers every retry window while bounding
#: memory on long runs.
IDEMPOTENCY_CACHE_ENTRIES = 512


class BackdoorService(ProtectedService):
    """A service that should *not* be in the fleet's measured image.

    Compiling it into a replica's boot image changes the launch digest,
    which is exactly how the acceptance tests model a tampered/backdoored
    replica: the machine boots fine, but the relying party's
    expected-digest policy rejects its attestation report.
    """

    name = "backdoor"


def expected_fleet_measurement(config: VeilConfig) -> bytes:
    """Launch digest of the *honest* boot image for ``config``.

    The fleet operator builds the image themselves, so the expected
    digest never includes services a tampered replica smuggled in via
    ``extra_services`` -- those are stripped before measuring.
    """
    clean = dataclasses.replace(config, extra_services=())
    fingerprint = module_signing_key().public.fingerprint()
    return sha256(build_boot_image(clean,
                                   trusted_key_fingerprint=fingerprint))


class ClusterReplica:
    """A booted Veil CVM attached to the fleet fabric."""

    def __init__(self, index: int, net: InterHostNetwork, *,
                 workload: str = "memcached", shielded: bool = True,
                 memory_bytes: int = 32 * 1024 * 1024,
                 num_cores: int = 2, log_storage_pages: int = 64,
                 tracer: "Tracer | None" = None,
                 tampered: bool = False):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown replica workload {workload!r}; "
                             f"choose from {', '.join(WORKLOADS)}")
        self.index = index
        self.name = f"replica{index}"
        self.net = net
        self.workload = workload
        self.shielded = shielded
        self.tampered = tampered
        extra = ((BackdoorService.name,
                  lambda veilmon: BackdoorService(veilmon)),) if tampered \
            else ()
        self.config = VeilConfig(
            memory_bytes=memory_bytes, num_cores=num_cores,
            log_storage_pages=log_storage_pages, tracer=tracer,
            extra_services=extra)
        self.system = boot_veil_system(self.config)
        self.system.integration.enable_protected_logging()
        net.attach(self.name, self.ledger)
        #: Data-plane channel endpoint, provisioned at handshake time.
        self.data_channel: SecureChannel | None = None
        self.requests_served = 0
        #: False while crashed (fault injection): the replica neither
        #: pumps its inbox nor keeps volatile channel state.
        self.alive = True
        self.crashes = 0
        #: Cold reboots (fresh system + ledger), distinct from crashes.
        self.reboots = 0
        #: request_id -> served result, for idempotent re-execution of
        #: retried requests (bounded FIFO).
        self._completed: dict[int, dict] = {}
        self._setup_service()

    # -- convenience accessors ------------------------------------------

    @property
    def machine(self):
        return self.system.machine

    @property
    def ledger(self):
        return self.system.machine.ledger

    @property
    def tracer(self):
        return self.system.machine.tracer

    @property
    def core(self):
        return self.system.boot_core

    # -- service setup ---------------------------------------------------

    def _setup_service(self) -> None:
        """Start the replica's service: listener, connection, handler."""
        kernel = self.system.kernel
        if self.shielded:
            from ..enclave import EnclaveHost, build_test_binary
            self._host = EnclaveHost(
                self.system,
                build_test_binary(f"{self.workload}-replica",
                                  heap_pages=8))
            self._host.launch()
            proc = self._host.proc
        else:
            self._host = None
            proc = kernel.create_process(f"{self.workload}-replica")
        self._proc = proc
        #: Plain-process API for setup work (socket plumbing, files).
        self._api = NativeApi(kernel, self.core, proc)
        listener = self._api.socket(AF_INET, SOCK_STREAM)
        self._api.bind(listener, "127.0.0.1", REPLICA_PORT)
        self._api.listen(listener, 64)
        self._client = kernel.net.socket(AF_INET, SOCK_STREAM)
        kernel.net.connect(self._client, "127.0.0.1", REPLICA_PORT)
        self._conn = self._api.accept(listener)
        if self.workload == "sqlite":
            from ..kernel.fs import O_APPEND, O_CREAT, O_RDWR
            self._db_fd = self._api.open("/tmp/replica.db",
                                         O_CREAT | O_RDWR)
            self._journal_fd = self._api.open(
                "/tmp/replica.db-journal", O_CREAT | O_RDWR | O_APPEND)
        self._store: dict[str, int] = {}

    # -- handshake-side hooks -------------------------------------------

    def provision_data_channel(self) -> None:
        """Derive the data-plane key from the freshly attested link.

        Models VeilMon provisioning the service replica with the
        domain-separated data key after the user channel is installed.
        """
        channel = self.system.veilmon.user_channel
        if channel is None:
            raise SecurityViolation(
                "data channel requires an established user channel")
        self.data_channel = SecureChannel(derive_data_key(channel.key),
                                          role="responder",
                                          window=CHANNEL_WINDOW)

    # -- crash / restart (fault injection) -------------------------------

    def crash(self) -> None:
        """Fail-stop this replica mid-flight.

        Volatile state dies with the CVM: the pending inbox is gone and
        so is the provisioned data channel -- after a restart the
        replica refuses sealed traffic until the relying party runs a
        fresh re-attestation handshake.
        """
        self.alive = False
        self.crashes += 1
        self.data_channel = None
        self.net.endpoint(self.name).inbox.clear()
        self.tracer.instant("chaos", "replica_crash",
                            args={"replica": self.name})
        self.tracer.metrics.count("chaos_crash", self.name)

    def restart(self) -> None:
        """Bring a crashed replica back (still unattested until healed).

        Messages the fabric delivered while the host was down are lost
        with it -- a rebooted machine does not replay its dead NIC's
        queue.
        """
        self.alive = True
        self.net.endpoint(self.name).inbox.clear()
        self.tracer.instant("chaos", "replica_restart",
                            args={"replica": self.name})
        self.tracer.metrics.count("chaos_restart", self.name)

    def reboot(self) -> None:
        """Cold-restart: boot a fresh CVM image on this fabric slot.

        Where :meth:`restart` brings the *same* machine back (ledger and
        measured state intact), a reboot rebuilds the whole stack --
        new machine, new launch measurement run, and crucially a new
        :class:`CycleLedger` starting at zero.  Callers that merge this
        ledger into a fleet timeline must swap it via
        :meth:`FleetClock.replace` (``ClusterFleet.reboot_replica`` does)
        or merged time would step backwards.  All volatile state dies:
        data channel, idempotency cache, in-memory store, NIC queue.
        The replica is up but unattested -- sealed traffic is refused
        until a fresh relying-party handshake re-admits it.
        """
        self.reboots += 1
        self.system = boot_veil_system(self.config)
        self.system.integration.enable_protected_logging()
        self.net.rebind(self.name, self.ledger)
        self.data_channel = None
        self._completed.clear()
        self.alive = True
        self._setup_service()
        self.tracer.instant("chaos", "replica_reboot",
                            args={"replica": self.name})
        self.tracer.metrics.count("chaos_reboot", self.name)

    # -- fabric message pump --------------------------------------------

    def pump(self) -> int:
        """Drain this replica's inbox, handling each message.

        The in-CVM path models the untrusted OS receiving fabric bytes
        and either relaying control requests to VeilMon / DomSER or
        dispatching sealed data records to the service replica.
        Returns the number of messages handled.  A crashed replica
        handles nothing; fabric garbage (bit-flipped envelopes) is
        dropped without a reply.
        """
        if not self.alive:
            return 0
        handled = 0
        while self.net.pending(self.name):
            src, wire = self.net.recv(self.name)
            message = try_decode(wire)
            if message is None:
                self.tracer.metrics.count("replica_garbage_dropped",
                                          self.name)
                continue
            reply = self._dispatch(message)
            self.net.send(self.name, src, encode_message(reply))
            handled += 1
        return handled

    def _dispatch(self, message: dict) -> dict:
        kind = message.get("kind")
        gateway = self.system.gateway
        if kind == "attest":
            return gateway.call_monitor(self.core, {"op": "attest"})
        if kind == "channel_init":
            reply = gateway.call_monitor(self.core, {
                "op": "user_channel_init",
                "peer_public_hex": message.get("peer_public_hex")})
            # A missing, non-hex or out-of-range value comes back as an
            # error reply: VeilMon installed no user channel, so no data
            # channel may be provisioned either.
            if reply.get("status") == "ok":
                self.provision_data_channel()
            return reply
        if kind == "log_export":
            try:
                start = int(message.get("start", 0))
            except (TypeError, ValueError):
                return {"status": "error", "reason": "malformed start"}
            reply = gateway.call_service(self.core, {
                "op": "log_export", "start": start})
            # Echo the chunk offset so the auditor can match retried
            # chunk replies to the request they answer.
            return dict(reply, start=start)
        if kind == "request":
            request_id = message.get("request_id")
            # Propagated trace context (veil-scope): extracted and
            # echoed regardless of observation, so reply bytes -- and
            # with them fabric cycle charges -- never depend on whether
            # a collector is attached.
            ctx = extract_context(message)
            try:
                sealed = bytes.fromhex(message.get("record_hex", ""))
            except ValueError:
                reply = {"status": "error", "request_id": request_id,
                         "reason": "malformed record"}
            else:
                reply = self._handle_request(sealed, ctx)
                reply["request_id"] = request_id
            if ctx is not None:
                reply["trace"] = ctx.as_wire()
            return reply
        return {"status": "error", "reason": f"unknown kind {kind!r}"}

    # -- the service replica --------------------------------------------

    def _handle_request(self, sealed: bytes,
                        ctx: "TraceContext | None" = None) -> dict:
        """Unseal one data record, serve it, and seal the response.

        Tampered, replayed, or out-of-window records are refused (the
        channel's verdict travels back as an error envelope; the sealed
        payload is never half-trusted).  A request id that already
        completed is served from the idempotency cache without
        re-executing the workload -- that is what makes front-end
        retries safe when only the *reply* was lost.
        """
        if self.data_channel is None:
            return {"status": "error", "reason": "no attested channel"}
        cost = self.machine.cost
        self.ledger.charge("crypto", cost.cipher_cost(len(sealed)))
        try:
            request = self.data_channel.receive(sealed)
        except SecurityViolation as refused:
            self.tracer.metrics.count("replica_refused", self.name)
            return {"status": "error", "reason": f"channel: {refused}"}
        request_id = request.get("request_id")
        cached = self._completed.get(request_id) \
            if request_id is not None else None
        if cached is not None:
            self.tracer.metrics.count("idempotent_replay", self.name)
            result = cached
        else:
            span_args = {"replica": self.name}
            if ctx is not None:
                # Link this serve span to the front end's request trace
                # (args come off the wire, so they are identical with
                # scope on or off).
                span_args["trace_id"] = ctx.trace_id
                span_args["span_id"] = ctx.span_id
            with self.tracer.span("cluster", f"serve:{self.workload}",
                                  vcpu=self.core.cpu_index,
                                  args=span_args):
                if self.workload == "memcached":
                    result = self._serve_memcached(request)
                else:
                    result = self._serve_sqlite(request)
            self.requests_served += 1
            if request_id is not None:
                self._completed[request_id] = result
                while len(self._completed) > IDEMPOTENCY_CACHE_ENTRIES:
                    self._completed.pop(next(iter(self._completed)))
        response = self.data_channel.send(result)
        self.ledger.charge("crypto", cost.cipher_cost(len(response)))
        return {"status": "ok", "record_hex": response.hex()}

    def _run_handler(self, body) -> dict:
        """Execute ``body(api)`` in the configured hosting mode."""
        if self._host is not None:
            from ..workloads.base import EnclaveApi
            return self._host.run(lambda libc: body(EnclaveApi(libc)))
        return body(self._api)

    def _serve_memcached(self, request: dict) -> dict:
        """One memaslap-style op against the in-CVM memcached model."""
        key = str(request.get("key", "key0"))
        if request.get("op") == "set":
            length = int(request.get("value_len", MEMCACHED_VALUE_BYTES))
            line = f"set {key} 0 0 {length}\r\n".encode() + b"V" * length
        else:
            length = self._store.get(key, MEMCACHED_VALUE_BYTES)
            line = f"get {key}\r\n".encode()
        self._client.send(line)

        def body(api):
            api.recv(self._conn, 1024)               # audited: recvfrom
            api.compute(MEMCACHED_COMPUTE_PER_OP)
            if request.get("op") == "set":
                self._store[key] = length
            return api.send(self._conn, b"V" * length)   # audited: sendto

        sent = self._run_handler(body)
        self._client.recv(length + 64)               # client drains reply
        return {"status": "ok", "op": request.get("op", "get"),
                "key": key, "bytes": sent}

    def _serve_sqlite(self, request: dict) -> dict:
        """One speedtest-style INSERT against the in-CVM SQLite model."""
        row = b"r" * int(request.get("row_bytes", SQLITE_ROW_BYTES))
        entry = b"j" * SQLITE_JOURNAL_BYTES

        def body(api):
            api.compute(SQLITE_COMPUTE_PER_INSERT)
            api.write(self._journal_fd, entry)       # audited: write
            return api.write(self._db_fd, row)       # audited: write

        written = self._run_handler(body)
        return {"status": "ok", "op": "insert", "bytes": written}

    # -- observability ---------------------------------------------------

    def log_entry_count(self) -> int:
        """Audit records currently held by this replica's VeilS-LOG."""
        return self.system.log.entry_count

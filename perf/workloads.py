"""The four workloads: what one round runs, counts and checks.

Every workload drives the system only through public ``repro``
functions.  A round boots what it needs (timed as set-up), does the
workload's work, and checks every output; a wrong answer counts as a
failed op.  :class:`Probe` holds the benchmark-side hooks that stay
installed for all rounds of a workload (so timed and traced rounds pay
for them alike): the set-up clock, the per-op virtual-latency sampler
and the output checkers.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from repro.bench.harness import BENCH_CONFIG, run_cs1, run_fig5, run_fig6
from repro.chaos.runner import ChaosConfig, run_chaos_cluster
from repro.cluster.fleet import ClusterFleet
from repro.cluster.frontend import FrontEnd
from repro.cluster.replica import MEMCACHED_VALUE_BYTES
from repro.core.boot import (VeilConfig, boot_native_system,
                             boot_veil_system, module_signing_key)
from repro.core.switch import MonitorGateway
from repro.crypto.hashes import MeasurementChain
from repro.enclave import EnclaveHost, build_test_binary
from repro.enclave.runtime import EnclaveRuntime
from repro.hw.cycles import CLOCK_HZ
from repro.kernel.fs import O_CREAT, O_RDWR
from repro.kernel.modules import build_module
from repro.surge.runner import SurgeConfig, SurgeRun
from repro.workloads.audit_programs import (AUDITED_PROGRAMS,
                                            audited_program_by_name)
from repro.workloads.base import EnclaveApi, NativeApi
from repro.workloads.programs import ENCLAVE_PROGRAMS
from repro.workloads.syscall_bench import SYSCALL_BENCHES, run_bench

import paper
from metrics import percentile
from reference import reference_kernel


# ---------------------------------------------------------------------------
# Benchmark-side hooks
# ---------------------------------------------------------------------------

class Checks:
    """Output checks of one round: each failed check is a failed op."""

    def __init__(self):
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        """Record one check; keep the first few failure messages."""
        if ok:
            return
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)


class Ledgers:
    """The ledgers a round charges, marked when set-up ends."""

    def __init__(self):
        self._entries: list[tuple[str, object, int, dict]] = []

    def track(self, label: str, ledger) -> None:
        """Follow ``ledger``; charges before this call count as set-up."""
        self._entries.append((label, ledger, ledger.total,
                              dict(ledger.by_category)))

    def work_cycles(self) -> tuple[int, dict]:
        """Cycles charged after set-up: total and per category."""
        total, by_category = 0, {}
        for _label, ledger, mark, marks in self._entries:
            total += ledger.total - mark
            for name, value in ledger.by_category.items():
                delta = value - marks.get(name, 0)
                if delta:
                    by_category[name] = by_category.get(name, 0) + delta
        return total, by_category

    def digest(self) -> str:
        """SHA-256 over every tracked ledger's final state, boot included."""
        state = [[label, ledger.total, sorted(ledger.by_category.items())]
                 for label, ledger, _mark, _marks in self._entries]
        return hashlib.sha256(json.dumps(state).encode()).hexdigest()


class Probe:
    """Hooks installed once per workload process, reset every round."""

    def __init__(self):
        self._patched: list[tuple[type, str, object]] = []
        #: The traced round's span recorder, while it runs.
        self.recorder = None
        self.reset()

    def reset(self) -> None:
        """Start a fresh round."""
        self.setup_s = 0.0
        self.ledgers = Ledgers()
        self.checks = Checks()
        self.latencies: list[int] = []
        self.sampling = False
        self.fleets: list[ClusterFleet] = []
        #: id(front end) -> its fleet's virtual clock.
        self.fleet_clock: dict[int, object] = {}
        #: Reference-kernel times of this round, and their sum.
        self.kernel_s: list[float] = []
        self.paused_s = 0.0

    def calibrate(self) -> None:
        """Time the reference kernel; rounds call this between phases
        and the harness takes the time back out of the round (and out
        of the traced round's spans)."""
        start = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - start
        self.kernel_s.append(elapsed)
        self.paused_s += elapsed
        if self.recorder is not None:
            self.recorder.exclude(elapsed)

    def boot(self, fn, *args, **kwargs):
        """Call a boot function, adding its host time to set-up."""
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.setup_s += time.perf_counter() - start

    def patch(self, cls: type, name: str, make) -> None:
        """Replace ``cls.name`` with ``make(original)`` until :meth:`close`."""
        original = cls.__dict__[name]
        self._patched.append((cls, name, original))
        setattr(cls, name, make(original))

    def close(self) -> None:
        """Restore everything :meth:`patch` replaced."""
        while self._patched:
            cls, name, original = self._patched.pop()
            setattr(cls, name, original)

    # -- fleets ----------------------------------------------------------

    def watch_fleets(self) -> None:
        """Time ``ClusterFleet(...)`` as set-up and track its ledgers."""
        probe = self

        def make(original):
            def __init__(fleet, *args, **kwargs):
                probe.boot(original, fleet, *args, **kwargs)
                tag = f"fleet{len(probe.fleets)}"
                probe.fleets.append(fleet)
                probe.fleet_clock[id(fleet.frontend)] = fleet.clock
                for name, replica in sorted(fleet.replicas.items()):
                    probe.ledgers.track(f"{tag}/{name}", replica.ledger)
                probe.ledgers.track(f"{tag}/frontend", fleet.frontend.ledger)
                probe.ledgers.track(f"{tag}/auditor", fleet.auditor.ledger)
            return __init__
        self.patch(ClusterFleet, "__init__", make)

    def fleet_counters(self) -> dict:
        """Replica and recovery counters summed over the round's fleets."""
        replicas = [r for fleet in self.fleets
                    for r in fleet.replicas.values()]
        frontends = [fleet.frontend for fleet in self.fleets]
        return {
            "tlb": tlb_stats([r.machine for r in replicas]),
            "log.entries": sum(r.log_entry_count() for r in replicas),
            "cluster.retries": sum(f.retries for f in frontends),
            "cluster.quarantines": sum(f.quarantines for f in frontends),
            "cluster.reattestations": sum(h.reattested for f in frontends
                                          for h in f.health.values()),
        }

    # -- per-op virtual latency ------------------------------------------

    def sample_latency(self, cls: type, name: str, clock_of) -> None:
        """Record the virtual-clock cost of each outermost ``cls.name``
        call made while :attr:`sampling` is on; ``clock_of(self, args)``
        returns the object whose ``.total`` is that clock."""
        probe = self
        depth = [0]

        def make(original):
            def sampled(obj, *args, **kwargs):
                if not probe.sampling or depth[0]:
                    return original(obj, *args, **kwargs)
                clock = clock_of(obj, args)
                before = clock.total
                depth[0] += 1
                try:
                    return original(obj, *args, **kwargs)
                finally:
                    depth[0] -= 1
                    probe.latencies.append(clock.total - before)
            return sampled
        self.patch(cls, name, make)

    # -- memcached replies -----------------------------------------------

    def check_memcached(self, payload: dict, result, lengths: dict) -> None:
        """A reply must answer its request; a get returns the last set."""
        key = payload["key"]
        ok = (isinstance(result, dict) and result.get("status") == "ok"
              and result.get("op") == payload["op"]
              and result.get("key") == key)
        if ok and payload["op"] == "set":
            lengths[key] = result.get("bytes")
        elif ok:
            ok = result.get("bytes") == lengths.get(key,
                                                    MEMCACHED_VALUE_BYTES)
        self.checks.expect(ok, f"memcached reply {result!r} for {payload!r}")


def tlb_stats(machines) -> dict:
    """Software-TLB counters summed over ``machines``."""
    totals: dict[str, int] = {}
    for machine in machines:
        for name, value in machine.tlb_stats().items():
            totals[name] = totals.get(name, 0) + value
    return totals


@dataclass
class RoundOutput:
    """What a workload's round reports besides the probe's state."""

    ops: int
    attempted: int
    failed: int = 0
    goodput: float = 0.0
    counters: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

class Workload:
    """Base: one named workload (see README for why each exists)."""

    name = ""
    loop = ""
    sizes: dict = {}

    def __init__(self, seed: int):
        self.seed = seed
        self.paper_err_pp = 0.0

    def install(self, probe: Probe) -> None:
        """Install this workload's hooks on ``probe``."""

    def baselines(self) -> None:
        """Warm-up-only work: reference runs and ``paper_err_pp``."""

    def round(self, probe: Probe) -> RoundOutput:
        """Run one round (set-up, work, checks)."""
        raise NotImplementedError


#: The enclave-syscalls sweep: turbo-shaped reads of a 16 KiB buffer.
SWEEP_ITERS = 4
SWEEP_PASSES = 300
SWEEP_BYTES = 16 * 1024
SWEEP_STRIDE = 64
#: Fig. 4 iterations per syscall (Table 3 parameters).
FIG4_ITERATIONS = 600


def _sweep(libc) -> int:
    """Write a buffer through a redirected file, then re-read it densely."""
    pattern = bytes(range(256)) * (SWEEP_BYTES // 256)
    fd = libc.open("/tmp/perf-sweep", O_CREAT | O_RDWR)
    libc.write(fd, pattern)
    good = 0
    for _ in range(SWEEP_ITERS):
        libc.lseek(fd, 0, 0)
        data = libc.read(fd, SWEEP_BYTES)
        buf = libc.malloc(SWEEP_BYTES)
        libc.poke(buf, data)
        for _ in range(SWEEP_PASSES):
            good += libc.peek(buf, SWEEP_BYTES) == pattern
        for off in range(0, SWEEP_BYTES, SWEEP_STRIDE):
            good += libc.peek(buf + off, SWEEP_STRIDE) == \
                pattern[off:off + SWEEP_STRIDE]
        libc.free(buf)
    libc.close(fd)
    return good


SWEEP_EXPECTED = SWEEP_ITERS * (SWEEP_PASSES + SWEEP_BYTES // SWEEP_STRIDE)


class EnclaveSyscalls(Workload):
    """VeilS-ENC: one enclave thread issuing redirected syscalls."""

    name = "enclave-syscalls"
    loop = "closed"
    sizes = {"memory_mib": 48, "cores": 2,
             "fig4_iterations_per_syscall": FIG4_ITERATIONS,
             "fig5_programs": len(ENCLAVE_PROGRAMS),
             "sweep": f"{SWEEP_ITERS}x{SWEEP_PASSES} x 16 KiB"}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.native_outputs: dict = {}

    def install(self, probe: Probe) -> None:
        probe.sample_latency(EnclaveRuntime, "syscall",
                             lambda runtime, args: runtime.machine.ledger)

    def baselines(self) -> None:
        native = boot_native_system(BENCH_CONFIG)
        for program in ENCLAVE_PROGRAMS:
            state = program.setup(native.kernel)
            api = NativeApi(native.kernel, native.boot_core,
                            native.kernel.create_process(program.name))
            self.native_outputs[program.name] = program.run(api, state)
        self.paper_err_pp = paper.error_pp(paper.fig5_overheads(run_fig5()))

    def round(self, probe: Probe) -> RoundOutput:
        system = probe.boot(boot_veil_system, BENCH_CONFIG)
        host = EnclaveHost(system, build_test_binary(
            "perf-enclave", heap_pages=24), shared_pages=24)
        runtime = probe.boot(host.launch)
        probe.ledgers.track("cvm", system.machine.ledger)
        calls, exits = runtime.syscall_count, runtime.enclave_exits
        redirected = runtime.redirect_bytes
        checks = probe.checks
        probe.sampling = True

        def fig4(libc):
            api = EnclaveApi(libc)
            return [run_bench(system.machine, api, bench,
                              iterations=FIG4_ITERATIONS).cycles
                    for bench in SYSCALL_BENCHES]

        checks.expect(all(host.run(fig4)), "a Fig. 4 syscall cost nothing")
        probe.calibrate()
        for program in ENCLAVE_PROGRAMS:
            state = program.setup(system.kernel)
            out = host.run(lambda libc, p=program, s=state:
                           p.run(EnclaveApi(libc), s))
            checks.expect(out == self.native_outputs[program.name],
                          f"{program.name}: enclave returned {out!r}, "
                          f"native {self.native_outputs[program.name]!r}")
        probe.calibrate()
        checks.expect(host.run(_sweep) == SWEEP_EXPECTED,
                      "sweep read back the wrong bytes")
        probe.sampling = False
        ops = runtime.syscall_count - calls
        stats = tlb_stats([system.machine])
        work_cycles, _ = probe.ledgers.work_cycles()
        return RoundOutput(
            ops=ops, attempted=ops,
            goodput=ops / (work_cycles / CLOCK_HZ),
            counters={
                "tlb": stats,
                "enclave.exits": runtime.enclave_exits - exits,
                "enclave.redirect_bytes": runtime.redirect_bytes - redirected,
            })


#: Audit-log CVM: the Fig. 6 configuration with room for every record.
AUDIT_CONFIG = VeilConfig(memory_bytes=48 * 1024 * 1024, num_cores=2,
                          log_storage_pages=1024)
CS1_REPETITIONS = 100


def _export_logs(system, user) -> tuple[list[str], str]:
    """Pull every VeilS-LOG record over the remote user's channel."""
    records, chain_hex, cursor = [], "", 0
    while cursor is not None:
        reply = system.gateway.call_service(
            system.boot_core, {"op": "log_export", "start": cursor})
        payload = user.channel.receive(bytes.fromhex(reply["record_hex"]))
        records.extend(payload["logs"])
        chain_hex = payload["chain_hex"]
        cursor = reply["next"]
    return records, chain_hex


class AuditLog(Workload):
    """VeilS-LOG and VeilS-KCI: protected-service requests from the OS."""

    name = "audit-log"
    loop = "closed"
    sizes = {"memory_mib": 48, "cores": 2,
             "log_pages": AUDIT_CONFIG.log_storage_pages,
             "fig6_programs": len(AUDITED_PROGRAMS),
             "cs1_module_bytes": 4728,
             "cs1_repetitions": CS1_REPETITIONS}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.outputs: dict | None = None

    def install(self, probe: Probe) -> None:
        probe.sample_latency(MonitorGateway, "call_service",
                             lambda gateway, args: args[0].machine.ledger)

    def baselines(self) -> None:
        measured = paper.fig6_overheads(run_fig6())
        measured.update(paper.cs1_overheads(run_cs1(CS1_REPETITIONS)))
        self.paper_err_pp = paper.error_pp(measured)

    def round(self, probe: Probe) -> RoundOutput:
        system = probe.boot(boot_veil_system, AUDIT_CONFIG)
        probe.ledgers.track("cvm", system.machine.ledger)
        kernel, core, checks = system.kernel, system.boot_core, probe.checks
        user = system.attest_and_connect()
        system.integration.enable_protected_logging()
        system.integration.activate_kci(core)
        image = build_module("perf_cs1", text_size=4728,
                             extra_data_pages=4,
                             signing_key=module_signing_key())
        entries = system.log.entry_count
        probe.sampling = True
        outputs = {}
        for program in AUDITED_PROGRAMS:
            state = program.setup(kernel)
            api = NativeApi(kernel, core, kernel.create_process(program.name))
            outputs[program.name] = program.run(api, state)
        probe.calibrate()
        modules = 0
        for _ in range(CS1_REPETITIONS):
            system.integration.load_module(core, image)
            modules += image.name in kernel.module_loader.loaded
            system.integration.unload_module(core, image.name)
            modules += image.name not in kernel.module_loader.loaded
        probe.sampling = False
        checks.expect(modules == 2 * CS1_REPETITIONS,
                      f"{2 * CS1_REPETITIONS - modules} module loads or "
                      "unloads did not take effect")
        if self.outputs is None:
            self.outputs = outputs
        checks.expect(outputs == self.outputs,
                      f"program results {outputs} != {self.outputs}")
        appended = system.log.entry_count - entries
        records, chain_hex = _export_logs(system, user)
        chain = MeasurementChain()
        for record in records:
            chain.extend("log", record.encode("utf-8"))
        checks.expect(len(records) == system.log.entry_count and
                      system.log.dropped == 0,
                      f"exported {len(records)} of "
                      f"{system.log.entry_count} records "
                      f"({system.log.dropped} dropped)")
        checks.expect(chain.hexdigest == chain_hex,
                      "sealed log export does not match its MAC chain")
        ops = appended + 2 * CS1_REPETITIONS
        work_cycles, _ = probe.ledgers.work_cycles()
        return RoundOutput(
            ops=ops, attempted=ops,
            goodput=ops / (work_cycles / CLOCK_HZ),
            counters={"tlb": tlb_stats([system.machine]),
                      "log.entries": appended})


def _memcached_paper_err() -> float:
    """Fleet replicas serve the Fig. 6 memcached model under VeilS-LOG."""
    rows = run_fig6([audited_program_by_name("Memcached")])
    return paper.error_pp(paper.fig6_overheads(rows))


#: fleet-surge shape: 8 replicas x 2 slots, memcached 90:10 get:set.
SURGE_REPLICAS = 8
SURGE_REQUESTS = 2000
SURGE_LATENCY_LOAD = 0.8
SURGE_GOODPUT_LOAD = 1.5


class FleetSurge(Workload):
    """Open-loop Poisson arrivals on an attested 8-replica fleet."""

    name = "fleet-surge"
    loop = "open"
    sizes = {"replicas": SURGE_REPLICAS, "slots_per_replica": 2,
             "requests_per_run": SURGE_REQUESTS,
             "loads": [SURGE_LATENCY_LOAD, SURGE_GOODPUT_LOAD],
             "arrivals": "poisson", "mix": "memcached 90:10 get:set"}

    def install(self, probe: Probe) -> None:
        probe.watch_fleets()
        lengths: dict = {}

        def make(original):
            def open_loop_attempt(frontend, name, payload, request_id, ctx):
                out = original(frontend, name, payload, request_id, ctx)
                if out is not None:
                    probe.check_memcached(payload, out[0], lengths)
                return out
            return open_loop_attempt
        probe.patch(FrontEnd, "open_loop_attempt", make)

    def baselines(self) -> None:
        self.paper_err_pp = _memcached_paper_err()

    def _run(self, probe: Probe, load: float):
        run = SurgeRun(SurgeConfig(seed=self.seed, replicas=SURGE_REPLICAS,
                                   requests=SURGE_REQUESTS, load=load))
        result = run.run()
        checks = probe.checks
        checks.expect(result.completed + result.shed + result.failed ==
                      SURGE_REQUESTS,
                      f"load {load}: completed {result.completed} + shed "
                      f"{result.shed} + failed {result.failed} != offered")
        plan = sorted(run.plan.schedule(), key=lambda a: a.index)
        records = sorted(result.scope.records, key=lambda r: r.trace_id)
        late = [r.arrival - a.ts for r, a in zip(records, plan)]
        checks.expect(len(records) == len(plan),
                      f"load {load}: {len(records)} scope records for "
                      f"{len(plan)} arrivals")
        return result, records, max(late, default=0)

    def round(self, probe: Probe) -> RoundOutput:
        low, records, late_low = self._run(probe, SURGE_LATENCY_LOAD)
        probe.calibrate()
        high, _high_records, late_high = self._run(probe, SURGE_GOODPUT_LOAD)
        lateness = max(late_low, late_high)
        probe.checks.expect(lateness == 0,
                            f"arrivals fired up to {lateness} cycles late")
        served = [r for r in records if r.status == "ok"]
        probe.latencies = [r.latency for r in served]
        ops = low.completed + high.completed
        counters = {
            "surge.queue_wait_p99_cycles": percentile(
                [r.queue_wait for r in served], 99),
            "surge.service_p99_cycles": percentile(
                [r.service_cycles for r in served], 99),
            "surge.max_in_flight": high.max_in_flight,
            "surge.peak_queue_depth": high.peak_queue_depth,
            "surge.arrival_lateness_cycles": lateness,
            **probe.fleet_counters(),
        }
        return RoundOutput(
            ops=ops, attempted=2 * SURGE_REQUESTS,
            failed=low.shed + low.failed + high.shed + high.failed,
            goodput=high.throughput_rps, counters=counters)


#: fleet-chaos shape: the crash schedule on 4 replicas.  Which replica a
#: crash hits is seeded, and recovery work per request moves with it
#: (41 to 54 re-attestations per 400 requests over seeds 1-10); 1800
#: requests average that down.
CHAOS_PROFILE = "crash"
CHAOS_REPLICAS = 4
CHAOS_REQUESTS = 1800
#: The round is one call, so the reference kernel also runs every this
#: many requests to follow the machine's speed through it.
CHAOS_CALIBRATE_EVERY = 200


class FleetChaos(Workload):
    """Closed loop with retries while the schedule crashes replicas."""

    name = "fleet-chaos"
    loop = "closed"
    sizes = {"replicas": CHAOS_REPLICAS, "requests": CHAOS_REQUESTS,
             "profile": CHAOS_PROFILE, "mix": "memcached 90:10 get:set"}

    def install(self, probe: Probe) -> None:
        probe.watch_fleets()
        lengths: dict = {}
        served = [0]

        def make(original):
            def request(frontend, payload):
                result = original(frontend, payload)
                probe.check_memcached(payload, result, lengths)
                served[0] += 1
                if served[0] % CHAOS_CALIBRATE_EVERY == 0:
                    probe.calibrate()
                return result
            return request
        probe.patch(FrontEnd, "request", make)
        probe.sample_latency(
            FrontEnd, "request",
            lambda frontend, args: probe.fleet_clock[id(frontend)])

    def baselines(self) -> None:
        self.paper_err_pp = _memcached_paper_err()

    def round(self, probe: Probe) -> RoundOutput:
        probe.sampling = True
        result = run_chaos_cluster(ChaosConfig(
            seed=self.seed, profile=CHAOS_PROFILE, replicas=CHAOS_REPLICAS,
            requests=CHAOS_REQUESTS))
        probe.sampling = False
        invariants = result.invariants
        probe.checks.expect(invariants.ok,
                            f"chaos invariants: {invariants.violations}")
        injected = [e for e in result.events
                    if e[1] not in ("restart", "flush_held",
                                    "request_failed")]
        return RoundOutput(
            ops=result.completed, attempted=CHAOS_REQUESTS,
            failed=result.failed + (0 if invariants.ok
                                    else result.completed),
            goodput=result.cluster.throughput_rps,
            counters={
                "chaos.injected_events": len(injected),
                **probe.fleet_counters(),
            })


WORKLOADS = {cls.name: cls for cls in
             (EnclaveSyscalls, AuditLog, FleetSurge, FleetChaos)}

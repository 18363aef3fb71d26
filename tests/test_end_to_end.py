"""End-to-end scenario: every Veil component in one CVM lifetime.

Exercises the complete story the paper tells: boot, attest, protect the
kernel, enable logging, run a shielded computation, get compromised,
survive, and hand evidence to the remote user.
"""

import json

import pytest

from repro.core import VeilConfig, boot_veil_system, module_signing_key
from repro.enclave import EnclaveHost, build_test_binary
from repro.errors import CvmHalted
from repro.kernel import layout
from repro.kernel.fs import O_CREAT, O_RDWR
from repro.kernel.modules import build_module


@pytest.fixture(scope="module")
def story():
    """One CVM lifetime shared by the (ordered, read-only) assertions."""
    system = boot_veil_system(VeilConfig(
        memory_bytes=48 * 1024 * 1024, num_cores=2,
        log_storage_pages=256))
    core = system.boot_core
    record = {"system": system}

    # 1. Attestation + secure channel.
    record["user"] = system.attest_and_connect()

    # 2. Protect the kernel, load a driver, enable logging.
    system.integration.activate_kci(core)
    image = build_module("nic_driver", text_size=8192,
                         extra_data_pages=2,
                         signing_key=module_signing_key())
    record["module"] = system.integration.load_module(core, image)
    system.integration.enable_protected_logging()

    # 3. Run a shielded computation that processes a "sensitive" file.
    binary = build_test_binary("tax-calculator", heap_pages=8)
    host = EnclaveHost(system, binary)
    host.launch()
    host.attest(binary.expected_measurement(layout.ENCLAVE_BASE))

    def compute_taxes(libc):
        fd = libc.open("/tmp/income.csv", O_CREAT | O_RDWR)
        libc.write(fd, b"alice,100000\nbob,85000\n")
        libc.lseek(fd, 0, 0)
        rows = libc.read(fd, 256).split(b"\n")
        libc.close(fd)
        libc.compute(500_000)
        total = sum(int(row.split(b",")[1]) for row in rows if row)
        out = libc.open("/tmp/tax-report.txt", O_CREAT | O_RDWR)
        libc.write(out, f"total-income={total}".encode())
        libc.close(out)
        return total

    record["total"] = host.run(compute_taxes)
    record["host"] = host
    record["entries_before_attack"] = system.log.entry_count
    return record


class TestEndToEnd:
    def test_shielded_computation_correct(self, story):
        assert story["total"] == 185_000
        system = story["system"]
        report = bytes(
            system.kernel.fs.resolve("/tmp/tax-report.txt").data)
        assert report == b"total-income=185000"

    def test_audit_trail_captured_enclave_io(self, story):
        """The proxied enclave syscalls were audited like any other."""
        assert story["entries_before_attack"] >= 8

    def test_module_loaded_via_kci(self, story):
        assert story["module"].loaded_by == "veils-kci"

    def test_remote_user_can_pull_evidence(self, story):
        system, user = story["system"], story["user"]
        collected = []
        cursor = 0
        while cursor is not None:
            reply = system.gateway.call_service(
                system.boot_core, {"op": "log_export", "start": cursor})
            payload = user.channel.receive(
                bytes.fromhex(reply["record_hex"]))
            collected.extend(payload["logs"])
            cursor = reply["next"]
        assert len(collected) == story["entries_before_attack"]
        syscalls = {json.loads(blob)["detail"].get("syscall")
                    for blob in collected
                    if json.loads(blob)["kind"] == "syscall"}
        assert "open" in syscalls and "write" in syscalls

    def test_compromise_cannot_rewrite_history(self, story):
        system = story["system"]
        attacker = system.kernel.compromise(system.boot_core)
        with pytest.raises(CvmHalted):
            attacker.tamper_audit_storage()

    def test_compromise_cannot_reach_enclave_or_module(self, story):
        # The CVM halted in the previous test; state inspection still
        # shows every protected page inaccessible at DomUNT.
        system = story["system"]
        from repro.hw import VMPL_UNT
        from repro.hw.rmp import Access
        host = story["host"]
        setup = system.integration.enclaves[host.enclave_id]
        probes = list(setup.region_ppns.values())[:4] + \
            story["module"].ppns[:1] + system.log.storage_ppns[:1]
        for ppn in probes:
            ent = system.machine.rmp.peek(ppn)
            assert not ent.allows(VMPL_UNT, Access.WRITE)

"""Integration tests: the enclave runtime, SDK libc, and host flow."""

import pytest

from repro.hw import VMPL_ENC, VMPL_UNT
from repro.enclave import EnclaveHost, build_test_binary
from repro.errors import SdkError
from repro.kernel.fs import O_CREAT, O_RDWR


@pytest.fixture
def host(veil):
    host = EnclaveHost(veil, build_test_binary("rt-test", heap_pages=8))
    host.launch()
    return host


class TestEntryExit:
    def test_run_enters_and_exits(self, host, veil):
        core = veil.boot_core

        def probe(libc):
            return libc.rt.core.vmpl

        assert host.run(probe) == VMPL_ENC
        assert core.vmpl == VMPL_UNT

    def test_double_enter_rejected(self, host):
        def nested(libc):
            libc.rt.enter()

        with pytest.raises(SdkError):
            host.run(nested)

    def test_double_launch_rejected(self, host):
        with pytest.raises(SdkError):
            host.launch()

    def test_enclave_memory_access_outside_rejected(self, host):
        with pytest.raises(SdkError):
            host.runtime.enclave_read(0x20000000, 4)

    def test_switch_counting(self, host):
        before = host.runtime.enclave_exits
        host.run(lambda libc: libc.getpid())
        # entry + one syscall round trip
        assert host.runtime.enclave_exits >= before + 2


class TestLibc:
    def test_file_io_roundtrip(self, host):
        def body(libc):
            fd = libc.open("/tmp/enclave-file", O_CREAT | O_RDWR)
            libc.write(fd, b"inside the enclave")
            libc.lseek(fd, 0, 0)
            data = libc.read(fd, 64)
            libc.close(fd)
            return data

        assert host.run(body) == b"inside the enclave"

    def test_getpid_matches_host_process(self, host):
        assert host.run(lambda libc: libc.getpid()) == host.proc.pid

    def test_printf_reaches_console_via_redirect(self, host, veil):
        def body(libc):
            for _ in range(300):
                libc.printf("enclave says hi!\n")       # >4 KiB: flush

        host.run(body)
        assert "enclave says hi!" in veil.hv.console.output

    def test_malloc_free_inside(self, host):
        def body(libc):
            ptr = libc.malloc(128)
            libc.poke(ptr, b"heap data")
            data = libc.peek(ptr, 9)
            libc.free(ptr)
            return data

        assert host.run(body) == b"heap data"

    def test_mmap_roundtrip(self, host):
        def body(libc):
            addr = libc.mmap(8192)
            libc.munmap(addr, 8192)
            return addr

        addr = host.run(body)
        assert addr != 0
        assert not host.runtime.address_in_enclave(addr)

    def test_sockets_through_redirection(self, host, veil):
        kernel = veil.kernel

        def server(libc):
            listener = libc.socket()
            libc.bind(listener, "127.0.0.1", 4433)
            libc.listen(listener)
            client = kernel.net.socket(2, 1)
            kernel.net.connect(client, "127.0.0.1", 4433)
            client.send(b"hello-enclave")
            conn = libc.accept(listener)
            got = libc.recv(conn, 64)
            libc.send(conn, b"ack:" + got)
            reply = client.recv(64)
            libc.close(conn)
            libc.close(listener)
            return reply

        assert host.run(server) == b"ack:hello-enclave"

    def test_getrandom(self, host):
        blob = host.run(lambda libc: libc.getrandom(16))
        assert len(blob) == 16

    def test_compute_accrues_cycles(self, host, veil):
        before = veil.machine.ledger.category("compute")
        host.run(lambda libc: libc.compute(123_456))
        assert veil.machine.ledger.category("compute") - before >= 123_456


class TestTimerRelay:
    def test_interrupts_relayed_and_enclave_resumed(self, host, veil):
        tick = veil.kernel.scheduler.tick_interval_cycles

        def spin(libc):
            for _ in range(3):
                libc.compute(tick + 1)
            return libc.rt.core.vmpl

        assert host.run(spin) == VMPL_ENC
        assert host.runtime.interrupt_exits >= 3

    def test_relay_charges_kernel_handler(self, host, veil):
        tick = veil.kernel.scheduler.tick_interval_cycles
        before = veil.machine.ledger.category("interrupt")
        host.run(lambda libc: libc.compute(tick + 1))
        assert veil.machine.ledger.category("interrupt") > before


class TestMeasurementFlow:
    def test_attest_accepts_genuine(self, host):
        from repro.kernel import layout
        host.attest(host.binary.expected_measurement(
            layout.ENCLAVE_BASE))

    def test_attest_rejects_other_binary(self, host):
        from repro.kernel import layout
        other = build_test_binary("different", heap_pages=8)
        with pytest.raises(SdkError):
            host.attest(other.expected_measurement(layout.ENCLAVE_BASE))

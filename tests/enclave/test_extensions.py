"""Extension features: syscall batching, multi-threaded enclaves, and
consensual enclave-to-enclave sharing (paper sections 7 and 10)."""

import pytest

from repro.hw import VMPL_ENC
from repro.enclave import EnclaveHost, build_test_binary
from repro.errors import SdkError, SecurityViolation
from repro.kernel.fs import O_CREAT, O_RDWR


@pytest.fixture
def host(veil):
    host = EnclaveHost(veil, build_test_binary("ext", heap_pages=8))
    host.launch()
    return host


class TestSyscallBatching:
    def test_batch_executes_all_calls(self, host, veil):
        def body(libc):
            fd = libc.open("/tmp/batched", O_CREAT | O_RDWR)
            with libc.batch() as batch:
                for index in range(8):
                    batch.write(fd, f"row-{index};".encode())
            libc.lseek(fd, 0, 0)
            data = libc.read(fd, 256)
            libc.close(fd)
            return batch.results, data

        results, data = host.run(body)
        assert results == [6] * 8
        assert data == b"".join(f"row-{i};".encode() for i in range(8))

    def test_batch_uses_single_exit(self, host):
        def body(libc):
            fd = libc.open("/tmp/b1", O_CREAT | O_RDWR)
            before = libc.rt.enclave_exits
            with libc.batch() as batch:
                for _ in range(16):
                    batch.write(fd, b"x" * 32)
            return libc.rt.enclave_exits - before

        # 16 calls, one exit round trip (counted as exit + re-entry).
        assert host.run(body) == 2

    def test_unbatched_equivalent_costs_more_exits(self, host):
        def body(libc):
            fd = libc.open("/tmp/b2", O_CREAT | O_RDWR)
            before = libc.rt.enclave_exits
            for _ in range(16):
                libc.write(fd, b"x" * 32)
            return libc.rt.enclave_exits - before

        assert host.run(body) >= 16

    def test_result_dependent_call_not_batchable(self, host):
        def body(libc):
            with libc.batch() as batch:
                batch.syscall("read", 0, 0x1000, 64)

        with pytest.raises(SdkError):
            host.run(body)

    def test_pointer_returning_call_not_batchable(self, host):
        def body(libc):
            with libc.batch() as batch:
                batch.syscall("mmap", 0, 4096, 3, 0x22, -1, 0)

        with pytest.raises(SdkError):
            host.run(body)

    def test_double_flush_is_idempotent(self, host):
        def body(libc):
            fd = libc.open("/tmp/b3", O_CREAT | O_RDWR)
            batch = libc.batch()
            with batch:
                batch.write(fd, b"once")
            first = list(batch.results)
            assert batch.flush() == first
            return first

        assert host.run(body) == [4]


class TestMultiThreadedEnclaves:
    def test_spawn_thread_on_second_core(self, host, veil):
        thread = host.spawn_thread(1)
        assert thread.vcpu_id == 1
        assert thread.core is veil.machine.core(1)
        record = veil.enc.enclaves[host.enclave_id]
        assert set(record.threads) == {0, 1}

    def test_threads_have_distinct_vmsas_and_ghcbs(self, host, veil):
        thread = host.spawn_thread(1)
        record = veil.enc.enclaves[host.enclave_id]
        vmsa0, ghcb0 = record.threads[0]
        vmsa1, ghcb1 = record.threads[1]
        assert vmsa0 is not vmsa1
        assert ghcb0 != ghcb1
        assert vmsa1.vmpl == VMPL_ENC

    def test_threads_share_enclave_memory(self, host, veil):
        thread = host.spawn_thread(1)
        data_vaddr = veil.integration.enclaves[
            host.enclave_id].layout["data"][0]
        host.run(lambda libc: libc.poke(data_vaddr, b"from-thread-0"))
        seen = host.run_on(thread,
                           lambda libc: libc.peek(data_vaddr, 13))
        assert seen == b"from-thread-0"

    def test_threads_share_the_heap_allocator(self, host, veil):
        thread = host.spawn_thread(1)
        ptr = host.run(lambda libc: libc.malloc(64))
        # Thread 1 sees the allocation and can free it.
        host.run_on(thread, lambda libc: libc.free(ptr))
        again = host.run(lambda libc: libc.malloc(64))
        assert again == ptr

    def test_thread_syscalls_redirect_on_its_own_core(self, host, veil):
        thread = host.spawn_thread(1)

        def body(libc):
            fd = libc.open("/tmp/t1", O_CREAT | O_RDWR)
            libc.write(fd, b"thread-1 i/o")
            libc.close(fd)
            return libc.rt.core.cpu_index

        assert host.run_on(thread, body) == 1
        assert bytes(veil.kernel.fs.resolve("/tmp/t1").data) == \
            b"thread-1 i/o"

    def test_duplicate_thread_rejected(self, host):
        host.spawn_thread(1)
        with pytest.raises(SecurityViolation):
            host.spawn_thread(1)

    def test_os_cannot_schedule_missing_thread(self, host, veil):
        with pytest.raises(SecurityViolation):
            veil.gateway.call_service(veil.boot_core, {
                "op": "enc_schedule", "enclave_id": host.enclave_id,
                "vcpu_id": 1})


class TestEnclaveSharing:
    @pytest.fixture
    def pair(self, veil):
        owner = EnclaveHost(veil, build_test_binary("owner",
                                                    heap_pages=8))
        peer = EnclaveHost(veil, build_test_binary("peer", heap_pages=8))
        owner.launch()
        peer.launch()
        return veil, owner, peer

    def _share_window(self, veil, owner):
        setup = veil.integration.enclaves[owner.enclave_id]
        return setup.layout["data"][0]

    def test_granted_region_visible_to_peer(self, pair):
        veil, owner, peer = pair
        data_vaddr = self._share_window(veil, owner)
        owner.run(lambda libc: libc.poke(data_vaddr, b"shared-state"))
        owner.run(lambda libc: libc.grant_share(peer.enclave_id,
                                                data_vaddr, 1))
        map_at = 0x2f00_0000
        peer.run(lambda libc: libc.accept_share(
            owner.enclave_id, data_vaddr, map_at, 1))
        seen = peer.run(lambda libc: libc.peek(map_at, 12))
        assert seen == b"shared-state"

    def test_share_is_bidirectional_memory(self, pair):
        veil, owner, peer = pair
        data_vaddr = self._share_window(veil, owner)
        owner.run(lambda libc: libc.grant_share(peer.enclave_id,
                                                data_vaddr, 1))
        map_at = 0x2f00_0000
        peer.run(lambda libc: libc.accept_share(
            owner.enclave_id, data_vaddr, map_at, 1))
        peer.run(lambda libc: libc.poke(map_at, b"peer-wrote-this"))
        assert owner.run(lambda libc: libc.peek(data_vaddr, 15)) == \
            b"peer-wrote-this"

    def test_accept_without_grant_rejected(self, pair):
        veil, owner, peer = pair
        data_vaddr = self._share_window(veil, owner)
        with pytest.raises(SecurityViolation):
            peer.run(lambda libc: libc.accept_share(
                owner.enclave_id, data_vaddr, 0x2f00_0000, 1))

    def test_third_enclave_cannot_use_grant(self, pair):
        veil, owner, peer = pair
        data_vaddr = self._share_window(veil, owner)
        owner.run(lambda libc: libc.grant_share(peer.enclave_id,
                                                data_vaddr, 1))
        intruder = EnclaveHost(veil, build_test_binary("intruder",
                                                       heap_pages=8))
        intruder.launch()
        with pytest.raises(SecurityViolation):
            intruder.run(lambda libc: libc.accept_share(
                owner.enclave_id, data_vaddr, 0x2f00_0000, 1))

    def test_os_cannot_forge_grant(self, pair):
        veil, owner, peer = pair
        data_vaddr = self._share_window(veil, owner)
        with pytest.raises(SecurityViolation):
            veil.gateway.call_service(veil.boot_core, {
                "op": "enc_grant_share",
                "enclave_id": owner.enclave_id,
                "peer_id": peer.enclave_id, "vaddr": data_vaddr,
                "num_pages": 1})

    def test_grant_outside_enclave_region_rejected(self, pair):
        veil, owner, peer = pair
        with pytest.raises(SecurityViolation):
            owner.run(lambda libc: libc.grant_share(
                peer.enclave_id, 0x1000, 1))

    def test_dangling_share_after_owner_destroy_fails_stop(self, pair):
        """Destroying the owner returns its frames to the OS; a peer
        still holding the mapping gets fail-stop #NPF on access (the
        frame was scrubbed and its DomENC permissions revoked), so no
        data -- old or new -- leaks through the stale mapping."""
        from repro.errors import CvmHalted
        veil, owner, peer = pair
        data_vaddr = self._share_window(veil, owner)
        owner.run(lambda libc: libc.grant_share(peer.enclave_id,
                                                data_vaddr, 1))
        map_at = 0x2f00_0000
        peer.run(lambda libc: libc.accept_share(
            owner.enclave_id, data_vaddr, map_at, 1))
        owner.destroy()
        with pytest.raises(CvmHalted):
            peer.run(lambda libc: libc.peek(map_at, 8))


class TestExtensionSecurityRegressions:
    """The new features must not weaken the original guarantees."""

    def test_batched_calls_still_deep_copied(self, host, veil):
        """Batching must not let the OS see enclave pointers: queued
        writes stage into shared memory like unbatched ones."""
        def body(libc):
            fd = libc.open("/tmp/deep", O_CREAT | O_RDWR)
            before = libc.rt.redirect_bytes
            with libc.batch() as batch:
                batch.write(fd, b"sensitive-bytes!")
            return libc.rt.redirect_bytes - before

        assert host.run(body) >= 16

    def test_thread_ghcb_cannot_switch_to_monitor(self, host, veil):
        """Per-thread GHCBs get the same restricted switch policy."""
        from repro.errors import CvmHalted
        thread = host.spawn_thread(1)

        def escalate(libc):
            ghcb = libc.rt.user_ghcb
            ghcb.write_message(veil.machine.memory,
                               {"op": "domain_switch", "target_vmpl": 0})
            libc.rt.core.vmgexit()

        with pytest.raises(CvmHalted):
            host.run_on(thread, escalate)

    def test_os_cannot_add_thread_ghcb_it_controls_elsewhere(self, host,
                                                             veil):
        """enc_add_thread sanitizes: the GHCB page the OS supplies is
        validated by the switch policy registration, and a thread for a
        dead enclave is refused."""
        host.destroy()
        with pytest.raises(SecurityViolation):
            veil.gateway.call_service(veil.boot_core, {
                "op": "enc_add_thread", "enclave_id": host.enclave_id
                or 1, "vcpu_id": 1, "ghcb_ppn": 5, "ghcb_vaddr": 0x5000,
                "entry_rip": 0})

"""Integration tests: the extended syscall surface."""

import pytest

from repro.errors import KernelError
from repro.kernel.fs import O_CREAT, O_RDWR
from repro.kernel.syscalls import BASE_COSTS


@pytest.fixture
def env(native_proc):
    system, core, proc = native_proc
    core.regs.cr3 = proc.page_table.root_ppn
    core.regs.cpl = 3
    return system.kernel, core, proc


class TestPathSyscalls:
    def test_access_existing(self, env):
        kernel, core, proc = env
        kernel.syscall(core, proc, "creat", "/tmp/acc")
        assert kernel.syscall(core, proc, "access", "/tmp/acc") == 0

    def test_access_missing_enoent(self, env):
        kernel, core, proc = env
        with pytest.raises(KernelError) as err:
            kernel.syscall(core, proc, "access", "/tmp/ghost")
        assert err.value.errno == 2

    def test_chdir_getcwd(self, env):
        kernel, core, proc = env
        kernel.syscall(core, proc, "mkdir", "/tmp/wd")
        kernel.syscall(core, proc, "chdir", "/tmp/wd")
        assert kernel.syscall(core, proc, "getcwd") == "/tmp/wd"

    def test_chdir_to_file_enotdir(self, env):
        kernel, core, proc = env
        kernel.syscall(core, proc, "creat", "/tmp/notdir")
        with pytest.raises(KernelError) as err:
            kernel.syscall(core, proc, "chdir", "/tmp/notdir")
        assert err.value.errno == 20

    def test_umask_returns_previous(self, env):
        kernel, core, proc = env
        assert kernel.syscall(core, proc, "umask", 0o077) == 0o022
        assert kernel.syscall(core, proc, "umask", 0o022) == 0o077

    def test_at_variants_delegate(self, env):
        kernel, core, proc = env
        kernel.syscall(core, proc, "creat", "/tmp/at-src")
        kernel.syscall(core, proc, "linkat", -100, "/tmp/at-src", -100,
                       "/tmp/at-link")
        kernel.syscall(core, proc, "symlinkat", "/tmp/at-src", -100,
                       "/tmp/at-sym")
        kernel.syscall(core, proc, "renameat", -100, "/tmp/at-link",
                       -100, "/tmp/at-renamed")
        kernel.syscall(core, proc, "fchmodat", -100, "/tmp/at-src",
                       0o600)
        fs = kernel.fs
        assert fs.exists("/tmp/at-renamed")
        assert fs.resolve("/tmp/at-src").mode == 0o600


class TestProcessMisc:
    def test_identity_family(self, env):
        kernel, core, proc = env
        assert kernel.syscall(core, proc, "getppid") == 0
        assert kernel.syscall(core, proc, "getpgid") == proc.pid
        assert kernel.syscall(core, proc, "gettid") == proc.pid

    def test_sched_yield_rotates(self, env):
        kernel, core, proc = env
        other = kernel.create_process("other")
        kernel.scheduler.current = proc
        kernel.syscall(core, proc, "sched_yield")
        assert kernel.scheduler.context_switches >= 1


class TestSyncFamily:
    def test_fsync_valid_fd(self, env):
        kernel, core, proc = env
        fd = kernel.syscall(core, proc, "open", "/tmp/fs",
                            O_CREAT | O_RDWR)
        assert kernel.syscall(core, proc, "fsync", fd) == 0
        assert kernel.syscall(core, proc, "fdatasync", fd) == 0

    def test_fsync_bad_fd(self, env):
        kernel, core, proc = env
        with pytest.raises(KernelError):
            kernel.syscall(core, proc, "fsync", 99)

    def test_sync_is_a_no_op_in_guest_memory(self, env):
        """The filesystem lives in guest memory: ``sync`` charges only
        the syscall itself and makes no exit to the host."""
        kernel, core, proc = env
        kernel.syscall(core, proc, "creat", "/tmp/in-memory")
        machine = kernel.machine
        exits = core.exit_count
        before = machine.ledger.total
        assert kernel.syscall(core, proc, "sync") == 0
        assert machine.ledger.total - before == (
            machine.cost.syscall_entry + BASE_COSTS["sync"])
        assert core.exit_count == exits


class TestMemoryAdvice:
    def test_madvise_and_msync_on_mapped_region(self, env):
        kernel, core, proc = env
        addr = kernel.syscall(core, proc, "mmap", 0, 8192, 3, 0x22)
        assert kernel.syscall(core, proc, "madvise", addr, 8192, 4) == 0
        assert kernel.syscall(core, proc, "msync", addr, 8192) == 0

    def test_madvise_unmapped_einval(self, env):
        kernel, core, proc = env
        with pytest.raises(KernelError):
            kernel.syscall(core, proc, "madvise", 0x7a00_0000, 4096, 4)


class TestEnclaveSideOfNewSyscalls:
    def test_new_calls_usable_through_sdk(self, veil):
        from repro.enclave import EnclaveHost, build_test_binary
        host = EnclaveHost(veil, build_test_binary("ext-sys",
                                                   heap_pages=4))
        host.launch()

        def body(libc):
            rt = libc.rt
            rt.syscall("mkdir", "/tmp/enc-wd")
            rt.syscall("chdir", "/tmp/enc-wd")
            cwd = rt.syscall("getcwd")
            rt.syscall("sched_yield")
            return cwd, rt.syscall("getppid")

        cwd, ppid = host.run(body)
        assert cwd == "/tmp/enc-wd"
        assert ppid == 0

"""Unit tests: syscall specifications and the marshalling sanitizer."""

import pytest

from repro.enclave.specs import (ArgKind, SYSCALL_SPECS,
                                 supported_syscalls,
                                 unsupported_syscalls)


class TestSpecs:
    def test_every_buffer_arg_has_length_rule(self):
        for spec in SYSCALL_SPECS.values():
            for arg in spec.args:
                if arg.kind in (ArgKind.BUF_IN, ArgKind.BUF_OUT):
                    assert arg.len_from is not None or \
                        arg.const_len is not None, \
                        f"{spec.name}:{arg.name} lacks a length rule"

    def test_len_from_points_at_scalar(self):
        for spec in SYSCALL_SPECS.values():
            for arg in spec.args:
                if arg.len_from is not None:
                    target = spec.args[arg.len_from]
                    assert target.kind == ArgKind.SCALAR

    def test_write_length_relationship(self):
        """The paper's example: write's third argument is the length of
        its second (the buffer)."""
        spec = SYSCALL_SPECS["write"]
        buffer_arg = spec.args[1]
        assert buffer_arg.kind == ArgKind.BUF_IN
        assert buffer_arg.len_from == 2
        assert spec.args[2].name == "count"

    def test_read_is_outbound_buffer(self):
        assert SYSCALL_SPECS["read"].args[1].kind == ArgKind.BUF_OUT

    def test_mmap_flagged_for_iago_check(self):
        assert SYSCALL_SPECS["mmap"].returns_pointer

    def test_dangerous_calls_unsupported(self):
        for name in ("ptrace", "init_module", "fork", "execve", "bpf",
                     "io_uring_setup"):
            assert name in unsupported_syscalls()

    def test_supported_count_substantial(self):
        # The paper's SDK supports 96 syscalls; our spec table covers the
        # substrate's surface.
        assert len(supported_syscalls()) >= 55

    def test_no_overlap_between_supported_and_unsupported(self):
        assert not set(supported_syscalls()) & set(unsupported_syscalls())


class TestSanitizerThroughEnclave:
    """Sanitizer behaviour exercised through a real enclave runtime."""

    @pytest.fixture
    def host(self, veil):
        from repro.enclave import EnclaveHost, build_test_binary
        host = EnclaveHost(veil, build_test_binary("sanit",
                                                   heap_pages=8))
        host.launch()
        return host

    def test_unsupported_syscall_kills_enclave(self, host):
        from repro.errors import SdkError

        def call_fork(libc):
            return libc.rt.syscall("fork")

        with pytest.raises(SdkError):
            host.run(call_fork)
        assert host.runtime.killed
        # Enclave is destroyed: further entry fails.
        with pytest.raises(SdkError):
            host.run(lambda libc: None)

    def test_unknown_syscall_kills_enclave(self, host):
        from repro.errors import SdkError
        with pytest.raises(SdkError):
            host.run(lambda libc: libc.rt.syscall("not_a_syscall"))

    def test_buffer_deep_copies_counted(self, host):
        from repro.kernel.fs import O_CREAT, O_RDWR

        def body(libc):
            fd = libc.open("/tmp/c", O_CREAT | O_RDWR)
            libc.write(fd, b"x" * 1000)
            libc.lseek(fd, 0, 0)
            libc.read(fd, 1000)
            libc.close(fd)

        host.run(body)
        # write stages 1000 bytes out, read stages 1000 back.
        assert host.runtime.redirect_bytes >= 2000
        assert host.runtime.sanitizer.calls_sanitized >= 5

    def test_short_read_copies_only_result(self, host):
        from repro.kernel.fs import O_CREAT, O_RDWR

        def body(libc):
            fd = libc.open("/tmp/short", O_CREAT | O_RDWR)
            libc.write(fd, b"abc")
            libc.lseek(fd, 0, 0)
            return libc.read(fd, 4096)

        assert host.run(body) == b"abc"

    @staticmethod
    def scatter_read(libc, name, fd, sizes):
        """Scatter-read into pre-filled buffers; returns (count, bufs)."""
        bufs = [libc.malloc(size) for size in sizes]
        for buf, size, fill in zip(bufs, sizes, (b"\xaa", b"\xbb")):
            libc.poke(buf, fill * size)
        got = libc.rt.syscall(name, fd, list(zip(bufs, sizes)))
        return got, [libc.peek(buf, size) for buf, size in zip(bufs, sizes)]

    @staticmethod
    def file_with(libc, path, data):
        from repro.kernel.fs import O_CREAT, O_RDWR
        fd = libc.open(path, O_CREAT | O_RDWR)
        libc.write(fd, data)
        libc.lseek(fd, 0, 0)
        return fd

    def test_short_readv_copies_only_result(self, host):
        """Bytes past the count stay the enclave's own: the staging area
        behind them is the untrusted side's to fill."""
        def body(libc):
            fd = self.file_with(libc, "/tmp/scatter", b"0123456789")
            return self.scatter_read(libc, "readv", fd, (8, 8))

        assert host.run(body) == (10, [b"01234567", b"89" + b"\xbb" * 6])

    def test_short_recvmsg_copies_only_result(self, host):
        def body(libc):
            left, right = libc.rt.syscall("socketpair", 1, 1)
            libc.write(left, b"abc!")
            return self.scatter_read(libc, "recvmsg", right, (3, 3))

        assert host.run(body) == (4, [b"abc", b"!\xbb\xbb"])

    def test_full_readv_fills_every_buffer(self, host):
        def body(libc):
            fd = self.file_with(libc, "/tmp/full", b"0123456789abcdef")
            return self.scatter_read(libc, "readv", fd, (8, 8))

        assert host.run(body) == (16, [b"01234567", b"89abcdef"])

    def test_writev_gathers_both_buffers(self, host):
        from repro.kernel.fs import O_CREAT, O_RDWR

        def body(libc):
            fd = libc.open("/tmp/gather", O_CREAT | O_RDWR)
            head, tail = libc.malloc(6), libc.malloc(5)
            libc.poke(head, b"hello ")
            libc.poke(tail, b"world")
            wrote = libc.rt.syscall("writev", fd, [(head, 6), (tail, 5)])
            libc.lseek(fd, 0, 0)
            return wrote, libc.read(fd, 64)

        assert host.run(body) == (11, b"hello world")

    def test_sendmsg_gathers_both_buffers(self, host):
        def body(libc):
            left, right = libc.rt.syscall("socketpair", 1, 1)
            head, tail = libc.malloc(6), libc.malloc(5)
            libc.poke(head, b"hello ")
            libc.poke(tail, b"world")
            sent = libc.rt.syscall("sendmsg", left, [(head, 6), (tail, 5)])
            return sent, libc.read(right, 64)

        assert host.run(body) == (11, b"hello world")

    def test_iago_pointer_rejected(self, host, veil):
        """If the OS answers mmap with a region that overlaps enclave
        memory -- inside it, or straddling either edge -- the sanitizer
        kills the enclave.  A region that ends where the enclave starts
        is accepted."""
        from repro.enclave import EnclaveHost, build_test_binary
        from repro.errors import SecurityViolation
        from repro.hw.memory import PAGE_SIZE
        from repro.kernel import layout
        base = layout.ENCLAVE_BASE
        end = base + host.binary.total_pages * PAGE_SIZE
        cases = (   # (mmap length, pointer the OS returns, rejected?)
            (4096, base + 4096, True),      # inside the enclave
            (8192, base - 4096, True),      # straddles its start
            (8192, end - 4096, True),       # straddles its end
            (8192, base - 8192, False),     # ends exactly at its start
        )
        original = veil.kernel.syscalls.sys_mmap
        for index, (length, pointer, rejected) in enumerate(cases):
            target = host if index == 0 else EnclaveHost(
                veil, build_test_binary("sanit", heap_pages=8))

            def evil_mmap(core, proc, *args, pointer=pointer, **kwargs):
                original(core, proc, *args, **kwargs)
                return pointer

            def body(libc, length=length):
                return libc.mmap(length)

            veil.kernel.syscalls.sys_mmap = evil_mmap
            try:
                if rejected:
                    with pytest.raises(SecurityViolation):
                        target.run(body)
                else:
                    assert target.run(body) == pointer
            finally:
                veil.kernel.syscalls.sys_mmap = original
            assert target.runtime.sanitizer.iago_rejections == rejected
            assert target.runtime.killed == rejected

    @pytest.mark.parametrize("call, bad_arg, args", [
        ("write", "count", lambda fd, buf: (fd, buf, -1)),
        ("pwrite", "count", lambda fd, buf: (fd, buf, -1, 0)),
        ("read", "count", lambda fd, buf: (fd, buf, -1)),
        ("pread", "count", lambda fd, buf: (fd, buf, -1, 0)),
        ("write", "count", lambda fd, buf: (fd, buf, 2.0)),
        ("readv", "iov", lambda fd, buf: (fd, [(buf, 4), (buf, -1)])),
        ("writev", "iov", lambda fd, buf: (fd, [(buf, -1)])),
        ("read", "count", lambda fd, buf: (fd, buf)),
    ], ids=["write", "pwrite", "read", "pread", "write-float", "readv",
            "writev", "read-missing-count"])
    def test_bad_buffer_length_kills_enclave(self, host, call, bad_arg,
                                             args):
        """A missing, negative or non-integer buffer length is a
        malformed call: the sanitizer names it and the enclave is
        killed."""
        from repro.errors import SdkError
        from repro.kernel.fs import O_CREAT, O_RDWR

        def body(libc):
            fd = libc.open("/tmp/bad-length", O_CREAT | O_RDWR)
            libc.write(fd, b"0123456789")
            libc.lseek(fd, 0, 0)
            return libc.rt.syscall(call, *args(fd, libc.malloc(16)))

        with pytest.raises(SdkError, match=f"{call}: argument '{bad_arg}'"):
            host.run(body)
        assert host.runtime.killed

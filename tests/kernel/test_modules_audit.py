"""Unit/integration tests: module loader and kaudit framework."""

import json

import pytest

from repro.core import module_signing_key
from repro.errors import KernelError, SecurityViolation
from repro.kernel.audit import (AuditEntry, DEFAULT_AUDIT_RULESET,
                                InMemoryAuditSink, Kaudit, NullAuditSink)
from repro.kernel.fs import O_CREAT, O_RDWR
from repro.kernel.modules import Relocation, build_module

from tests.wire_templates import check_template

KEY = module_signing_key()


class TestModuleImages:
    def test_build_module_places_relocations(self):
        image = build_module("m", text_size=4096, relocation_count=4,
                             signing_key=KEY)
        assert len(image.relocations) == 4
        for reloc in image.relocations:
            slot = image.text[reloc.offset:reloc.offset + 8]
            assert slot == b"\x00" * 8

    def test_total_pages_includes_bss(self):
        image = build_module("m", text_size=4728, extra_data_pages=4)
        assert image.text_pages == 2
        assert image.total_pages == 6          # 24 KiB installed

    def test_signature_covers_name_text_and_relocs(self):
        image = build_module("m", text_size=256, signing_key=KEY)
        KEY.public.verify(image.signed_blob(), image.signature)
        tampered = build_module("m2", text_size=256)
        with pytest.raises(SecurityViolation):
            KEY.public.verify(tampered.signed_blob(), image.signature)


class TestNativeLoader:
    def test_load_relocates_symbols(self, native):
        loader = native.kernel.module_loader
        loader.trusted_key = KEY.public
        image = build_module("rel_mod", text_size=4096,
                             relocation_count=2, signing_key=KEY)
        core = native.boot_core
        with native.kernel.kernel_context(core):
            module = loader.load(core, image)
            resolved = core.read(module.vaddr +
                                 image.relocations[0].offset, 8)
        expected = native.kernel.symbol_table[
            image.relocations[0].symbol]
        assert int.from_bytes(resolved, "little") == expected

    def test_unsigned_module_rejected(self, native):
        loader = native.kernel.module_loader
        loader.trusted_key = KEY.public
        image = build_module("unsigned_mod", text_size=256)
        with pytest.raises(SecurityViolation):
            with native.kernel.kernel_context(native.boot_core) as core:
                loader.load(core, image)

    def test_duplicate_load_rejected(self, native):
        loader = native.kernel.module_loader
        loader.trusted_key = KEY.public
        image = build_module("dup_mod", text_size=256, signing_key=KEY)
        with native.kernel.kernel_context(native.boot_core) as core:
            loader.load(core, image)
            with pytest.raises(KernelError):
                loader.load(core, image)

    def test_unload_frees_region(self, native):
        loader = native.kernel.module_loader
        loader.trusted_key = KEY.public
        image = build_module("gone_mod", text_size=256, signing_key=KEY)
        with native.kernel.kernel_context(native.boot_core) as core:
            module = loader.load(core, image)
            allocated = native.machine.frames.allocated_count
            loader.unload(core, "gone_mod")
        assert native.machine.frames.allocated_count < allocated
        with pytest.raises(KernelError):
            with native.kernel.kernel_context(native.boot_core) as core:
                loader.unload(core, "gone_mod")

    def test_unknown_symbol_rejected(self, native):
        loader = native.kernel.module_loader
        loader.trusted_key = KEY.public
        image = build_module("badsym_mod", text_size=256,
                             relocation_count=0)
        image = type(image)(image.name, image.text,
                            (Relocation(0, "no_such_symbol"),))
        image = image.sign(KEY)
        with pytest.raises(KernelError):
            with native.kernel.kernel_context(native.boot_core) as core:
                loader.load(core, image)


class TestKaudit:
    def test_disabled_by_default(self):
        audit = Kaudit()
        assert not audit.enabled

    def test_ruleset_filters_syscalls(self, native_proc):
        system, core, proc = native_proc
        sink = InMemoryAuditSink()
        system.kernel.audit.set_sink(sink)
        system.kernel.audit.set_ruleset({"open"})
        system.kernel.syscall(core, proc, "open", "/tmp/a", O_CREAT)
        system.kernel.syscall(core, proc, "getpid")     # not in ruleset
        assert sink.entry_count() == 1
        record = json.loads(sink.records[0])
        assert record["detail"]["syscall"] == "open"
        assert record["pid"] == proc.pid

    def test_default_ruleset_matches_paper_footnote(self):
        for name in ("read", "write", "execve", "setuid", "splice",
                     "socketpair", "mknodat"):
            assert name in DEFAULT_AUDIT_RULESET
        for name in ("getpid", "uname", "lseek"):
            assert name not in DEFAULT_AUDIT_RULESET

    def test_sequence_numbers_increase(self, native_proc):
        system, core, proc = native_proc
        sink = InMemoryAuditSink()
        system.kernel.audit.set_sink(sink)
        system.kernel.audit.set_ruleset({"open"})
        for index in range(3):
            system.kernel.syscall(core, proc, "open", f"/tmp/f{index}",
                                  O_CREAT)
        seqs = [json.loads(blob)["seq"] for blob in sink.records]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 3

    def test_event_logging(self, native):
        sink = InMemoryAuditSink()
        native.kernel.audit.set_sink(sink)
        native.kernel.audit.log_event(native.boot_core, "module_load",
                                      {"name": "m"})
        assert sink.entry_count() == 1

    def test_null_sink_drops_everything(self, native):
        native.kernel.audit.set_sink(NullAuditSink())
        native.kernel.audit.log_event(native.boot_core, "evt", {})
        assert native.kernel.audit.sink.entry_count() == 0

    def test_entry_serialization_roundtrip(self):
        entry = AuditEntry(seq=1, cycles=5, pid=2, kind="syscall",
                           detail={"syscall": "open"})
        decoded = json.loads(entry.serialize())
        assert decoded["kind"] == "syscall"
        assert decoded["detail"]["syscall"] == "open"

    def test_serialize_equals_the_encoder(self):
        """Pinned cases of the template property: the fixed-key template
        writes exactly the codec's bytes (a bool or float field takes the
        encoder path)."""
        detail = {"args": [1, None, {"fd": True}], "syscall": "é"}
        for seq, cycles, pid in ((1, 5, 2), (True, 5, 2), (1.5, 5, 2),
                                 (float("nan"), 0, -1), (1, False, 2),
                                 (1, 5, True), (2 ** 70, 10 ** 30, -7)):
            for kind in ("syscall", 'a"b', ""):
                check_template("audit-entry", AuditEntry(
                    seq=seq, cycles=cycles, pid=pid, kind=kind,
                    detail=detail))

    def test_kaudit_charges_per_entry_cost(self, native_proc):
        system, core, proc = native_proc
        system.kernel.audit.set_sink(InMemoryAuditSink())
        system.kernel.audit.set_ruleset({"getpid"})
        before = system.machine.ledger.category("audit")
        system.kernel.syscall(core, proc, "getpid")
        charged = system.machine.ledger.category("audit") - before
        assert charged >= InMemoryAuditSink.PER_ENTRY_CYCLES

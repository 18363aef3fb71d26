"""Unit tests: privilege domains and IDCBs."""

import json

import pytest

from repro.core.domains import (ALL_DOMAINS, DOM_ENC, DOM_MON, DOM_SER,
                                DOM_UNT, domain_for_vmpl)
from repro.core.idcb import Idcb
from repro.errors import SimulationError
from repro.hw.cycles import CycleLedger, free_cost_model
from repro.hw.memory import PAGE_SIZE, PhysicalMemory


class TestDomains:
    def test_paper_assignments(self):
        assert (DOM_MON.vmpl, DOM_MON.cpl) == (0, 0)
        assert (DOM_SER.vmpl, DOM_SER.cpl) == (1, 0)
        assert (DOM_ENC.vmpl, DOM_ENC.cpl) == (2, 3)
        assert DOM_UNT.vmpl == 3

    def test_domains_cover_all_vmpls(self):
        assert sorted(d.vmpl for d in ALL_DOMAINS) == [0, 1, 2, 3]

    def test_lookup_by_vmpl(self):
        assert domain_for_vmpl(2) is DOM_ENC
        with pytest.raises(ValueError):
            domain_for_vmpl(4)

    def test_str_rendering(self):
        assert "VMPL-0" in str(DOM_MON)


class TestIdcb:
    def make(self, pages: int = 2):
        mem = PhysicalMemory(16 * PAGE_SIZE, cost=free_cost_model(),
                             ledger=CycleLedger())
        idcb = Idcb(list(range(4, 4 + pages)), low_vmpl=3, high_vmpl=0)
        return mem, idcb

    def test_request_reply_slots_independent(self):
        mem, idcb = self.make()
        idcb.write_request(mem, {"op": "ping"})
        idcb.write_reply(mem, {"status": "ok"})
        assert idcb.read_request(mem) == {"op": "ping"}
        assert idcb.read_reply(mem) == {"status": "ok"}

    def test_empty_slot_rejected(self):
        mem, idcb = self.make()
        with pytest.raises(SimulationError):
            idcb.read_request(mem)

    def test_large_message_spans_pages(self):
        mem, idcb = self.make(pages=4)
        payload = {"data": "x" * 6000}
        idcb.write_request(mem, payload)
        assert idcb.read_request(mem) == payload

    def test_oversized_message_rejected(self):
        mem, idcb = self.make(pages=2)
        with pytest.raises(SimulationError):
            idcb.write_request(mem, {"data": "x" * (PAGE_SIZE * 2)})

    def test_single_int_constructor(self):
        mem = PhysicalMemory(16 * PAGE_SIZE, cost=free_cost_model(),
                             ledger=CycleLedger())
        idcb = Idcb(3, low_vmpl=3, high_vmpl=1)
        assert idcb.ppns == [3]
        idcb.write_request(mem, {"op": "x"})
        assert idcb.read_request(mem)["op"] == "x"

    def test_empty_page_list_rejected(self):
        with pytest.raises(SimulationError):
            Idcb([], low_vmpl=3, high_vmpl=0)


class CountingMemory(PhysicalMemory):
    """Physical memory that records the length of every read and write."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def read(self, addr, length):
        self.calls.append(("read", length))
        return super().read(addr, length)

    def write(self, addr, data):
        self.calls.append(("write", len(data)))
        super().write(addr, data)


class TestIdcbFrames:
    def test_compact_ok_reply_decodes_like_json_loads(self):
        # The OS owns the pages: a reply without the encoder's space is
        # not the constant frame, and still decodes as json.loads would.
        mem = PhysicalMemory(16 * PAGE_SIZE, ledger=CycleLedger())
        idcb = Idcb([4, 5], low_vmpl=3, high_vmpl=1)
        payload = b'{"status":"ok"}'
        mem.write(4 * PAGE_SIZE + idcb.slot_size,
                  len(payload).to_bytes(4, "little") + payload)
        assert idcb.read_reply(mem) == json.loads(payload) == \
            {"status": "ok"}

    def test_constant_ok_frame_decodes_to_fresh_dicts(self):
        mem = PhysicalMemory(16 * PAGE_SIZE, ledger=CycleLedger())
        idcb = Idcb([4, 5], low_vmpl=3, high_vmpl=1)
        idcb.write_reply(mem, {"status": "ok"})
        first = idcb.read_reply(mem)
        second = idcb.read_reply(mem)
        assert first == second == {"status": "ok"}
        assert first is not second
        first["status"] = "mutated"
        assert idcb.read_reply(mem) == {"status": "ok"}

    def test_frame_in_one_page_is_one_write_and_two_reads(self):
        mem = CountingMemory(16 * PAGE_SIZE, ledger=CycleLedger())
        idcb = Idcb([4, 9, 6, 7], low_vmpl=3, high_vmpl=1)
        idcb.write_reply(mem, {"status": "ok"})
        idcb.read_reply(mem)
        assert mem.calls == [("write", 20), ("read", 4), ("read", 16)]

    def test_reply_across_pages_charges_one_copy_per_chunk(self):
        # Non-contiguous backing pages: the reply slot starts on page 6,
        # and a 5000-byte frame spills into page 2.
        mem = CountingMemory(16 * PAGE_SIZE, ledger=CycleLedger())
        idcb = Idcb([4, 9, 6, 2], low_vmpl=3, high_vmpl=1)
        reply = {"data": "x" * 4984}
        size = len(json.dumps(reply, sort_keys=True)) + 4
        assert size == 5000
        idcb.write_reply(mem, reply)
        assert idcb.read_reply(mem) == reply
        tail = size - PAGE_SIZE
        assert mem.calls == [("write", PAGE_SIZE), ("write", tail),
                             ("read", 4), ("read", PAGE_SIZE - 4),
                             ("read", tail)]
        cost = mem.cost.copy_cost
        assert mem.ledger.total == (
            cost(PAGE_SIZE) + cost(tail) +
            cost(4) + cost(PAGE_SIZE - 4) + cost(tail))
        assert mem.page(2)[:tail] == b'x' * (tail - 2) + b'"}'

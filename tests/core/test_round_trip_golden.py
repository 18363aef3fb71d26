"""Golden charges for the OS <-> DomSER / DomMON round trip (Fig. 3).

The values were recorded before the frame codec and the constant ``ok``
reply frame existed; a fast path that changes what a round trip charges
fails here.
"""

import pytest

from repro.core import VeilConfig, boot_veil_system
from repro.kernel.audit import AuditEntry

RECORD = AuditEntry(
    seq=1, cycles=123456789, pid=7, kind="syscall",
    detail={"syscall": "sendto", "args": {"fd": 5, "len": 1024},
            "ret": "1024"}).serialize()


@pytest.fixture(scope="module")
def veil():
    system = boot_veil_system(VeilConfig(
        memory_bytes=48 * 1024 * 1024, num_cores=2, log_storage_pages=1024))
    system.integration.enable_protected_logging()
    return system


def charged(veil, call, request) -> tuple[dict, dict]:
    """``(reply, {category: cycles})`` for one round trip."""
    ledger = veil.machine.ledger
    before = ledger.snapshot()
    reply = call(veil.boot_core, request)
    return reply, dict(ledger.since(before).by_category)


def test_record_is_140_bytes():
    assert len(RECORD) == 140


def test_log_append(veil):
    reply, delta = charged(veil, veil.gateway.call_service,
                           {"op": "log_append", "record_hex": RECORD.hex()})
    assert reply == {"status": "ok"}
    assert delta == {"copy": 258, "domain_switch": 14270, "msr": 200,
                     "service": 1100}


def test_monitor_ping(veil):
    reply, delta = charged(veil, veil.gateway.call_monitor,
                           {"op": "ping", "payload": 1})
    assert reply == {"status": "ok", "echo": 1}
    assert delta == {"copy": 82, "domain_switch": 14270, "monitor": 600,
                     "msr": 200}


def test_unknown_service_op(veil):
    reply, delta = charged(veil, veil.gateway.call_service,
                           {"op": "no_such_op"})
    assert reply["status"] == "error"
    assert delta == {"copy": 94, "domain_switch": 14270, "msr": 200,
                     "service": 600}


def test_reply_across_backing_pages(veil):
    # The 5 KB echo crosses from the first reply page into the next, so
    # both its write and its read are charged per page chunk.
    reply, delta = charged(veil, veil.gateway.call_monitor,
                           {"op": "ping", "payload": "x" * 5000})
    assert reply["echo"] == "x" * 5000
    assert delta == {"copy": 5084, "domain_switch": 14270, "monitor": 600,
                     "msr": 200}

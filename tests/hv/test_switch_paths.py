"""One domain switch, two ways to ask for it, two tracer settings.

The hypervisor serves a switch request either straight from its bytes
(a payload in ``SWITCH_PAYLOADS``, as ``VirtualCpu.switch_to`` writes
it) or through the codec and ``_op_domain_switch`` (any other
spelling).  Both reach the one switch body, and with tracing off
neither builds a span.  Each case below runs under a disabled and an
enabled tracer: the ledger, the exit log, the core's VMPL and register
file and the halt reason must match between the two, and must be what
the case expects.
"""

import pytest

from repro.errors import CvmHalted, GeneralProtectionFault
from repro.hw import SevSnpMachine
from repro.hw.ghcb import Ghcb
from repro.hw.vmsa import RegisterFile, Vmsa
from repro.hv import Hypervisor
from repro.hv.hypervisor import GhcbPolicy
from repro.trace import NullTracer, Tracer

#: A switch request to VMPL-3 in an order and spacing the guest's
#: template does not write: the codec's path.
FALLBACK = b'{"target_vmpl":3,"op":"domain_switch"}'


def target_regs() -> RegisterFile:
    """The register file the VMPL-3 instance is sealed with."""
    return RegisterFile(rip=0x4000, cpl=3, cr3=0x21, ghcb_msr=0x7000)


def make_case(target, *, pairs=frozenset({(0, 3)}), vmsa=True,
              halt=None):
    """``target``: the VMPL to ask for (switch_to's frame) or the raw
    payload bytes to write; ``pairs``: the GHCB's allowed switches (None
    leaves it unregistered); ``halt``: the expected halt reason (with
    the GHCB's ``{ppn}``), None for a switch that lands on VMPL-3."""
    return target, pairs, vmsa, halt


CASES = {
    "recognized": make_case(3),
    "codec-fallback": make_case(FALLBACK),
    "disallowed-pair": make_case(3, pairs={(0, 2)},
                                 halt="GHCB 0x{ppn:x} does not permit "
                                 "switch VMPL-0 -> VMPL-3"),
    "fallback-disallowed-pair": make_case(
        FALLBACK, pairs={(0, 2)},
        halt="GHCB 0x{ppn:x} does not permit switch VMPL-0 -> VMPL-3"),
    "unregistered-ghcb": make_case(
        3, pairs=None, halt="domain switch via unregistered GHCB 0x{ppn:x}"),
    "missing-vmsa": make_case(3, vmsa=False,
                              halt="no VMSA for vcpu 0 at VMPL-3"),
    "not-a-vmpl": make_case(7, halt="GHCB 0x{ppn:x} does not permit "
                            "switch VMPL-0 -> VMPL-7"),
}


def run_switch(tracer, target, pairs, vmsa) -> dict:
    """Boot a VMPL-0 core, set the case up, ask for the switch, and
    return everything the model exposes afterwards."""
    machine = SevSnpMachine(memory_bytes=8 * 1024 * 1024, num_cores=2,
                            tracer=tracer)
    hv = Hypervisor(machine)
    core = machine.core(0)
    core.hw_enter(hv.launch(b"image"))
    machine.rmp.bulk_assign_validate()
    ghcb = Ghcb(machine.frames.alloc())
    machine.rmp.share(ghcb.ppn)
    if pairs is not None:
        hv.ghcb_policies[ghcb.ppn] = GhcbPolicy(vcpu_id=0,
                                                allowed_switches=set(pairs))
    if vmsa:
        hv.vmsas[(0, 3)] = Vmsa(vcpu_id=0, vmpl=3,
                                ppn=machine.frames.alloc(),
                                regs=target_regs())
    core.regs.cpl = 0
    core.regs.gprs["rbx"] = 5
    try:
        if isinstance(target, bytes):
            core.wrmsr_ghcb(ghcb.gpa)
            header = len(target).to_bytes(4, "little")
            machine.memory.write(ghcb.gpa, header + target)
            core.vmgexit()
        else:
            core.switch_to(ghcb, target, publish=True)
    except CvmHalted:
        pass
    instance = core.instance
    return {
        "ppn": ghcb.ppn,
        "total": machine.ledger.total,
        "categories": dict(machine.ledger.by_category),
        "exit_log": list(hv.exit_log),
        "exit_count": core.exit_count,
        "vmpl": instance.vmpl if instance is not None else None,
        "running": instance is not None and instance.running,
        "regs": core.regs,
        "halt": machine.halt_reason if machine.halted else None,
        "machine": machine,
    }


def model_state(run: dict) -> dict:
    """The parts of a run the tracer setting must not change."""
    return {key: value for key, value in run.items() if key != "machine"}


@pytest.mark.parametrize("case", sorted(CASES))
def test_tracing_changes_nothing_the_model_exposes(case):
    target, pairs, vmsa, _halt = CASES[case]
    untraced = run_switch(NullTracer(), target, pairs, vmsa)
    traced = run_switch(Tracer(), target, pairs, vmsa)
    assert model_state(traced) == model_state(untraced)
    # The traced run did trace: the exit's span and the hypervisor's.
    spans = {event.name for event in traced["machine"].tracer.spans()}
    assert {"VMGEXIT", "op:domain_switch"} <= spans


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_case_ends_as_expected(case):
    target, pairs, vmsa, halt = CASES[case]
    run = run_switch(NullTracer(), target, pairs, vmsa)
    cost = run["machine"].cost
    assert run["exit_log"] == ["vmgexit:domain_switch"]
    assert run["exit_count"] == 1
    if halt is None:
        assert run["halt"] is None
        assert run["vmpl"] == 3 and run["running"]
        assert run["regs"] == target_regs()
        assert run["categories"]["domain_switch"] == \
            cost.vmgexit + cost.vmenter
    else:
        assert run["halt"] == halt.format(ppn=run["ppn"])
        assert not run["running"]
        assert run["categories"]["domain_switch"] == cost.vmgexit
    assert run["categories"]["msr"] == cost.wrmsr


def test_both_paths_trace_the_switch_alike():
    """A recognized and a decoded request leave the same spans, switch
    metrics and exit-log tag; only the bytes copied differ."""
    def trace_of(target):
        run = run_switch(Tracer(), target, {(0, 3)}, True)
        tracer = run["machine"].tracer
        spans = [(e.category, e.name, e.vmpl, e.args)
                 for e in tracer.spans()]
        counters = {key: value
                    for key, value in tracer.metrics.counters.items()
                    if key.startswith(("vmgexit/", "switch/"))}
        return spans, counters, run["exit_log"]

    assert trace_of(3) == trace_of(FALLBACK)


def test_publishing_the_ghcb_needs_cpl0():
    """``switch_to``'s WRMSR is privileged, as ``wrmsr_ghcb`` is: from
    CPL-3 it faults before anything is charged, written or exited."""
    machine = SevSnpMachine(memory_bytes=8 * 1024 * 1024, num_cores=2)
    hv = Hypervisor(machine)
    core = machine.core(0)
    core.hw_enter(hv.launch(b"image"))
    ghcb = Ghcb(machine.frames.alloc())
    core.regs.cpl = 3
    before = machine.ledger.total
    with pytest.raises(GeneralProtectionFault):
        core.switch_to(ghcb, 3, publish=True)
    assert machine.ledger.total == before
    assert core.regs.ghcb_msr == 0
    assert not hv.exit_log
    assert core.exit_count == 0

"""The checked access path against an independent SEV-SNP reference model.

:class:`RefSnp` is a cache-free model of the SEV-SNP access rules as the
formal treatments state them (Paradžik et al., arXiv 2403.10296;
Weerasena et al., arXiv 2606.01381).  It takes no access logic from
``repro.hw``: only ``Access``, ``PAGE_SIZE``, the ``CostModel``
constants and the exception types, plus the machine under test
(``SevSnpMachine`` and the table, window and VMSA objects it is driven
through).

:class:`AccessPathVsReference` applies one derandomized op sequence to a
2-core machine and to the model.  After every access it compares the
bytes, the ``PageFault`` (vpn and kind) or the #NPF halt, and the
``page_table_walk`` and ``copy`` cycles charged.  The op mix is biased:
after every world switch, RMP op, table op and CR3 load the last access
runs again, because that is the access a stale cached translation or
verdict would answer.  After every RMP op and world switch each core
also repeats its last access in physical form (the physical access
itself, or the frame a virtual read or write reached), because the
physical path checks the verdict cache on its own.  Only the first
access on a core after an RMP op can meet a stale verdict, so the RMP
op draws which form goes first.
"""

import itertools

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.errors import (CvmHalted, GeneralProtectionFault,
                          InvalidInstruction, NestedPageFault,
                          SimulationError)
from repro.hw import PAGE_SIZE, Access, CostModel, SevSnpMachine
from repro.hw.pagetable import GuestPageTable, LinearWindow, PageFault
from repro.hw.vmsa import RegisterFile, Vmsa

WALK = CostModel().page_table_walk
COPY_X1000 = CostModel().copy_per_byte_x1000
EXECUTE = Access.UEXEC | Access.SEXEC

MEMORY_PAGES = 32
DATA_PAGES = 8
VPN_BASE = 0x10
VPNS = 8
MAX_TABLES = 5
#: Source of written bytes: a write of ``n`` bytes with seed ``s`` writes
#: ``PATTERN[s:s + n]``.
PATTERN = bytes(range(251)) * 42


# -- the reference model ---------------------------------------------------


class RefPage:
    """RMP state of one physical page (accepted at launch)."""

    def __init__(self):
        self.assigned = True
        self.validated = True
        self.vmsa = False
        self.shared = False
        #: Permissions of VMPL 1-3; VMPL-0's are implicit.
        self.perms = {1: Access.NONE, 2: Access.NONE, 3: Access.NONE}

    def reset_perms(self):
        self.perms = {1: Access.NONE, 2: Access.NONE, 3: Access.NONE}


class RefPte:
    """A present translation."""

    def __init__(self, ppn, writable, user, nx):
        self.ppn = ppn
        self.writable = writable
        self.user = user
        self.nx = nx

    def copy(self):
        return RefPte(self.ppn, self.writable, self.user, self.nx)


class RefTable:
    """A guest page table: explicit entries override linear windows."""

    def __init__(self):
        #: vpn -> RefPte, or None for an unmap over a window.
        self.explicit = {}
        #: (base_vpn, count, ppn_base, writable, user, nx), first match.
        self.windows = []

    def lookup(self, vpn):
        if vpn in self.explicit:
            return self.explicit[vpn]
        for base, count, ppn_base, writable, user, nx in self.windows:
            if base <= vpn < base + count:
                return RefPte(ppn_base + vpn - base, writable, user, nx)
        return None

    def copy(self):
        new = RefTable()
        new.explicit = {vpn: pte and pte.copy()
                        for vpn, pte in self.explicit.items()}
        new.windows = list(self.windows)
        return new


class RefCore:
    """One physical core: the running instance and its live registers."""

    def __init__(self):
        self.instance = None
        self.cr3 = 0
        self.cpl = 0


class RefSnp:
    """Cache-free SEV-SNP access rules over RMP, tables and memory."""

    def __init__(self, num_pages, num_cores):
        self.rmp = [RefPage() for _ in range(num_pages)]
        self.memory = {}
        self.tables = {}
        #: (core, vmpl) -> [cr3, cpl] saved in that instance's VMSA.
        self.saved = {}
        self.cores = [RefCore() for _ in range(num_cores)]

    def page(self, ppn):
        return self.memory.setdefault(ppn, bytearray(PAGE_SIZE))

    # -- rules -------------------------------------------------------------

    def rmp_allows(self, ppn, vmpl, need):
        """The RMP check of one page at one VMPL."""
        page = self.rmp[ppn]
        if page.shared:
            # Readable and writable by every VMPL, never executable.
            return not need & EXECUTE
        if not (page.assigned and page.validated):
            return False
        if page.vmsa and vmpl != 0:
            return False
        if vmpl == 0:
            return True
        return page.perms[vmpl] & need == need

    @staticmethod
    def page_walk(table, vpn, write, execute, cpl):
        """The page-walk fault kind for one page, or None."""
        pte = table.lookup(vpn)
        if pte is None:
            return "write" if write else "execute" if execute else "read"
        if write and not pte.writable:
            return "write-protected"
        if cpl == 3 and not pte.user:
            return "supervisor-only"
        if execute and pte.nx:
            return "nx"
        return None

    def vmpl_of(self, core):
        return None if core.instance is None else core.instance[1]

    def access(self, c, kind, vaddr, length, data=b""):
        """(outcome, walk cycles, copy cycles) of ``read``/``write``/
        ``fetch``; a write lands chunk by chunk until the first fault."""
        core = self.cores[c]
        if length < 0:
            return ("ValueError",), 0, 0
        table = self.tables.get(core.cr3)
        if table is None:
            return ("SimulationError",), 0, 0
        write, execute = kind == "write", kind == "fetch"
        need = (Access.WRITE if write else
                (Access.SEXEC if core.cpl == 0 else Access.UEXEC)
                if execute else Access.READ)
        vmpl = self.vmpl_of(core)
        out = bytearray()
        walk = copy = pos = 0
        while True:
            vpn, off = divmod(vaddr + pos, PAGE_SIZE)
            walk += WALK
            fault = self.page_walk(table, vpn, write, execute, core.cpl)
            if fault:
                return ("#PF", vpn, fault), walk, copy
            if length == 0:
                return ("ok", None if write else b""), walk, 0
            if vmpl is None:
                return ("SimulationError",), walk, copy
            ppn = table.lookup(vpn).ppn
            if not self.rmp_allows(ppn, vmpl, need):
                return ("#NPF",), walk, copy
            chunk = min(PAGE_SIZE - off, length - pos)
            copy += chunk * COPY_X1000 // 1000
            if write:
                self.page(ppn)[off:off + chunk] = data[pos:pos + chunk]
            else:
                out += self.page(ppn)[off:off + chunk]
            pos += chunk
            if pos == length:
                return ("ok", None if write else bytes(out)), walk, copy

    def phys(self, c, kind, paddr, length, data=b""):
        """``read_phys``/``write_phys``: every page checked, then one
        copy charge over the whole length; a negative length is refused
        first, as on the virtual path."""
        if length < 0:
            return ("ValueError",), 0, 0
        core = self.cores[c]
        write = kind == "write_phys"
        need = Access.WRITE if write else Access.READ
        if length:
            for ppn in range(paddr // PAGE_SIZE,
                             (paddr + length - 1) // PAGE_SIZE + 1):
                if core.instance is None:
                    return ("SimulationError",), 0, 0
                if not self.rmp_allows(ppn, self.vmpl_of(core), need):
                    return ("#NPF",), 0, 0
        out = bytearray()
        pos = 0
        while pos < length:
            ppn, off = divmod(paddr + pos, PAGE_SIZE)
            chunk = min(PAGE_SIZE - off, length - pos)
            if write:
                self.page(ppn)[off:off + chunk] = data[pos:pos + chunk]
            else:
                out += self.page(ppn)[off:off + chunk]
            pos += chunk
        return (("ok", None if write else bytes(out)), 0,
                length * COPY_X1000 // 1000)

    def instruction_refused(self, c):
        """GP at CPL-3, and no VMPL without a running instance."""
        core = self.cores[c]
        if core.cpl != 0:
            return ("GeneralProtectionFault",)
        if core.instance is None:
            return ("SimulationError",)
        return None

    def rmpadjust(self, c, ppn, target, perms, vmsa):
        refused = self.instruction_refused(c)
        if refused:
            return refused
        vmpl = self.vmpl_of(self.cores[c])
        # Only strictly less-privileged levels, except VMPL-0 on itself.
        if target <= vmpl and not vmpl == target == 0:
            return ("InvalidInstruction",)
        page = self.rmp[ppn]
        if not page.assigned:
            return ("#NPF",)
        if target:
            page.perms[target] = perms
        page.vmsa = vmsa
        return ("ok", None)

    def pvalidate(self, c, ppn, validate):
        refused = self.instruction_refused(c)
        if refused:
            return refused
        page = self.rmp[ppn]
        if not page.assigned:
            return ("#NPF",)
        page.validated = validate
        return ("ok", None)

    def wbinvd(self, c):
        if self.cores[c].cpl != 0:
            return ("GeneralProtectionFault",)
        return ("ok", None)

    # -- hypervisor-side transitions and world switches ----------------------

    def hypervisor(self, op, ppn):
        page = self.rmp[ppn]
        if op == "assign":
            page.assigned, page.validated, page.shared = True, False, False
        elif op == "install_vmsa":
            page.assigned = page.validated = page.vmsa = True
        else:                                   # share / unassign
            page.assigned = page.validated = page.vmsa = False
            page.shared = op == "share"
            page.reset_perms()

    def switch(self, c, instance):
        core = self.cores[c]
        if core.instance is not None:
            self.saved[core.instance] = [core.cr3, core.cpl]
        core.instance = instance
        core.cr3, core.cpl = self.saved[instance]


# -- the machine and the model in lockstep ---------------------------------


def outcome_of(run):
    """Run one machine op and describe how it ended."""
    try:
        return ("ok", run())
    except PageFault as fault:
        return ("#PF", fault.vpn, fault.access)
    except (CvmHalted, NestedPageFault):
        return ("#NPF",)
    except (ValueError, SimulationError, GeneralProtectionFault,
            InvalidInstruction) as refused:
        return (type(refused).__name__,)


class Rig:
    """A 2-core :class:`SevSnpMachine` and a :class:`RefSnp`, driven by
    the same ops.  Both cores start at VMPL-0 on table A at CPL-0; with
    ``idle``, core 1 has no running instance.  VMPL-1 may do anything
    on the data pages, VMPL-2 read and user-execute two of them, and
    VMPL-3 read and write two others."""

    def __init__(self, idle=False):
        machine = self.machine = SevSnpMachine(
            memory_bytes=MEMORY_PAGES * PAGE_SIZE, num_cores=2)
        model = self.model = RefSnp(MEMORY_PAGES, 2)
        machine.rmp.bulk_assign_validate()
        self.data = machine.frames.alloc_many(DATA_PAGES)
        self.tables = {}
        self.roots = []
        a = self.new_table()
        b = self.new_table()
        self.vmsas = {}
        for c in range(2):
            for vmpl in range(4):
                ppn = machine.frames.alloc()
                self.hypervisor("install_vmsa", ppn)
                self.vmsas[c, vmpl] = Vmsa(vcpu_id=c, vmpl=vmpl, ppn=ppn,
                                           regs=RegisterFile(cr3=a))
                model.saved[c, vmpl] = [a, 0]
        #: Pages that ops map and target: the data pages and two VMSAs.
        self.ppns = self.data + [self.vmsas[0, 0].ppn,
                                 self.vmsas[0, 3].ppn]
        for i, ppn in enumerate(self.data):
            vpn = VPN_BASE + i
            self.table_op("map", a, vpn, ppn, writable=i != 3,
                          user=i >= 4, nx=i not in (0, 1, 6))
            self.table_op("map", b, vpn, self.data[-1 - i], writable=True,
                          user=True, nx=i % 2 == 0)
        for i, ppn in enumerate(self.data):
            self.grant(ppn, 1, Access.all())
            if i in (2, 3):
                self.grant(ppn, 2, Access.READ | Access.UEXEC)
            if i in (0, 1):
                self.grant(ppn, 3, Access.rw())
        self.switch(0, 0)
        if idle:
            self.load_cr3(1, a)
        else:
            self.switch(1, 0)
        self.last = None
        self.last_on = {}
        self.last_phys_on = {}
        self.last_vpn = VPN_BASE
        self.last_ppn = self.data[0]
        self.last_root = a

    # -- setup helpers ---------------------------------------------------

    def new_table(self):
        table = self.machine.create_page_table()
        self.tables[table.root_ppn] = table
        self.model.tables[table.root_ppn] = RefTable()
        self.roots.append(table.root_ppn)
        return table.root_ppn

    def grant(self, ppn, vmpl, perms):
        """Launch-time RMPADJUST from VMPL-0."""
        self.machine.rmp.rmpadjust(executing_vmpl=0, ppn=ppn,
                                   target_vmpl=vmpl, perms=perms)
        self.model.rmp[ppn].perms[vmpl] = perms

    # -- compared ops ------------------------------------------------------

    def access(self, c, kind, addr, length, seed=0, repeat=False):
        """Run one access on both sides; return the model's verdict.

        A drawn access (not a ``repeat``) becomes core ``c``'s last one.
        """
        data = PATTERN[seed:seed + max(length, 0)]
        cpu = self.machine.core(c)
        ledger = self.machine.ledger.by_category
        walk0 = ledger.get("page_table_walk", 0)
        copy0 = ledger.get("copy", 0)
        if kind == "read":
            got = outcome_of(lambda: cpu.read(addr, length))
        elif kind == "fetch":
            got = outcome_of(lambda: cpu.fetch(addr, length))
        elif kind == "write":
            got = outcome_of(lambda: cpu.write(addr, data))
        elif kind == "read_phys":
            got = outcome_of(lambda: cpu.read_phys(addr, length))
        else:
            got = outcome_of(lambda: cpu.write_phys(addr, data))
        got = (got, ledger.get("page_table_walk", 0) - walk0,
               ledger.get("copy", 0) - copy0)
        model = self.model
        core = model.cores[c]
        if kind.endswith("_phys"):
            want = model.phys(c, kind, addr, length, data)
        else:
            want = model.access(c, kind, addr, length, data)
        assert got == want, (kind, c, hex(addr), length, core.instance,
                             core.cpl)
        if kind.startswith("write"):
            self.check_memory()
        if not repeat:
            self.note(c, kind, addr, length, seed)
        return want

    def note(self, c, kind, addr, length, seed):
        """Make a drawn access core ``c``'s last one: the access
        :meth:`reaccess` repeats and the page the table and RMP ops
        target.  Its physical form is what :meth:`reaccess_phys`
        repeats."""
        self.last = self.last_on[c] = (c, kind, addr, length, seed)
        if kind.endswith("_phys"):
            self.last_ppn = addr // PAGE_SIZE
            self.last_phys_on[c] = self.last
            return
        core = self.model.cores[c]
        self.last_vpn = addr // PAGE_SIZE
        self.last_root = core.cr3
        pte = self.model.tables.get(core.cr3, RefTable()).lookup(
            self.last_vpn)
        if pte is not None:
            self.last_ppn = pte.ppn
            if kind != "fetch":
                self.last_phys_on[c] = (
                    c, kind + "_phys",
                    pte.ppn * PAGE_SIZE + addr % PAGE_SIZE, length, seed)

    def reaccess(self, c=None):
        """Repeat each core's last access, or only core ``c``'s (the
        last access overall if that core has made none)."""
        cores = range(2) if c is None else (c,)
        for core in cores:
            last = self.last_on.get(core, None if c is None else self.last)
            if last is not None:
                _core, kind, addr, length, seed = last
                self.access(core, kind, addr, length, (seed + 1) % 251,
                            repeat=True)

    def reaccess_phys(self):
        """Repeat each core's last access in physical form."""
        for core, last in sorted(self.last_phys_on.items()):
            _core, kind, addr, length, seed = last
            self.access(core, kind, addr, length, (seed + 1) % 251,
                        repeat=True)

    def check_memory(self):
        memory = self.machine.memory
        for ppn in range(MEMORY_PAGES):
            want = self.model.memory.get(ppn, bytes(PAGE_SIZE))
            assert memory.page_bytes(ppn, 0, PAGE_SIZE) == want, ppn

    def instruction(self, c, name, want, **kwargs):
        """An SNP instruction on core ``c``, checked against ``want``."""
        cpu = self.machine.core(c)
        got = outcome_of(lambda: getattr(cpu, name)(**kwargs))
        assert got == want, (name, c, kwargs)

    def rmpadjust(self, c, ppn, target, perms, vmsa=False):
        want = self.model.rmpadjust(c, ppn, target, perms, vmsa)
        self.instruction(c, "rmpadjust", want, ppn=ppn, target_vmpl=target,
                         perms=perms, vmsa=vmsa)

    def pvalidate(self, c, ppn, validate):
        want = self.model.pvalidate(c, ppn, validate)
        self.instruction(c, "pvalidate", want, ppn=ppn, validate=validate)

    def wbinvd(self, c):
        self.instruction(c, "wbinvd", self.model.wbinvd(c))

    # -- uncompared state changes, applied to both sides -------------------

    def hypervisor(self, op, ppn):
        getattr(self.machine.rmp, op)(ppn)
        self.model.hypervisor(op, ppn)

    def poke(self, ppn, field, value):
        """Mutate an RMP entry handed out by ``Rmp.entry()``."""
        entry = self.machine.rmp.entry(ppn)
        page = self.model.rmp[ppn]
        if field in (1, 2, 3):
            entry.perms[field] = value
            page.perms[field] = value
        else:
            setattr(entry, field, value)
            setattr(page, field, value)

    def switch(self, c, vmpl):
        cpu = self.machine.core(c)
        if cpu.instance is not None:
            cpu.hw_exit()
        cpu.hw_enter(self.vmsas[c, vmpl])
        self.model.switch(c, (c, vmpl))

    def set_cpl(self, c, cpl):
        self.machine.core(c).set_cpl(cpl)
        self.model.cores[c].cpl = cpl

    def load_cr3(self, c, root, flush=False):
        cpu = self.machine.core(c)
        cpu.regs.cr3 = root
        if flush:
            cpu.flush_tlb()
        self.model.cores[c].cr3 = root

    def table_op(self, op, root, vpn, ppn=0, writable=None, user=None,
                 nx=None):
        table, ref = self.tables[root], self.model.tables[root]
        if op == "map":
            table.map(vpn, ppn, writable=writable, user=user, nx=nx)
            ref.explicit[vpn] = RefPte(ppn, writable, user, nx)
        elif op == "unmap":
            table.unmap(vpn)
            if ref.lookup(vpn) is not None:
                ref.explicit[vpn] = None
        else:
            got = outcome_of(lambda: table.protect(
                vpn, writable=writable, user=user, nx=nx))
            if vpn not in ref.explicit:
                # A window page is materialized; no page at all faults.
                if ref.lookup(vpn) is None:
                    assert got == ("#PF", vpn, "protect")
                    return
                ref.explicit[vpn] = ref.lookup(vpn)
            assert got == ("ok", None)
            pte = ref.explicit[vpn]             # None: stays unmapped
            for flag, value in (("writable", writable), ("user", user),
                                ("nx", nx)):
                if pte is not None and value is not None:
                    setattr(pte, flag, value)

    def add_window(self, root, base, count, ppn_base, writable, user, nx):
        self.tables[root].add_window(LinearWindow(
            base_vpn=base, count=count, ppn_base=ppn_base,
            writable=writable, user=user, nx=nx))
        self.model.tables[root].windows.append(
            (base, count, ppn_base, writable, user, nx))

    def clone(self, root):
        new_root = self.machine.frames.alloc()
        clone = self.tables[root].clone(new_root)
        self.machine.register_page_table(clone)
        self.tables[new_root] = clone
        self.model.tables[new_root] = self.model.tables[root].copy()
        self.roots.append(new_root)

    def replace(self, root, source=None):
        """Register a different table under an existing root."""
        if source is None:
            table = GuestPageTable(root, cost=self.machine.cost,
                                   ledger=self.machine.ledger)
            ref = RefTable()
        else:
            table = self.tables[source].clone(root)
            ref = self.model.tables[source].copy()
        self.machine.register_page_table(table)
        self.tables[root] = table
        self.model.tables[root] = ref


# -- the differential state machine ------------------------------------------

CORES = st.integers(0, 1)
VMPLS = st.integers(0, 3)
INDEX = st.integers(0, 15)
#: Virtual accesses weigh double: each kind has its own inlined path.
ACCESSES = st.sampled_from(("read", "read", "write", "write", "fetch",
                            "fetch", "read_phys", "write_phys"))
#: Offsets near the end of a page cross a seam; lengths reach two pages.
OFFSETS = st.one_of(st.integers(PAGE_SIZE - 24, PAGE_SIZE - 1),
                    st.integers(0, PAGE_SIZE - 1))
LENGTHS = st.one_of(st.integers(1, 64), st.integers(-1, 2 * PAGE_SIZE))
PERMS = st.sampled_from([Access.NONE, Access.READ, Access.rw(),
                         Access.READ | Access.UEXEC,
                         Access.READ | Access.SEXEC, Access.all()])
#: (writable, user, nx) for map/window/protect; None leaves a flag alone.
FLAGS = st.sampled_from(list(itertools.product((None, False, True),
                                               repeat=3)))
#: Table and RMP ops mostly target the page of the last access.
AT_LAST = st.sampled_from((True, True, False))


class AccessPathVsReference(RuleBasedStateMachine):
    """Random SNP op sequences on the machine and on :class:`RefSnp`.

    Five rules, each choosing among related ops: Hypothesis turns a
    random subset of rules off per example (swarm testing), and with few
    rules an access and the op that can stale its cache stay together.
    Arguments are packed into few draws, which is most of the run time.
    """

    def __init__(self):
        super().__init__()
        self.rig = Rig()
        self.turn = 0

    def pick_ppn(self, at_last, index):
        rig = self.rig
        return rig.last_ppn if at_last else rig.ppns[index % len(rig.ppns)]

    def pick_root(self, at_last, index):
        rig = self.rig
        return rig.last_root if at_last else rig.roots[index %
                                                       len(rig.roots)]

    @rule(kind=ACCESSES, page=INDEX, offset=OFFSETS, length=LENGTHS)
    def access(self, kind, page, offset, length):
        """An access on the other core than the previous one."""
        self.turn ^= 1
        if kind.endswith("_phys"):
            addr = self.pick_ppn(False, page) * PAGE_SIZE + offset
        else:
            addr = (VPN_BASE + page % VPNS) * PAGE_SIZE + offset
        if kind != "read" and kind != "fetch":
            length = max(length, 0)
        self.rig.access(self.turn, kind, addr, length, offset % 251)

    @rule(core=CORES, vmpl=VMPLS)
    def world_switch(self, core, vmpl):
        self.rig.switch(core, vmpl)
        self.rig.reaccess_phys()
        self.rig.reaccess(core)

    @rule(op=st.sampled_from(("cr3", "cr3+flush", "cpl0", "cpl3",
                              "wbinvd")),
          core=CORES, index=INDEX)
    def core_op(self, op, core, index):
        rig = self.rig
        if op == "wbinvd":
            rig.wbinvd(core)
        elif op.startswith("cpl"):
            rig.set_cpl(core, int(op[3:]))
        else:
            rig.load_cr3(core, self.pick_root(False, index),
                         flush=op == "cr3+flush")
            rig.reaccess(core)

    @rule(op=st.sampled_from(("map", "unmap", "protect", "window", "clone",
                              "replace")),
          at_last=AT_LAST, table=INDEX, vpn=st.integers(0, VPNS - 1),
          ppn=INDEX, flags=FLAGS)
    def table_op(self, op, at_last, table, vpn, ppn, flags):
        rig = self.rig
        root = self.pick_root(at_last, table)
        vpn = rig.last_vpn if at_last else VPN_BASE + vpn
        writable, user, nx = flags
        if op in ("map", "window"):
            writable, user, nx = bool(writable), bool(user), nx is not False
        if op == "window":
            count = 1 + ppn % 4
            rig.add_window(root, vpn, count,
                           rig.data[ppn % (DATA_PAGES - count + 1)],
                           writable, user, nx)
        elif op == "clone":
            if len(rig.roots) < MAX_TABLES:
                rig.clone(root)
        elif op == "replace":
            # An empty table, or a copy of another one.
            rig.replace(root, None if ppn % 4 == 0 else
                        self.pick_root(False, ppn))
        else:
            rig.table_op(op, root, vpn, self.pick_ppn(False, ppn), writable,
                         user, nx)
        rig.reaccess()

    @rule(op=st.sampled_from(("rmpadjust", "pvalidate", "assign", "share",
                              "unassign", "install_vmsa", "poke-perms",
                              "poke-validated", "poke-vmsa")),
          core=CORES, at_last=AT_LAST, ppn=INDEX, vmpl=VMPLS, perms=PERMS,
          flag=st.booleans(), phys_first=st.booleans())
    def rmp_op(self, op, core, at_last, ppn, vmpl, perms, flag,
               phys_first):
        rig = self.rig
        ppn = self.pick_ppn(at_last, ppn)
        if op == "rmpadjust":
            # The VMSA bit only now and then: it seals the page.
            rig.rmpadjust(core, ppn, vmpl, perms,
                          vmsa=flag and perms == Access.NONE)
        elif op == "pvalidate":
            # Releasing an unassigned page is the rule the simulator
            # does not follow; test_pvalidate_release_of_unassigned_page_
            # faults pins it.
            rig.pvalidate(core, ppn, flag or not rig.model.rmp[ppn].assigned)
        elif op == "poke-perms":
            rig.poke(ppn, max(vmpl, 1), perms)
        elif op.startswith("poke-"):
            rig.poke(ppn, op[5:], flag)
        else:
            rig.hypervisor(op, ppn)
        if phys_first:
            rig.reaccess_phys()
        rig.reaccess()
        if not phys_first:
            rig.reaccess_phys()


TestAccessPathMatchesReference = AccessPathVsReference.TestCase
TestAccessPathMatchesReference.settings = settings(
    max_examples=300, stateful_step_count=20, derandomize=True,
    database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


# -- pinned cases ------------------------------------------------------------

#: A mapped, writable, executable supervisor page of table A.
EXEC_VADDR = VPN_BASE * PAGE_SIZE + 0x100


class TestDegenerateAccesses:
    """Negative length, zero length and no running instance: the three
    accesses the fast paths hand to one helper, and the last two on the
    physical path, which the state machine never drives on an idle
    core."""

    def test_negative_length_charges_nothing(self):
        rig = Rig()
        for kind, addr in (("read", EXEC_VADDR), ("fetch", EXEC_VADDR),
                           ("read_phys", rig.data[0] * PAGE_SIZE)):
            assert rig.access(0, kind, addr, -1) == (("ValueError",), 0, 0)

    @pytest.mark.parametrize("kind, result", [
        ("read", b""), ("write", None), ("fetch", b"")],
        ids=["read", "write", "fetch"])
    def test_zero_length_walks_the_first_page(self, kind, result):
        rig = Rig()
        assert rig.access(0, kind, EXEC_VADDR, 0) == \
            (("ok", result), WALK, 0)

    def test_zero_length_still_checks_the_walk(self):
        rig = Rig()
        unmapped = (VPN_BASE + VPNS) * PAGE_SIZE
        assert rig.access(0, "read", unmapped, 0) == \
            (("#PF", VPN_BASE + VPNS, "read"), WALK, 0)

    @pytest.mark.parametrize("kind", ["read", "write", "fetch"])
    def test_no_running_instance_walks_then_refuses(self, kind):
        rig = Rig(idle=True)
        for length in (16, 2 * PAGE_SIZE):
            assert rig.access(1, kind, EXEC_VADDR, length) == \
                (("SimulationError",), WALK, 0)
        assert rig.access(1, kind, EXEC_VADDR, 0)[0][0] == "ok"

    @pytest.mark.parametrize("kind, result", [
        ("read_phys", b""), ("write_phys", None)],
        ids=["read_phys", "write_phys"])
    def test_no_running_instance_phys(self, kind, result):
        """No VMPL to check at: refused before any charge, unless the
        length is zero, which checks nothing."""
        rig = Rig(idle=True)
        addr = rig.data[0] * PAGE_SIZE
        assert rig.access(1, kind, addr, 16) == (("SimulationError",), 0, 0)
        assert rig.access(1, kind, addr, 0) == (("ok", result), 0, 0)


@pytest.mark.xfail(strict=True, reason=(
    "rule disagreement: PVALIDATE of a page not assigned to the guest "
    "faults whichever way it sets the validated bit (the ownership check "
    "comes first), but Rmp.pvalidate faults only when validating"))
def test_pvalidate_release_of_unassigned_page_faults():
    rig = Rig()
    ppn = rig.data[0]
    rig.hypervisor("unassign", ppn)
    rig.pvalidate(0, ppn, validate=False)

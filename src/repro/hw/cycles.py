"""Cycle accounting for the transaction-level SEV-SNP simulator.

Every architectural operation charges a cost to a :class:`CycleLedger`.
Costs live in :class:`CostModel` and are calibrated against the paper's
measured microbenchmarks (Veil, ASPLOS'23, section 9):

* a hypervisor-relayed domain switch costs 7135 cycles (measured, section 9.1);
* a plain ``VMCALL`` exit on a non-SNP VM costs ~1100 cycles;
* Veil's boot-time RMPADJUST sweep over all guest pages accounts for >70%
  of a ~2 s boot-time increase on a 2 GB guest;
* a 24 KB module load/unload pays ~55k extra cycles in RMPADJUST updates.

The ledger tracks per-category totals so benchmark harnesses can produce
the paper's stacked breakdowns (e.g. Fig. 5 splits enclave overhead into
``Enclave-Exit`` and ``Syscall-Redirect``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..trace.metrics import Tally


#: Nominal clock used only to render cycles as human-readable seconds.
CLOCK_HZ = 3_000_000_000


@dataclass(frozen=True)
class CostModel:
    """Calibrated per-operation cycle costs.

    The defaults reproduce the paper's ratios; tests may construct cheaper
    models (e.g. zero-cost) when timing is irrelevant.
    """

    # --- world switches -------------------------------------------------
    #: VMGEXIT + hypervisor handling + VMENTER on a *different* VMSA.
    #: Paper section 9.1: 7135 cycles per OS<->VeilMon switch.  The switch is
    #: charged as exit + enter halves so a hypervisor-terminated exit (no
    #: re-entry into a new domain) can be charged separately.
    vmgexit: int = 3000
    vmenter: int = 4135
    #: Plain VMCALL round trip on a non-SNP VM (paper: ~1100 cycles).
    vmcall: int = 1100
    #: Automatic exit (e.g. timer interrupt): no GHCB protocol.
    automatic_exit: int = 1600

    # --- ring switches / kernel entry ------------------------------------
    syscall_entry: int = 150     # SYSCALL/SYSRET pair
    interrupt_delivery: int = 600

    # --- memory system ----------------------------------------------------
    #: Per-byte cost of copying through the simulated memory system.  The
    #: paper's syscall-redirect overhead is dominated by argument deep
    #: copies, e.g. lighttpd copying 10 KB response bodies out of the
    #: enclave.
    copy_per_byte_x1000: int = 250        # 0.25 cycles/byte
    page_table_walk: int = 40
    tlb_flush: int = 500

    # --- SNP instructions ---------------------------------------------------
    #: RMPADJUST on one 4 KiB page.  Veil's boot performs two full-memory
    #: permission sweeps (VMPL-1 and VMPL-3); on a 2 GB guest (524288
    #: pages) the sweeps plus validation must come to a ~2 s (~6e9 cycle)
    #: boot-time increase with >70% of it in RMPADJUST (section 9.1).
    rmpadjust: int = 5200
    pvalidate: int = 800
    rdtsc: int = 30
    wrmsr: int = 100
    rdmsr: int = 100
    #: WBINVD cache writeback+invalidate (the section-10 eOPF-style
    #: side-channel mitigation executes this on enclave exits).
    wbinvd: int = 30_000

    # --- crypto (per byte / per op) -----------------------------------------
    sha256_per_byte_x1000: int = 4000     # 4 cycles/byte
    cipher_per_byte_x1000: int = 2000     # 2 cycles/byte
    signature_verify: int = 220_000
    signature_sign: int = 900_000

    def copy_cost(self, nbytes: int) -> int:
        """Cycle cost of copying ``nbytes`` through the memory system."""
        return (nbytes * self.copy_per_byte_x1000) // 1000

    def sha256_cost(self, nbytes: int) -> int:
        """Cycle cost of hashing ``nbytes``."""
        return (nbytes * self.sha256_per_byte_x1000) // 1000

    def cipher_cost(self, nbytes: int) -> int:
        """Cycle cost of encrypting ``nbytes``."""
        return (nbytes * self.cipher_per_byte_x1000) // 1000

    @property
    def domain_switch(self) -> int:
        """Full hypervisor-relayed domain switch (paper: 7135 cycles)."""
        return self.vmgexit + self.vmenter


#: Cost model with every charge set to zero; useful in unit tests that only
#: care about functional behaviour.
def free_cost_model() -> CostModel:
    """A cost model with every charge zeroed (functional tests)."""
    zeroed = {name: 0 for name in CostModel.__dataclass_fields__}
    return CostModel(**zeroed)


class ChargeHandle:
    """Pre-resolved charge target for one ledger category.

    The VCPU access path charges the same two categories
    (``page_table_walk``, ``copy``) on every guest memory access.  A
    handle binds the ledger, its category tally and the category name
    once, so a charge is one add to the ledger's total and one
    ``+=`` into the tally, with no sign check and no category argument
    to pass.  Handles survive :meth:`CycleLedger.reset` because the
    ledger clears its tally in place rather than replacing it.

    Callers own the non-negativity of their costs: handles skip the
    negative-charge guard, so they are only handed to trusted simulator
    paths whose costs come from a :class:`CostModel`.
    """

    __slots__ = ("_ledger", "_bucket", "_category")

    def __init__(self, ledger: "CycleLedger", category: str):
        self._ledger = ledger
        self._bucket = ledger.by_category
        self._category = category

    def charge(self, cycles: int) -> None:
        """Add ``cycles`` (assumed non-negative) to the bound category."""
        self._ledger.total += cycles
        self._bucket[self._category] += cycles


@dataclass
class CycleLedger:
    """Accumulates cycles, bucketed by category.

    Categories are free-form strings; the benchmark harness relies on a few
    conventional names (``domain_switch``, ``copy``, ``rmpadjust``,
    ``compute``, ``syscall``, ``crypto``, ``exit``).
    """

    total: int = 0
    #: Cycles per category.  A missing category reads 0 without being
    #: inserted; a charge, even of zero cycles, inserts its category.
    by_category: dict[str, int] = field(default_factory=Tally)

    def charge(self, category: str, cycles: int) -> None:
        """Add ``cycles`` under ``category``."""
        if cycles < 0:
            raise ValueError(f"negative charge: {cycles}")
        self.total += cycles
        self.by_category[category] += cycles

    def handle(self, category: str) -> ChargeHandle:
        """A :class:`ChargeHandle` bound to ``category`` on this ledger."""
        return ChargeHandle(self, category)

    def category(self, name: str) -> int:
        """Total charged under one category."""
        return self.by_category.get(name, 0)

    def snapshot(self) -> "LedgerSnapshot":
        """Immutable copy of the current totals."""
        return LedgerSnapshot(self.total, dict(self.by_category))

    def since(self, snap: "LedgerSnapshot") -> "LedgerSnapshot":
        """Delta between now and an earlier :meth:`snapshot`."""
        delta = {}
        for name, value in self.by_category.items():
            before = snap.by_category.get(name, 0)
            if value != before:
                delta[name] = value - before
        return LedgerSnapshot(self.total - snap.total, delta)

    def reset(self) -> None:
        """Zero every counter.

        Clears the category tally in place (never replaces it) so
        outstanding :class:`ChargeHandle` objects stay valid.
        """
        self.total = 0
        self.by_category.clear()


@dataclass(frozen=True)
class LedgerSnapshot:
    """Immutable view of a ledger at a point in time (or a delta)."""

    total: int
    by_category: dict

    def category(self, name: str) -> int:
        """Cycles this snapshot holds for one category."""
        return self.by_category.get(name, 0)

    def seconds(self, clock_hz: int = CLOCK_HZ) -> float:
        """Render the snapshot total as seconds at the clock."""
        return self.total / clock_hz


def cycles_to_seconds(cycles: int, clock_hz: int = CLOCK_HZ) -> float:
    """Render a cycle count as seconds at the nominal simulator clock."""
    return cycles / clock_hz

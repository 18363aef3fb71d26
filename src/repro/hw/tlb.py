"""veil-turbo: per-VCPU software TLB and RMP permission cache.

Every simulated guest access used to run a full page-table walk and a
per-page :meth:`~repro.hw.rmp.Rmp.check_access`.  Real SNP hardware
caches both in the TLB; the paper's section 9 overheads assume cached
translations, so re-deriving them per access is pure simulator
wall-clock overhead.  This module caches both verdicts:

* **Translation cache** -- per page-table root (a PCID-style tagged TLB):
  ``root_ppn -> {vpn -> Pte}``.  Hits return the cached effective entry;
  CPL/write/execute policy is re-evaluated per access from the cached
  flags, so one cached entry serves every ``(cpl, access-kind)``
  combination, exactly as a hardware TLB entry does.
* **RMP verdict cache** -- ``(ppn, vmpl, access) -> allow``.  Only *allow*
  verdicts are cached; a denied access halts the CVM (fail-stop #NPF), so
  there is never a deny verdict to reuse.

**Invalidation** is generation-based, mirroring the architectural rules:

* each :class:`~repro.hw.pagetable.GuestPageTable` bumps its
  ``generation`` on ``map``/``unmap``/``protect``/``add_window``; a cached
  view is discarded when its generation (or the table's identity, which
  catches root-frame reuse) no longer matches;
* the :class:`~repro.hw.rmp.Rmp` bumps its machine-wide ``generation`` on
  ``rmpadjust``/``bulk_rmpadjust``/``pvalidate``/``assign``/``unassign``/
  ``share``/``install_vmsa`` -- and pessimistically in ``entry()``, since
  that hands out a mutable entry; the whole verdict cache is dropped when
  the generation moved, so an RMPADJUST is visible on the very next
  access (the property the SNP formal-analysis papers pin down);
* a full per-VCPU :meth:`SoftTlb.flush` happens on ``wbinvd`` and at
  explicit CR3 loads outside the PCID-tagged syscall path (scheduler
  context switch, kernel address-space install).

World switches (``VMGEXIT``/``VMENTER``, ``hw_exit``/``hw_enter``) and
the domain-switch gateway's CR3 load do **not** flush.  Nothing they
change can make an entry stale: views are keyed by root and checked
against the table's identity and generation, verdict keys pack the
VMPL, so a VMPL-0 allow can never answer a DomUNT access, and an
RMPADJUST run in another domain moves the RMP generation the next
access compares against.

The cache is *semantics-preserving by construction*: the VCPU access path
charges the same ledger categories with the same amounts whether it hits
or misses, failures are never cached, and the cache emits no trace
events, so cycle totals and traces never depend on what it holds.
``tests/hw/test_snp_reference.py`` checks every verdict and charge
against an independent, cache-free model of the SNP rules.
Observability is counter-only: :meth:`SoftTlb.publish` folds the
hit/miss/flush counters into a :class:`~repro.trace.MetricsRegistry` at
end of run.

Known limitation, shared with real hardware: the caches track the
*gated* mutators.  Code that holds a mutable :class:`~repro.hw.rmp.RmpEntry`
or :class:`~repro.hw.pagetable.Pte` across other accesses and mutates it
later without going through a gate (or re-fetching via ``entry()``)
bypasses invalidation -- veil-lint's ``gate-bypass`` and
``rmp-mutation-generation`` rules exist to keep such code out of the
tree.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:
    from .pagetable import GuestPageTable, Pte


class TlbStats:
    """Plain-integer counters for one :class:`SoftTlb`.

    Deliberately not trace events: the exported trace holds model state
    only, so the cache only counts.
    """

    __slots__ = ("hits", "misses", "rmp_hits", "rmp_misses", "flushes",
                 "table_invalidations", "rmp_invalidations")

    def __init__(self):
        self.hits = 0                    # translation served from cache
        self.misses = 0                  # translation filled from the table
        self.rmp_hits = 0                # RMP verdict served from cache
        self.rmp_misses = 0              # RMP verdict re-derived
        self.flushes = 0                 # full architectural flushes
        self.table_invalidations = 0     # stale per-root views discarded
        self.rmp_invalidations = 0       # verdict-cache drops (generation)

    def as_dict(self) -> dict[str, int]:
        """Counters as a plain ``{name: value}`` dict."""
        return {name: getattr(self, name) for name in self.__slots__}

    @property
    def hit_rate(self) -> float:
        """Translation hit rate in ``[0, 1]`` (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class TlbView:
    """Cached translations for one page-table root at one generation."""

    __slots__ = ("table", "generation", "entries")

    def __init__(self, table: "GuestPageTable"):
        #: The table object itself -- identity-checked on lookup so a
        #: *different* table registered under a reused root frame can
        #: never serve stale entries.
        self.table = table
        #: The table generation the entries below were filled under.
        self.generation = table.generation
        #: ``vpn -> Pte`` (the table's live effective entries).
        self.entries: dict[int, "Pte"] = {}


class SoftTlb:
    """Per-VCPU software TLB + RMP permission cache.

    The :class:`~repro.hw.vcpu.VirtualCpu` access path owns the lookup
    and fill logic (it is the hot loop); this object owns the state, the
    flush rules, and the counters.
    """

    __slots__ = ("views", "rmp_allow", "rmp_generation", "stats",
                 "cur_root", "cur_view", "cur_ptver")

    def __init__(self):
        #: ``root_ppn -> TlbView`` (the PCID-style tag is the root).
        self.views: dict[int, TlbView] = {}
        #: Cached *allow* verdicts, as packed integer keys
        #: ``(ppn << 6) | (vmpl << 4) | access_bits`` (access bits fit in
        #: 4, VMPLs in 2 -- int keys hash an order of magnitude faster
        #: than enum-bearing tuples on the access fast path).
        self.rmp_allow: set = set()
        #: The RMP generation :attr:`rmp_allow` was filled under.
        self.rmp_generation = -1
        #: Current-root shortcut for the VCPU fast path: the view for
        #: ``cur_root`` validated under page-table-registry version
        #: ``cur_ptver``.  ``cur_root == -1`` means "no shortcut"; a
        #: flush resets it so a cleared cache can never be revisited
        #: through a stale pointer.
        self.cur_root = -1
        self.cur_view: "TlbView | None" = None
        self.cur_ptver = -1
        self.stats = TlbStats()

    def view_for(self, root_ppn: int, table: "GuestPageTable") -> TlbView:
        """Install (replacing any stale view) and return a fresh view."""
        if root_ppn in self.views:
            self.stats.table_invalidations += 1
        view = TlbView(table)
        self.views[root_ppn] = view
        return view

    def invalidate_rmp(self, generation: int) -> None:
        """Drop every cached RMP verdict; resync to ``generation``."""
        self.rmp_allow.clear()
        self.rmp_generation = generation
        self.stats.rmp_invalidations += 1

    def flush(self) -> None:
        """Full architectural flush: translations and RMP verdicts."""
        self.views.clear()
        self.rmp_allow.clear()
        self.cur_root = -1
        self.cur_view = None
        self.cur_ptver = -1
        self.stats.flushes += 1

    def publish(self, metrics) -> None:
        """Fold the counters into a metrics registry under ``tlb/...``.

        Zero counters are skipped, so a core that never touched memory
        adds nothing to the metrics dump.
        """
        for name, value in self.stats.as_dict().items():
            if value:
                metrics.count("tlb", name, value)

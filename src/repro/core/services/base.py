"""Base class for Veil protected services (DomSER residents)."""

from __future__ import annotations

import functools
import typing

from ...hw.memory import PAGE_SIZE, page_base

if typing.TYPE_CHECKING:
    from ...hw.vcpu import VirtualCpu
    from ..veilmon import VeilMon


def traced(op: str):
    """Wrap a ``handle_*(self, core, request)`` method in a service span.

    The declarative twin of :meth:`ProtectedService.trace_span`:
    veil-lint's ``trace-span`` rule accepts either form on a handler.
    """

    def wrap(method):
        @functools.wraps(method)
        def inner(self, core, request):
            if not self.machine.tracer.enabled:
                return method(self, core, request)
            with self.trace_span(core, op):
                return method(self, core, request)
        return inner

    return wrap


class ProtectedService:
    """A service compiled into the boot image and executing in DomSER.

    Subclasses declare request handlers via :meth:`handlers`; VeilMon
    registers them into the DomSER dispatch table.  Service code and data
    pages are reserved from protected memory at construction so DomUNT and
    DomENC can never touch them.
    """

    name = "abstract"
    IMAGE_PAGES = 16

    def __init__(self, veilmon: "VeilMon"):
        self.veilmon = veilmon
        self.machine = veilmon.machine
        self.image_ppns = veilmon.reserve_protected_frames(
            self.IMAGE_PAGES, f"{self.name}-image")
        self.request_count = 0

    def handlers(self) -> dict:
        """op-name -> handler(core, request) mapping for DomSER dispatch."""
        return {}

    # -- helpers shared by services -----------------------------------------

    def trace_span(self, core: "VirtualCpu", op: str, **args):
        """Open a ``service``-category span for one request handler.

        Every ``handle_*`` method opens one of these (enforced by
        veil-lint's ``trace-span`` rule); the span name is
        ``<service>:<op>`` so exported traces and the metrics registry
        break service time down per operation.
        """
        self.machine.tracer.metrics.count("service", f"{self.name}:{op}")
        return self.machine.tracer.span(
            "service", f"{self.name}:{op}", vcpu=core.cpu_index,
            vmpl=core.instance.vmpl if core.instance is not None else -1,
            args=args or None)

    def charge(self, cycles: int, category: str = "service") -> None:
        """Charge service-side cycles to the ledger."""
        self.machine.ledger.charge(category, cycles)

    def sanitize(self, ppns) -> None:
        """Reject OS pointers into protected regions (VeilMon publishes its
        protected-region map to services, section 8.1)."""
        self.veilmon.sanitize_ppn_range(ppns)

    def read_page(self, core: "VirtualCpu", ppn: int, offset: int = 0,
                  length: int = PAGE_SIZE) -> bytes:
        """Read from a physical page at service privilege."""
        return core.read_phys(page_base(ppn) + offset, length)

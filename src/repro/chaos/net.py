"""A fault-injecting view of the inter-host fabric.

:class:`ChaoticNetwork` subclasses the fleet's
:class:`~repro.cluster.net.InterHostNetwork` and applies a
:class:`~repro.chaos.plan.FaultPlan` verdict to every message: deliver,
drop, duplicate, hold-and-reorder, or bit-flip.  It also *snoops* -- it
keeps the full transcript of bytes that crossed the fabric, which is
exactly what a datacenter adversary sees and what the invariant checker
scans for plaintext leaks afterwards.

With no plan (or an inactive one) every message takes the parent's
delivery path untouched, so ledgers, metrics, and traces are
byte-identical to an unwrapped fleet -- a tested invariant.
"""

from __future__ import annotations

import typing

from ..cluster.net import InterHostNetwork

if typing.TYPE_CHECKING:
    from .plan import FaultPlan


class ChaoticNetwork(InterHostNetwork):
    """The untrusted fabric, with the adversary actually misbehaving."""

    def __init__(self, plan: "FaultPlan | None" = None, tracer=None):
        super().__init__(tracer=tracer)
        self.plan = plan
        #: Everything that crossed the fabric: (src, dst, wire bytes).
        #: The adversary's transcript, scanned by the invariant checker.
        self.snooped: list[tuple[str, str, bytes]] = []
        #: Held (delayed) messages: (release_at_send_index, src, dst,
        #: payload), re-delivered once enough later sends have passed.
        self._held: list[tuple[int, str, str, bytes]] = []
        self._send_index = 0

    def send(self, src: str, dst: str, payload: bytes) -> None:
        """Deliver one message, subject to the plan's verdict."""
        self.snooped.append((src, dst, bytes(payload)))
        self._send_index += 1
        if self.plan is None or not self.plan.active:
            super().send(src, dst, payload)
            self._release()
            return
        fate = self.plan.fate(src, dst, payload)
        link = f"{src}->{dst}"
        if fate.drop:
            # The sender's NIC did the work; the receiver never hears.
            self.endpoint(src).ledger.charge(
                "net", self.cost.message_cost(len(payload)))
            self.tracer.metrics.count("chaos_drop", link)
            if self.scope.enabled:
                self.scope.on_fault("drop", link)
            self._release()
            return
        if fate.corrupted:
            self.tracer.metrics.count("chaos_corrupt", link)
            if self.scope.enabled:
                self.scope.on_fault("corrupt", link)
        if fate.hold:
            self._held.append((self._send_index + fate.hold, src, dst,
                               fate.payload))
            self.tracer.metrics.count("chaos_delay", link)
            if self.scope.enabled:
                self.scope.on_fault("delay", link,
                                    detail=f"hold={fate.hold}")
            self._release()
            return
        if fate.copies > 1:
            self.tracer.metrics.count("chaos_dup", link)
            if self.scope.enabled:
                self.scope.on_fault("dup", link,
                                    detail=f"copies={fate.copies}")
        for _copy in range(fate.copies):
            super().send(src, dst, fate.payload)
        self._release()

    def _release(self) -> None:
        """Deliver held messages whose hold-back window has passed."""
        if not self._held:
            return
        due = [held for held in self._held
               if held[0] <= self._send_index]
        if not due:
            return
        self._held = [held for held in self._held
                      if held[0] > self._send_index]
        for _at, src, dst, payload in due:
            super().send(src, dst, payload)

    def flush_held(self) -> int:
        """Deliver every still-held message now (end of a schedule).

        Returns how many were released.  Run before the recovery /
        audit phase so "delayed" never silently becomes "dropped".
        """
        held, self._held = self._held, []
        for _at, src, dst, payload in held:
            super().send(src, dst, payload)
        return len(held)

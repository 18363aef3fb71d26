"""Host-side virtio-style console exposed to the CVM.

The CVM reaches the console only through GHCB-mediated exits (the
hypervisor services ``io`` requests).  The device is deliberately
untrusted: tests can tamper with it to model malicious-host behaviour,
and nothing security-critical may depend on it.
"""

from __future__ import annotations


class VirtioConsole:
    """Append-only console sink (used by ``printf``-style syscalls)."""

    def __init__(self):
        self.lines: list[str] = []
        self._partial = ""

    def write(self, data: bytes) -> int:
        """Append bytes, splitting complete lines."""
        text = self._partial + data.decode("utf-8", errors="replace")
        *complete, self._partial = text.split("\n")
        self.lines.extend(complete)
        return len(data)

    def flush(self) -> None:
        """Emit any trailing partial line."""
        if self._partial:
            self.lines.append(self._partial)
            self._partial = ""

    @property
    def output(self) -> str:
        return "\n".join(self.lines + ([self._partial] if self._partial
                                       else []))

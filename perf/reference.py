"""The reference kernel that turns host seconds into reference seconds.

The machine this benchmark runs on is shared, and its speed drifts by
20% and more within minutes.  So every round runs a fixed pure-Python
kernel before it, at its phase boundaries and after it.  The round's
host times are multiplied by ``REFERENCE_KERNEL_S`` over the kernel's
mean time, giving what the round would take on the quiet machine.  The
kernel is benchmark code that never changes, so it measures the machine
and nothing else.
"""

from __future__ import annotations

#: The kernel's time on a quiet 2-CPU development container.
REFERENCE_KERNEL_S = 0.025


class _Cell:
    __slots__ = ("key", "data")

    def __init__(self, key: int):
        self.key = key
        self.data: dict = {}


def reference_kernel(n: int = 6000) -> int:
    """Fixed interpreter work: object creation, attribute and dict
    access, bytes slicing, integer arithmetic and generator iteration."""
    table: dict = {}
    blob = bytes(range(256)) * 16
    total = 0
    for i in range(n):
        cell = _Cell(i)
        cell.data[i & 63] = blob[i & 255:(i & 255) + 64]
        table[i & 1023] = cell
        total += len(cell.data[i & 63]) + (i * 2654435761 & 0xffff)
        if (i & 7) == 0:
            total += sum(1 for key in table if key & 1) & 0xff
    return total


def scale(kernel_s: list[float]) -> float:
    """Factor from host seconds to reference seconds for one round."""
    return REFERENCE_KERNEL_S * len(kernel_s) / sum(kernel_s)

"""Layer boundaries and the traced-round span recorder.

The benchmark measures each layer from outside: for one extra round per
workload it wraps the public methods that form each layer's boundary
(the table below) with a span recorder, then restores them.  A layer is
a ``repro`` package; its *self time* is the time spent inside its
boundary spans minus the time covered by spans nested inside them, so
the sum of self times over all layers never counts a second twice.

Spans are aggregated as they close (per layer: self seconds and call
count) rather than kept one by one, because the hardware boundary alone
closes about 200k spans in a fleet-surge round.  Every target in the table must
exist: a refactor that renames or removes one makes :func:`install`
raise instead of silently losing that layer's time.
"""

from __future__ import annotations

import functools
import importlib
import time

#: layer -> ((module, class, (method, ...)), ...).  The part of the traced
#: round no boundary covers (the benchmark's own driving code and
#: uninstrumented glue) is reported as ``trace.unattributed_s``.
BOUNDARIES: dict[str, tuple] = {
    "hw": (
        ("repro.hw.vcpu", "VirtualCpu",
         ("read", "write", "fetch", "read_phys", "write_phys",
          "rmpadjust", "pvalidate", "vmgexit")),
        ("repro.hw.memory", "PhysicalMemory", ("read", "write")),
        ("repro.hw.rmp", "Rmp",
         ("check_access", "rmpadjust", "bulk_rmpadjust", "pvalidate")),
    ),
    "hv": (
        ("repro.hv.hypervisor", "Hypervisor",
         ("handle_vmgexit", "handle_automatic_exit")),
    ),
    "core": (
        ("repro.core.switch", "MonitorGateway",
         ("call_monitor", "call_service")),
        ("repro.core.veilmon", "VeilMon",
         ("__init__", "initialize", "apply_protection_sweeps")),
    ),
    "core.services": (
        ("repro.core.services.log", "VeilSLog", ("append",)),
        ("repro.core.services.kci", "VeilSKci",
         ("handle_load_module", "handle_unload_module")),
    ),
    "kernel": (
        ("repro.kernel.kernel", "Kernel", ("boot",)),
        ("repro.kernel.syscalls", "SyscallTable", ("dispatch",)),
    ),
    "enclave": (
        ("repro.enclave.host", "EnclaveHost", ("launch",)),
        ("repro.enclave.runtime", "EnclaveRuntime",
         ("syscall", "enter", "exit_to_untrusted", "enclave_read",
          "enclave_write", "compute")),
        ("repro.enclave.allocator", "EnclaveHeap", ("malloc", "free")),
        ("repro.enclave.sanitizer", "SyscallSanitizer",
         ("marshal", "finish")),
    ),
    "crypto": (
        ("repro.crypto.channel", "SecureChannel", ("send", "receive")),
        ("repro.crypto.rsa", "RsaKeyPair", ("sign",)),
        ("repro.crypto.rsa", "RsaPublicKey", ("verify",)),
        ("repro.crypto.dh", "DhKeyPair", ("__init__", "shared_key")),
    ),
    "cluster": (
        ("repro.cluster.frontend", "FrontEnd",
         ("request", "open_loop_attempt")),
        ("repro.cluster.net", "InterHostNetwork", ("send", "recv")),
        ("repro.cluster.replica", "ClusterReplica",
         ("pump", "reboot", "restart")),
        ("repro.cluster.attest", "FleetVerifier", ("establish",)),
        ("repro.cluster.auditor", "FleetAuditor", ("sweep",)),
    ),
    "surge": (
        ("repro.surge.sched", "DiscreteEventScheduler", ("step",)),
    ),
    "chaos": (
        ("repro.chaos.net", "ChaoticNetwork", ("send",)),
        ("repro.chaos.invariants", "InvariantChecker", ("check",)),
    ),
    "scope": (
        ("repro.scope.collector", "FleetScope",
         ("request_begin", "request_end", "on_message")),
    ),
}

LAYERS: tuple[str, ...] = tuple(BOUNDARIES)


class LayerTargetMissing(RuntimeError):
    """A boundary named in :data:`BOUNDARIES` no longer exists."""


def resolve_targets() -> list[tuple[str, type, str]]:
    """Every ``(layer, class, method)`` in the table, checked to exist.

    Raises :class:`LayerTargetMissing` naming each missing target, so a
    refactor that moves a boundary fails the run rather than dropping
    the layer's time into ``unattributed``.
    """
    targets, missing = [], []
    for layer, entries in BOUNDARIES.items():
        for module_name, class_name, methods in entries:
            try:
                cls = getattr(importlib.import_module(module_name),
                              class_name)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{class_name}")
                continue
            for method in methods:
                if not callable(cls.__dict__.get(method)):
                    missing.append(f"{module_name}.{class_name}.{method}")
                    continue
                targets.append((layer, cls, method))
    if missing:
        raise LayerTargetMissing(
            "layer boundaries not found (update perf/layers.py): " +
            ", ".join(missing))
    return targets


class SpanRecorder:
    """Aggregates nested boundary spans into per-layer self time."""

    def __init__(self):
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        #: One ``[child_seconds]`` cell per open span, innermost last.
        self._stack: list[list[float]] = []
        self._installed: list[tuple[type, str, object]] = []

    def _wrap(self, layer: str, fn):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - cell[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
        return span

    def exclude(self, seconds: float) -> None:
        """Attribute ``seconds`` spent inside the open span to no layer
        (the benchmark's own reference-kernel runs)."""
        if self._stack:
            self._stack[-1][0] += seconds

    def install(self) -> None:
        """Wrap every boundary method (raises if one is missing)."""
        if self._installed:
            raise RuntimeError("span recorder already installed")
        for layer, cls, method in resolve_targets():
            original = cls.__dict__[method]
            self._installed.append((cls, method, original))
            setattr(cls, method, self._wrap(layer, original))

    def uninstall(self) -> None:
        """Restore every wrapped method, in reverse install order."""
        while self._installed:
            cls, method, original = self._installed.pop()
            setattr(cls, method, original)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def layer_metrics(recorder: SpanRecorder, scale: float,
                  traced_wall_s: float,
                  untraced_wall_s: float) -> dict[str, float]:
    """Per-layer host metrics from one traced round.

    Self times are multiplied by ``scale``, the traced round's factor to
    reference seconds, so they add up to ``traced_wall_s`` (already
    scaled).  ``share`` is self time over the traced round's wall time;
    ``trace.unattributed_s`` is the part of the round no boundary span
    covered, and ``trace.overhead_pct`` compares the traced round with
    the median untraced one.
    """
    out: dict[str, float] = {}
    for layer in LAYERS:
        self_s = recorder.self_s[layer] * scale
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.calls"] = recorder.calls[layer]
        out[f"{layer}.share"] = self_s / traced_wall_s
    attributed = sum(recorder.self_s.values()) * scale
    out["trace.unattributed_s"] = max(0.0, traced_wall_s - attributed)
    out["trace.coverage"] = attributed / traced_wall_s
    out["trace.overhead_pct"] = \
        100.0 * (traced_wall_s - untraced_wall_s) / untraced_wall_s
    return out

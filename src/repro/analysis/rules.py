"""The veil-lint rule registry.

Each rule mechanizes one trust boundary of the simulated Veil stack; the
mapping from rule to paper invariant (Tables 1/2 rows) is documented in
``docs/ANALYSIS.md``.  Rules are pure functions of a
:class:`~repro.analysis.graph.PackageIndex` and yield
:class:`~repro.analysis.engine.Finding` objects.

This module deliberately imports nothing from the rest of ``repro`` --
the analyzer must stay runnable on a tree whose layering is broken.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from .engine import Finding, Severity
from .graph import Module, PackageIndex


class Rule:
    """Base class: a named check over the package index."""

    name = "abstract"
    severity = Severity.ERROR
    description = ""

    def check(self, index: PackageIndex) -> Iterator[Finding]:
        """Yield findings for every violation in ``index``."""
        raise NotImplementedError

    def finding(self, module: Module, line: int, message: str) -> Finding:
        """Construct a finding attributed to this rule."""
        return Finding(rule=self.name, severity=self.severity,
                       path=str(module.path), line=line, message=message)


# ---------------------------------------------------------------------------
# Rule 1: layering
# ---------------------------------------------------------------------------

#: Allowed intra-package runtime imports per subpackage.  Subpackages not
#: listed here (attacks, bench, workloads, the CLI and package roots) sit
#: above the trust boundary and may import anything.  ``errors`` and
#: ``codec`` are leaf utility layers; ``crypto`` sits just above them.
LAYER_ALLOWED: dict[str, frozenset[str]] = {
    "errors": frozenset(),
    # ``codec`` is the one wire codec (JSON frames through the GHCB,
    # the IDCBs, the secure channels and the fleet fabric): a leaf
    # utility below every layer that reads or writes a frame.
    "codec": frozenset({"errors"}),
    # ``trace`` is a leaf observability layer: any layer may emit into
    # it, but it must never reach back into the stack it observes.
    "trace": frozenset({"errors"}),
    # ``scope`` (veil-scope) is the fleet-wide observability leaf: it
    # aggregates what the layers above push into it, and like ``trace``
    # it must never reach back into the stack it observes.
    "scope": frozenset({"trace", "codec", "errors"}),
    "hw": frozenset({"trace", "codec", "errors"}),
    "crypto": frozenset({"codec", "errors"}),
    "hv": frozenset({"hw", "trace", "crypto", "codec", "errors"}),
    "kernel": frozenset({"hw", "trace", "crypto", "codec", "errors"}),
    "enclave": frozenset({"hw", "kernel", "trace", "crypto", "codec",
                          "errors"}),
    "core": frozenset({"hw", "hv", "kernel", "enclave", "trace",
                       "crypto", "codec", "errors"}),
    # ``cluster`` composes whole machines: it sits above every
    # single-machine layer (it may orchestrate all of them, plus the
    # workload models it deploys), but nothing below may reach back up
    # into fleet code -- a replica CVM must not know it is in a fleet.
    "cluster": frozenset({"hw", "hv", "kernel", "enclave", "core",
                          "workloads", "trace", "scope", "crypto",
                          "codec", "errors"}),
    # ``chaos`` is the fault-injection harness: it drives the fleet (and
    # reaches byzantine knobs in ``hv``) from above, so it may import
    # every layer -- but nothing imports chaos: injection is strictly an
    # outside-in concern and the production stack must not know it is
    # being tortured.
    "chaos": frozenset({"cluster", "hw", "hv", "kernel", "enclave",
                        "core", "workloads", "trace", "scope", "crypto",
                        "codec", "errors"}),
    # The analyzer itself must not depend on the tree it judges.
    "analysis": frozenset(),
}


class LayeringRule(Rule):
    """VMPL layering: lower layers must not import upward.

    The load-bearing edges: ``hw`` (the simulated silicon) imports no
    guest or monitor software; ``hv`` sees only hardware; ``kernel``
    (DomUNT guest code) never reaches into ``core`` (the VMPL-0 monitor)
    or ``hv``.  ``TYPE_CHECKING``-only imports are exempt -- they are
    erased at runtime and cannot move data across a boundary.
    """

    name = "layering"
    description = ("subpackage imports must respect the VMPL trust "
                   "layering (hw < hv/kernel < enclave < core)")

    def check(self, index: PackageIndex) -> Iterator[Finding]:
        for module in index.modules:
            allowed = LAYER_ALLOWED.get(module.top_package)
            if allowed is None:
                continue
            for imp in module.imports:
                if imp.type_checking:
                    continue
                target_top = imp.target.split(".", 1)[0] if imp.target \
                    else ""
                if target_top == module.top_package:
                    continue           # intra-layer import
                if target_top in allowed:
                    continue
                if target_top == "":
                    # ``from .. import x`` at the package root.
                    target_top = "<package root>"
                yield self.finding(
                    module, imp.line,
                    f"layer {module.top_package!r} must not import "
                    f"{target_top!r} (allowed: "
                    f"{', '.join(sorted(allowed)) or 'nothing'})")


# ---------------------------------------------------------------------------
# Rule 2: gate bypass
# ---------------------------------------------------------------------------

#: Private hardware-state containers; touching them outside ``hw`` reads
#: or writes protected state without an RMP check.
_PRIVATE_STATE_ATTRS = frozenset({"_pages", "_entries", "_default"})

#: RMP per-page metadata fields.  Writing them outside ``hw`` forges RMP
#: state; ``perms`` is flagged on any access (reads must use
#: ``RmpEntry.allows`` / ``Rmp.check_access``).
_RMP_FIELD_WRITE_ATTRS = frozenset({"assigned", "validated", "shared"})


class GateBypassRule(Rule):
    """Direct pokes at protected state outside :mod:`repro.hw`.

    Everything above the hardware layer must reach pages and RMP entries
    through the gates (``PhysicalMemory.read/write``, ``Rmp.rmpadjust``,
    ``Rmp.check_access``, ``Rmp.install_vmsa``...).  Attack code bypasses
    them on purpose and carries justified suppressions.
    """

    name = "gate-bypass"
    description = ("physical pages, RMP entries and RmpEntry.perms may "
                   "only be touched inside repro.hw")

    def check(self, index: PackageIndex) -> Iterator[Finding]:
        for module in index.modules:
            if module.tree is None or index.in_subpackage(module, "hw"):
                continue
            yield from self._check_module(module)

    def _check_module(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            targets: Iterable[ast.expr] = ()
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = (node.target,)
            for target in targets:
                if isinstance(target, ast.Attribute) and \
                        self._is_rmp_field_write(target, node):
                    yield self.finding(
                        module, target.lineno,
                        f"write to RMP entry field .{target.attr} "
                        "outside repro.hw: use an Rmp gate "
                        "(rmpadjust/assign/share/install_vmsa)")
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr in _PRIVATE_STATE_ATTRS:
                yield self.finding(
                    module, node.lineno,
                    f"access to private hardware state .{node.attr} "
                    "outside repro.hw: go through "
                    "PhysicalMemory.read/write or the Rmp API")
            elif node.attr == "perms":
                yield self.finding(
                    module, node.lineno,
                    "access to RmpEntry.perms outside repro.hw: use "
                    "Rmp.rmpadjust to change and Rmp.check_access/"
                    "RmpEntry.allows to query permissions")

    @staticmethod
    def _is_rmp_field_write(target: ast.Attribute, stmt: ast.stmt) -> bool:
        if target.attr in _RMP_FIELD_WRITE_ATTRS:
            return True
        # ``.vmsa`` collides with ordinary object fields holding a VMSA
        # object; only boolean stores look like RMP bit forgery.
        if target.attr == "vmsa" and isinstance(stmt, ast.Assign):
            value = stmt.value
            return isinstance(value, ast.Constant) and \
                isinstance(value.value, bool)
        return False


# ---------------------------------------------------------------------------
# Rule 3: audit completeness
# ---------------------------------------------------------------------------

class AuditCompletenessRule(Rule):
    """Every syscall reaches the kaudit hook (paper section 6.3).

    Structural argument mechanized here: (a) ``SyscallTable.dispatch``
    calls ``log_syscall`` *before* invoking the handler, and (b) no code
    outside ``SyscallTable`` calls a ``sys_*`` handler directly, so
    dispatch -- and with it execute-ahead auditing -- cannot be bypassed.
    """

    name = "audit-completeness"
    description = ("syscall handlers are only reachable through "
                   "SyscallTable.dispatch, which must audit first")

    syscalls_module = "kernel.syscalls"
    table_class = "SyscallTable"

    def check(self, index: PackageIndex) -> Iterator[Finding]:
        syscalls = index.module(self.syscalls_module)
        if syscalls is not None and syscalls.tree is not None:
            yield from self._check_dispatch(syscalls)
        for module in index.modules:
            if module.tree is None:
                continue
            yield from self._check_direct_calls(module)

    def _check_dispatch(self, module: Module) -> Iterator[Finding]:
        table = next(
            (n for n in ast.walk(module.tree)
             if isinstance(n, ast.ClassDef) and n.name == self.table_class),
            None)
        if table is None:
            yield self.finding(
                module, 1,
                f"{self.table_class} class not found in "
                f"{self.syscalls_module}; the audit hook has no anchor")
            return
        dispatch = next(
            (n for n in table.body
             if isinstance(n, ast.FunctionDef) and n.name == "dispatch"),
            None)
        if dispatch is None:
            yield self.finding(
                module, table.lineno,
                f"{self.table_class}.dispatch not found; syscalls have "
                "no audited entry point")
            return
        audit_line = handler_line = None
        for node in ast.walk(dispatch):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and \
                    func.attr == "log_syscall" and audit_line is None:
                audit_line = node.lineno
            if isinstance(func, ast.Name) and func.id == "handler" and \
                    handler_line is None:
                handler_line = node.lineno
        if audit_line is None:
            yield self.finding(
                module, dispatch.lineno,
                "dispatch never calls the kaudit hook (log_syscall): "
                "syscalls would run unaudited")
        elif handler_line is not None and audit_line > handler_line:
            yield self.finding(
                module, audit_line,
                "dispatch audits *after* running the handler; "
                "execute-ahead auditing (section 6.3) requires the "
                "record to be protected before the event")

    def _check_direct_calls(self, module: Module) -> Iterator[Finding]:
        """Flag ``x.sys_foo(...)`` outside the SyscallTable class body."""
        class_stack: list[str] = []

        def walk(node: ast.AST) -> Iterator[Finding]:
            if isinstance(node, ast.ClassDef):
                class_stack.append(node.name)
                for child in ast.iter_child_nodes(node):
                    yield from walk(child)
                class_stack.pop()
                return
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr.startswith("sys_"):
                if self.table_class not in class_stack:
                    yield self.finding(
                        module, node.lineno,
                        f"direct call to syscall handler "
                        f".{node.func.attr}() bypasses dispatch and "
                        "the kaudit hook; go through "
                        "SyscallTable.dispatch")
            for child in ast.iter_child_nodes(node):
                yield from walk(child)

        yield from walk(module.tree)


# ---------------------------------------------------------------------------
# Rule 4: exception hygiene
# ---------------------------------------------------------------------------

#: Catching any of these swallows architectural faults (#NPF, #GP,
#: invalid-instruction) that the fail-stop defence depends on.
_BROAD_EXCEPTIONS = frozenset({
    "Exception", "BaseException", "ReproError", "VeilFault",
    "HardwareFault",
})


class ExceptionHygieneRule(Rule):
    """No bare/broad ``except`` that would swallow hardware faults.

    The paper's observable defence outcome is fail-stop: an attack ends
    in ``NestedPageFault``/``CvmHalted``.  A broad handler between the
    fault point and the test harness converts "defended" into silent
    corruption.  Catch targeted exception types instead, or suppress
    with a reason where surviving any fault is the point (the LTP
    conformance harness).
    """

    name = "exception-hygiene"
    description = ("no bare/broad except clauses that could swallow "
                   "NestedPageFault/InvalidInstruction")

    def check(self, index: PackageIndex) -> Iterator[Finding]:
        for module in index.modules:
            if module.tree is None:
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                broad = self._broad_name(node.type)
                if broad is None:
                    continue
                yield self.finding(
                    module, node.lineno,
                    f"broad 'except {broad}' swallows hardware faults "
                    "(NestedPageFault/InvalidInstruction); catch "
                    "targeted exception types")

    @staticmethod
    def _broad_name(type_node: ast.expr | None) -> str | None:
        if type_node is None:
            return "<bare>"
        names: list[ast.expr]
        if isinstance(type_node, ast.Tuple):
            names = list(type_node.elts)
        else:
            names = [type_node]
        for name in names:
            if isinstance(name, ast.Name) and name.id in _BROAD_EXCEPTIONS:
                return name.id
            if isinstance(name, ast.Attribute) and \
                    name.attr in _BROAD_EXCEPTIONS:
                return name.attr
        return None


# ---------------------------------------------------------------------------
# Rule 5: VMPL literal hygiene
# ---------------------------------------------------------------------------

class VmplLiteralRule(Rule):
    """No magic VMPL integers outside :mod:`repro.hw`.

    The domain-to-VMPL assignment (DomMON=0 ... DomUNT=3) is hardware
    vocabulary; software layers must use the named constants
    (``VMPL_MON``/``VMPL_SER``/``VMPL_ENC``/``VMPL_UNT`` from
    ``repro.hw``) so a renumbering -- or a typo -- cannot silently move
    code into the wrong trust domain.
    """

    name = "vmpl-literal"
    description = ("VMPL numbers outside repro.hw must use the named "
                   "constants from repro.hw")

    def check(self, index: PackageIndex) -> Iterator[Finding]:
        for module in index.modules:
            if module.tree is None or index.in_subpackage(module, "hw"):
                continue
            for node in ast.walk(module.tree):
                yield from self._check_node(module, node)

    @staticmethod
    def _mentions_vmpl(node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return "vmpl" in node.id.lower()
        if isinstance(node, ast.Attribute):
            return "vmpl" in node.attr.lower()
        return False

    @staticmethod
    def _int_literal(node: ast.expr) -> bool:
        return (isinstance(node, ast.Constant) and
                isinstance(node.value, int) and
                not isinstance(node.value, bool))

    def _check_node(self, module: Module,
                    node: ast.AST) -> Iterator[Finding]:
        message = ("magic VMPL integer outside repro.hw: use "
                   "VMPL_MON/VMPL_SER/VMPL_ENC/VMPL_UNT from repro.hw")
        if isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg and "vmpl" in kw.arg.lower() and \
                        self._int_literal(kw.value):
                    yield self.finding(module, kw.value.lineno, message)
            # ``message.get("vmpl", 3)``-style dict lookups.
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "get" and len(node.args) == 2:
                key, default = node.args
                if isinstance(key, ast.Constant) and \
                        isinstance(key.value, str) and \
                        "vmpl" in key.value.lower() and \
                        self._int_literal(default):
                    yield self.finding(module, default.lineno, message)
        elif isinstance(node, ast.Dict):
            # GHCB messages: ``{"op": ..., "vmpl": 0}``.
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and \
                        isinstance(key.value, str) and \
                        "vmpl" in key.value.lower() and \
                        self._int_literal(value):
                    yield self.finding(module, value.lineno, message)
        elif isinstance(node, ast.Assign):
            if self._int_literal(node.value) and \
                    any(self._mentions_vmpl(t) for t in node.targets):
                yield self.finding(module, node.lineno, message)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None and self._int_literal(node.value) \
                    and self._mentions_vmpl(node.target):
                yield self.finding(module, node.lineno, message)
        elif isinstance(node, ast.Compare):
            sides = [node.left] + list(node.comparators)
            if any(self._mentions_vmpl(s) for s in sides) and \
                    any(self._int_literal(s) for s in sides):
                yield self.finding(module, node.lineno, message)


# ---------------------------------------------------------------------------
# Rule 6: trace-span coverage
# ---------------------------------------------------------------------------

#: Method-name prefixes that constitute traced dispatch surfaces, keyed
#: by the class kind they live in (see :meth:`TraceSpanRule._class_kind`).
_TRACED_PREFIXES = {"hypervisor": "_op_", "service": "handle_"}

#: Call names that count as opening a span.
_SPAN_CALL_ATTRS = frozenset({"span", "trace_span"})


class TraceSpanRule(Rule):
    """Dispatch surfaces must open a trace span.

    Observability completeness for the two request fan-outs: every
    hypervisor ``_op_*`` GHCB operation handler and every protected
    service ``handle_*`` request handler either opens a span in its body
    (a ``.span(...)`` / ``.trace_span(...)`` call) or is wrapped by the
    declarative ``@traced("op")`` decorator.  Handlers that are
    intentionally untraced carry an ``allow(trace-span)`` suppression.
    """

    name = "trace-span"
    description = ("Hypervisor._op_* and ProtectedService handle_* "
                   "methods must open a trace span (or use @traced)")

    def check(self, index: PackageIndex) -> Iterator[Finding]:
        for module in index.modules:
            if module.tree is None:
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    yield from self._check_class(module, node)

    def _check_class(self, module: Module,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        kind = self._class_kind(cls)
        if kind is None:
            return
        prefix = _TRACED_PREFIXES[kind]
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            if not item.name.startswith(prefix):
                continue
            if self._has_traced_decorator(item) or \
                    self._opens_span(item):
                continue
            yield self.finding(
                module, item.lineno,
                f"{cls.name}.{item.name} dispatch handler opens no "
                "trace span: wrap the body in a span()/trace_span() "
                "context or decorate with @traced(op)")

    @staticmethod
    def _class_kind(cls: ast.ClassDef) -> str | None:
        if cls.name == "Hypervisor":
            return "hypervisor"
        names = {cls.name}
        for base in cls.bases:
            if isinstance(base, ast.Name):
                names.add(base.id)
            elif isinstance(base, ast.Attribute):
                names.add(base.attr)
        if "ProtectedService" in names:
            return "service"
        return None

    @staticmethod
    def _has_traced_decorator(fn: ast.AST) -> bool:
        for deco in fn.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            if isinstance(target, ast.Name) and target.id == "traced":
                return True
            if isinstance(target, ast.Attribute) and \
                    target.attr == "traced":
                return True
        return False

    @staticmethod
    def _opens_span(fn: ast.AST) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in _SPAN_CALL_ATTRS:
                return True
        return False


# ---------------------------------------------------------------------------
# Rule 7: RMP / page-table mutation -> generation bump
# ---------------------------------------------------------------------------

#: Classes owning generation-guarded hardware state.  The per-VCPU
#: software TLB (``repro.hw.tlb``) caches verdicts derived from their
#: state and relies on the generation counter for invalidation.
_GENERATION_CLASSES = frozenset({"Rmp", "GuestPageTable"})

#: Entry/PTE fields whose mutation changes an access verdict.
_GUARDED_FIELDS = frozenset({"assigned", "validated", "vmsa", "shared",
                             "perms", "present", "writable", "user", "nx"})

#: State containers whose contents feed cached verdicts.
_GUARDED_CONTAINERS = frozenset({"_entries", "_windows", "_default"})

#: Container method names that mutate in place.
_MUTATING_CALLS = frozenset({"append", "extend", "insert", "clear", "pop",
                             "popitem", "remove", "setdefault", "update"})


class RmpMutationGenerationRule(Rule):
    """RMP/page-table mutators must bump their generation counter.

    The software TLB caches translation and RMP-permission verdicts and
    invalidates them by comparing generation counters; a mutator that
    forgets to bump silently serves stale verdicts -- the exact failure
    mode the SNP formal-analysis papers rule out for real hardware
    (RMPADJUST is visible on the next access).  Flags any method of
    ``Rmp`` / ``GuestPageTable`` (inside ``repro.hw``) that writes a
    guarded field or container without a ``self.generation`` bump in the
    same method.  Deliberate exceptions (e.g. ``clone`` filling a fresh
    table) carry justified suppressions.
    """

    name = "rmp-mutation-generation"
    description = ("Rmp/GuestPageTable methods mutating permission or "
                   "mapping state must bump self.generation")

    def check(self, index: PackageIndex) -> Iterator[Finding]:
        for module in index.modules:
            if module.tree is None or not index.in_subpackage(module, "hw"):
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and \
                        node.name in _GENERATION_CLASSES:
                    yield from self._check_class(module, node)

    def _check_class(self, module: Module,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__":
                continue          # construction precedes any caching
            mutations = list(self._mutations(item))
            if not mutations or self._bumps_generation(item):
                continue
            for line, what in mutations:
                yield self.finding(
                    module, line,
                    f"{cls.name}.{item.name} mutates {what} without "
                    "bumping self.generation: cached TLB/RMP verdicts "
                    "would go stale")

    @classmethod
    def _mutations(cls, fn: ast.AST) -> Iterator[tuple[int, str]]:
        for node in ast.walk(fn):
            targets: Iterable[ast.expr] = ()
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = (node.target,)
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in _MUTATING_CALLS and \
                    isinstance(node.func.value, ast.Attribute) and \
                    node.func.value.attr in _GUARDED_CONTAINERS:
                yield (node.lineno,
                       f".{node.func.value.attr}.{node.func.attr}()")
            for target in targets:
                if isinstance(target, ast.Attribute) and \
                        target.attr in _GUARDED_FIELDS | \
                        _GUARDED_CONTAINERS:
                    if target.attr == "generation":
                        continue
                    yield target.lineno, f"field .{target.attr}"
                elif isinstance(target, ast.Subscript) and \
                        isinstance(target.value, ast.Attribute) and \
                        target.value.attr in _GUARDED_CONTAINERS | \
                        frozenset({"perms"}):
                    yield target.lineno, f"container .{target.value.attr}"

    @staticmethod
    def _bumps_generation(fn: ast.AST) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, ast.AugAssign) and \
                    isinstance(node.target, ast.Attribute) and \
                    node.target.attr == "generation":
                return True
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Attribute) and
                    t.attr == "generation" for t in node.targets):
                return True
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in ("bump_generation",
                                       "_bump_generation"):
                return True
        return False


# ---------------------------------------------------------------------------
# Rule 8: fabric sends must carry trace context
# ---------------------------------------------------------------------------

class TraceContextRule(Rule):
    """Fabric request envelopes must propagate the trace context.

    veil-scope's merged fleet timeline only links front-end, fabric, and
    replica spans when every request-path envelope carries the
    ``trace`` context field -- and the field must be attached
    *unconditionally*, because envelope bytes feed the network cost
    model.  Flags any ``encode_message({...})`` dict literal inside
    ``cluster``/``chaos`` that has a ``kind`` field but no ``trace``
    field and is not built through ``attach_context``.  Control-plane
    frames (attestation, channel init, audit export) predate or sit
    outside any request and carry justified suppressions.
    """

    name = "trace-context"
    description = ("fabric send envelopes in cluster/chaos must carry "
                   "the veil-scope trace-context field")

    _layers = ("cluster", "chaos")

    def check(self, index: PackageIndex) -> Iterator[Finding]:
        for module in index.modules:
            if module.tree is None or not any(
                    index.in_subpackage(module, layer)
                    for layer in self._layers):
                continue
            for node in ast.walk(module.tree):
                yield from self._check_call(module, node)

    def _check_call(self, module: Module,
                    node: ast.AST) -> Iterator[Finding]:
        if not isinstance(node, ast.Call):
            return
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else ""
        if name != "encode_message" or not node.args:
            return
        envelope = node.args[0]
        if not isinstance(envelope, ast.Dict):
            return                 # built elsewhere; not statically checkable
        keys = {key.value for key in envelope.keys
                if isinstance(key, ast.Constant) and
                isinstance(key.value, str)}
        if "kind" in keys and "trace" not in keys:
            yield self.finding(
                module, envelope.lineno,
                "fabric envelope carries no trace context: add a "
                "'trace' field (TraceContext.as_wire() / "
                "attach_context) so fleet traces stay linked, or "
                "suppress for control-plane frames")


ALL_RULES: tuple[Rule, ...] = (
    LayeringRule(), GateBypassRule(), AuditCompletenessRule(),
    ExceptionHygieneRule(), VmplLiteralRule(), TraceSpanRule(),
    RmpMutationGenerationRule(), TraceContextRule(),
)


def rule_names() -> tuple[str, ...]:
    """Names of every registered rule, in registry order."""
    return tuple(rule.name for rule in ALL_RULES)

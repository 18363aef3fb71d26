"""Flow rule family: secret-flow taint plus determinism lints.

These rules ride the interprocedural machinery in
:mod:`repro.analysis.callgraph` / :mod:`repro.analysis.flow` and are the
``repro flow`` / ``repro lint --flow`` rule set.  They are registered
separately from :data:`repro.analysis.rules.ALL_RULES` because a
whole-program fixpoint is noticeably heavier than the structural lints
and CI runs the two in separate steps.

Two families:

* ``secret-flow`` -- unsanitized taint paths from key material /
  unsealed plaintext to adversary-visible surfaces (fabric, GHCB,
  traces, exception messages), with the full call chain in the message.
* ``determinism`` / ``set-iteration`` -- the byte-identical-trace
  contract: simulation layers must not consult wall clocks, ambient
  entropy, or unordered-set iteration order; randomness goes through the
  seeded ``DeterministicRandom`` / ``FaultPlan`` facilities.

Finding messages deliberately omit line numbers so the checked-in
``FLOW_BASELINE.json`` can match them across unrelated edits to the same
file (see :mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import ast
from typing import Iterator

from .callgraph import name_path_of
from .engine import Finding, Severity
from .flow import SECRET_FLOW_SPEC, analyze_flows
from .graph import Module, PackageIndex
from .rules import Rule

#: Layers bound by the determinism contract: anything that can affect
#: ledger contents or exported traces.  ``bench`` (wall-clock timing is
#: its whole point), ``attacks`` (adversary harness), ``analysis``
#: (this tool) and the top-level CLI are exempt.
DETERMINISM_LAYERS = frozenset({
    "hw", "hv", "kernel", "enclave", "core", "cluster", "chaos",
    "trace", "scope", "crypto", "codec", "workloads",
})

#: Modules whose import alone is a determinism smell in scope layers.
_FORBIDDEN_MODULES = frozenset({"time", "datetime", "random", "uuid"})

#: Dotted call patterns that reach ambient nondeterminism.
_FORBIDDEN_CALL_HEADS = frozenset({"time", "datetime", "random", "uuid",
                                   "secrets"})


def _layer_of(module: Module) -> str:
    return module.name.split(".", 1)[0] if module.name else ""


def _scope_nodes(scope: ast.AST):
    """Nodes belonging directly to ``scope`` (no nested def bodies)."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class SecretFlowRule(Rule):
    """Interprocedural taint: secrets must be sealed before any sink."""

    name = "secret-flow"
    severity = Severity.ERROR
    description = ("key material, unsealed plaintext, and attestation "
                   "secrets must pass a sealing/digest sanitizer before "
                   "reaching fabric sends, GHCB writes, trace args, or "
                   "exception messages")

    def __init__(self, spec=SECRET_FLOW_SPEC):
        self.spec = spec

    def check(self, index: PackageIndex) -> Iterator[Finding]:
        for flow in analyze_flows(index, self.spec):
            yield Finding(rule=self.name, severity=self.severity,
                          path=flow.path, line=flow.line,
                          message=flow.message)


class DeterminismRule(Rule):
    """Simulation layers must not consult clocks or ambient entropy."""

    name = "determinism"
    severity = Severity.ERROR
    description = ("time/datetime/random/uuid/os.urandom/secrets are "
                   "forbidden in ledger- and trace-affecting layers; "
                   "use the seeded DeterministicRandom / FaultPlan "
                   "facilities")

    def check(self, index: PackageIndex) -> Iterator[Finding]:
        for module in index.modules:
            if module.tree is None or \
                    _layer_of(module) not in DETERMINISM_LAYERS:
                continue
            yield from self._check_module(module)

    def _check_module(self, module: Module) -> Iterator[Finding]:
        type_checking_lines = {
            imp.line for imp in module.imports if imp.type_checking}
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from self._check_import(module, node,
                                              type_checking_lines)
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node)

    def _check_import(self, module: Module, node,
                      type_checking_lines: set[int]) -> Iterator[Finding]:
        if node.lineno in type_checking_lines:
            return
        if isinstance(node, ast.ImportFrom):
            names = [node.module.split(".")[0]] if node.module else []
        else:
            names = [alias.name.split(".")[0] for alias in node.names]
        for name in names:
            if name in _FORBIDDEN_MODULES:
                yield self.finding(
                    module, node.lineno,
                    f"import of nondeterministic module {name!r} in "
                    f"layer {_layer_of(module)!r}")

    def _check_call(self, module: Module,
                    node: ast.Call) -> Iterator[Finding]:
        path = name_path_of(node.func)
        dotted = ".".join(path)
        hit = None
        if len(path) >= 2 and path[0] in _FORBIDDEN_CALL_HEADS:
            hit = dotted
        elif path[-2:] == ("os", "urandom") or dotted == "urandom":
            hit = "os.urandom"
        if hit is not None:
            yield self.finding(
                module, node.lineno,
                f"nondeterministic call {hit} in layer "
                f"{_layer_of(module)!r}")


class SetIterationRule(Rule):
    """Iteration order of unordered sets must not reach the ledger."""

    name = "set-iteration"
    severity = Severity.ERROR
    description = ("iterating a set (or materializing one with "
                   "list()/tuple()) has interpreter-dependent order; "
                   "sort first")

    def check(self, index: PackageIndex) -> Iterator[Finding]:
        for module in index.modules:
            if module.tree is None or \
                    _layer_of(module) not in DETERMINISM_LAYERS:
                continue
            yield from self._check_module(module)

    #: Calls whose result does not depend on argument iteration order;
    #: a set-backed comprehension directly inside one is harmless.
    _ORDER_INSENSITIVE = frozenset({
        "sorted", "set", "frozenset", "sum", "min", "max", "any", "all",
        "len"})

    def _check_module(self, module: Module) -> Iterator[Finding]:
        # Name inference is per *scope*: ``ppns = set()`` in one method
        # must not poison a same-named list in another.
        scopes: list[ast.AST] = [module.tree]
        scopes.extend(node for node in ast.walk(module.tree)
                      if isinstance(node, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)))
        for scope in scopes:
            yield from self._check_scope(module, scope)

    def _check_scope(self, module: Module,
                     scope: ast.AST) -> Iterator[Finding]:
        nodes = list(_scope_nodes(scope))
        set_names = self._set_typed_names(nodes)
        sanctioned: set[int] = set()
        for node in nodes:
            if isinstance(node, ast.Call):
                path = name_path_of(node.func)
                if path[-1] in self._ORDER_INSENSITIVE:
                    sanctioned.update(id(arg) for arg in node.args)
        for node in nodes:
            if isinstance(node, ast.For) and \
                    self._is_set_expr(node.iter, set_names):
                yield self.finding(
                    module, node.lineno,
                    "iteration over an unordered set in layer "
                    f"{_layer_of(module)!r}; use sorted(...)")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)) and \
                    id(node) not in sanctioned:
                # Set/dict comprehensions produce unordered results, so
                # only order-preserving outputs are checked.
                for gen in node.generators:
                    if self._is_set_expr(gen.iter, set_names):
                        yield self.finding(
                            module, node.lineno,
                            "ordered comprehension over an unordered "
                            f"set in layer {_layer_of(module)!r}; use "
                            "sorted(...)")
                        break
            elif isinstance(node, ast.Call):
                path = name_path_of(node.func)
                if path[-1] in ("list", "tuple") and len(node.args) == 1 \
                        and self._is_set_expr(node.args[0], set_names):
                    yield self.finding(
                        module, node.lineno,
                        f"{path[-1]}() over an unordered set in layer "
                        f"{_layer_of(module)!r}; use sorted(...)")

    @staticmethod
    def _set_typed_names(nodes: list[ast.AST]) -> set[str]:
        """Names assigned a set literal / set() within one scope.

        Name-based and flow-insensitive, so a name that ever holds a set
        counts; rebinding a set-typed name to a list later suppresses
        nothing.  That is the right bias for a determinism lint.
        """
        names: set[str] = set()
        for node in nodes:
            targets: list[ast.expr] = []
            value = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or not SetIterationRule._is_set_literal(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    @staticmethod
    def _is_set_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Call):
            path = name_path_of(node.func)
            return path == ("set",) or path == ("frozenset",)
        return False

    @classmethod
    def _is_set_expr(cls, node: ast.expr, set_names: set[str]) -> bool:
        if cls._is_set_literal(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.BinOp) and \
                isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
            # set algebra (a | b, a & b, a - b) over known sets
            return cls._is_set_expr(node.left, set_names) and \
                cls._is_set_expr(node.right, set_names)
        return False


#: The flow rule family (``repro flow``).  ``repro lint --flow`` runs
#: these on top of the structural :data:`~repro.analysis.rules.ALL_RULES`.
FLOW_RULES = (SecretFlowRule(), DeterminismRule(), SetIterationRule())


def flow_rule_names() -> tuple[str, ...]:
    """Names of the flow rule family, in registry order."""
    return tuple(rule.name for rule in FLOW_RULES)

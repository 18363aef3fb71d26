"""No module under ``src/repro`` uses ``collections.Counter``.

Every hot tally -- the cycle ledger's categories (which the VCPU access
path, ``PhysicalMemory`` and ``vmgexit`` also add to inline), the
per-syscall counts, the metrics counters and the histogram buckets --
is a :class:`repro.trace.Tally`, a ``dict`` subclass whose one override
is ``__missing__``.  ``Counter`` also defines ``__delitem__`` in Python,
and CPython then routes every store into the subclass, ``+=`` included,
through a Python-level slot.
Measured on CPython 3.11.7, best of three runs of five repeats: a plain
store takes 140 ns into a ``Counter`` and 31 ns into a ``Tally``,
``+= 5`` 218 ns and 99 ns, and a ``CycleLedger.charge`` 343 ns and
166 ns.  The simulator stores into a tally on every ledger charge,
copy charges included: 28.5 times per audited syscall and 63 times per
fleet-surge request.

This parses every module and fails on ``from collections import
Counter`` (aliased or not), ``from collections import *``,
``collections.Counter`` through any name bound to the module, and the
same forms from ``typing``, whose ``Counter`` builds a
``collections.Counter``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules whose ``Counter`` is ``collections.Counter``.
MODULES = ("collections", "typing")


def counter_imports(source: str) -> list[int]:
    """Line numbers of every ``Counter`` import or use in one module."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is None:
                    # ``import collections.abc`` binds ``collections``.
                    top = alias.name.split(".", 1)[0]
                    if top in MODULES:
                        bound.add(top)
                elif alias.name in MODULES:
                    bound.add(alias.asname)
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module in MODULES and any(
                    alias.name in ("Counter", "*") for alias in node.names):
                lines.add(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "Counter"
              and isinstance(node.value, ast.Name)
              and node.value.id in bound):
            lines.add(node.lineno)
    return sorted(lines)


def test_package_imports_no_counter():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 100
    found = {str(path.relative_to(PACKAGE)): lines for path in modules
             if (lines := counter_imports(path.read_text()))}
    assert not found, found


def test_each_form_is_flagged():
    for source in ("from collections import Counter\n",
                   "from collections import Counter as Tally\n",
                   "from collections import deque, Counter\n",
                   "from collections import *\n",
                   "import collections\ncollections.Counter()\n",
                   "import collections as c\n\nc.Counter()\n",
                   "import collections.abc\ncollections.Counter()\n",
                   "from typing import Counter\n",
                   "import typing\nx: typing.Counter[str]\n"):
        assert counter_imports(source), source
    for source in ("from collections import deque\n",
                   "import collections.abc as abc\nabc.Counter\n",
                   "from .metrics import Counter\n",
                   "stats.Counter()\n"):
        assert counter_imports(source) == [], source

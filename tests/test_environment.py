"""``src/repro`` reads no environment variable.

A run is set by its arguments and configs alone, so one command gives
the same result in every shell.  This parses every module under
``src/repro`` and fails on any use of ``os.environ``, ``os.getenv`` or
``environ``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"


def environment_reads(source: str) -> list[int]:
    """Line numbers of every environment read in one module's source."""
    tree = ast.parse(source)
    os_names = {"os"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            os_names.update(alias.asname or alias.name
                            for alias in node.names if alias.name == "os")
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr == "environ" or (
                    node.attr == "getenv"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in os_names):
                lines.add(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "environ":
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ("environ", "getenv")
                   for alias in node.names):
                lines.add(node.lineno)
    return sorted(lines)


def test_package_reads_no_environment_variable():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 100
    reads = {str(path.relative_to(PACKAGE)): found for path in modules
             if (found := environment_reads(path.read_text()))}
    assert not reads, reads


def test_each_form_is_flagged():
    for source in ("import os\nos.environ.get('X')\n",
                   "import os\n\nos.getenv('X')\n",
                   "import os as _os\n_os.getenv('X')\n",
                   "from os import environ\n",
                   "def f(environ):\n    return environ\n"):
        assert environment_reads(source), source
    assert environment_reads("libc.getenv('HOME')\n") == []

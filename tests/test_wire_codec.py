"""Only the wire codec and the report writers import ``json``.

Every frame one party writes for another (GHCB and IDCB frames, sealed
channel payloads, audit records, disk snapshots, fabric envelopes) goes
through :mod:`repro.codec`, so one module decides how untrusted bytes
are refused.  This parses every module under ``src/repro`` and fails on
any ``json`` import outside the codec and the modules that read or
write reports.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The codec, and the modules that write or read run reports.
ALLOWED = frozenset({
    "codec.py", "cli.py", "trace/export.py", "trace/__main__.py",
    "scope/export.py", "bench/export.py", "bench/surge.py",
    "analysis/report.py", "analysis/baseline.py",
})


def json_imports(source: str) -> list[int]:
    """Line numbers of every import of ``json`` (or a submodule)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == "json" or name.startswith("json.")
               for name in names):
            lines.append(node.lineno)
    return lines


def test_only_the_codec_and_report_modules_import_json():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 100
    found = {str(path.relative_to(PACKAGE)): lines for path in modules
             if (lines := json_imports(path.read_text()))}
    assert {name: lines for name, lines in found.items()
            if name not in ALLOWED} == {}
    assert "codec.py" in found


def test_each_form_is_flagged():
    for source in ("import json\n", "import json as _json\n",
                   "import os, json\n", "from json import loads\n",
                   "import json.decoder\n",
                   "from json.encoder import c_make_encoder\n",
                   "def f():\n    import json\n"):
        assert json_imports(source), source
    assert json_imports("from . import json_tools\n") == []
    assert json_imports("import jsonschema\n") == []

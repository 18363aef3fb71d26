"""Result export: dump every experiment's rows as JSON/CSV for plotting.

``python -m repro all`` prints human tables; downstream users who want to
regenerate the paper's *figures* (matplotlib, gnuplot, ...) get machine-
readable series from ``python -m repro export`` instead: the same
evaluation's rows, one file pair per row list.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import typing
from pathlib import Path


def rows_to_dicts(rows: typing.Sequence) -> list[dict]:
    """Dataclass or dict rows -> plain dicts, including computed
    properties."""
    out = []
    for row in rows:
        record = dict(row) if isinstance(row, dict) else \
            dataclasses.asdict(row)
        for name in dir(type(row)):
            attr = getattr(type(row), name, None)
            if isinstance(attr, property):
                record[name] = getattr(row, name)
        out.append(record)
    return out


def to_json(rows: typing.Sequence, *, indent: int = 2) -> str:
    """Serialize result rows (with computed properties) to JSON."""
    return json.dumps(rows_to_dicts(rows), indent=indent, sort_keys=True)


def to_csv(rows: typing.Sequence) -> str:
    """Serialize result rows (with computed properties) to CSV."""
    records = rows_to_dicts(rows)
    if not records:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=sorted(records[0]))
    writer.writeheader()
    for record in records:
        writer.writerow(record)
    return buffer.getvalue()


def export_all(directory: str | Path, sections: typing.Sequence) -> dict:
    """Write each row list of ``sections`` as <name>.json / <name>.csv.

    ``sections`` is the evaluation
    (:func:`repro.bench.evaluation.run_evaluation`).  Returns {row list
    name: path of the JSON file written}.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = {}
    for section in sections:
        for name, rows in section.rows.items():
            json_path = directory / f"{name}.json"
            json_path.write_text(to_json(rows))
            (directory / f"{name}.csv").write_text(to_csv(rows))
            written[name] = str(json_path)
    return written

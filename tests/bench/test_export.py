"""Tests: machine-readable result export."""

import csv
import io
import json

import pytest

from repro.bench.export import export_all, rows_to_dicts, to_csv, to_json
from repro.bench.harness import Fig4Row, Fig5Row


SAMPLE = [Fig4Row("open", 1000, 5000), Fig4Row("read", 2000, 7000)]


class TestSerialization:
    def test_rows_to_dicts_include_properties(self):
        records = rows_to_dicts(SAMPLE)
        assert records[0]["name"] == "open"
        assert records[0]["slowdown"] == 5.0

    def test_json_roundtrip(self):
        decoded = json.loads(to_json(SAMPLE))
        assert len(decoded) == 2
        assert decoded[1]["native_cycles"] == 2000

    def test_csv_has_header_and_rows(self):
        reader = csv.DictReader(io.StringIO(to_csv(SAMPLE)))
        rows = list(reader)
        assert len(rows) == 2
        assert float(rows[0]["slowdown"]) == 5.0

    def test_empty_rows(self):
        assert to_csv([]) == ""
        assert json.loads(to_json([])) == []

    def test_dict_rows_exported(self):
        records = rows_to_dicts([{"payload_bytes": 16,
                                  "cycles_per_call": 15_000}])
        assert records == [{"payload_bytes": 16, "cycles_per_call": 15_000}]
        assert to_csv(records).splitlines()[0] == \
            "cycles_per_call,payload_bytes"

    def test_fig5_properties_exported(self):
        rows = [Fig5Row("App", 100, 150, 3, 10, 20)]
        record = rows_to_dicts(rows)[0]
        for key in ("overhead_pct", "exit_pct", "redirect_pct",
                    "exit_rate_per_sec"):
            assert key in record


class TestExportAll:
    def test_writes_every_experiment(self, tmp_path, evaluation):
        written = export_all(tmp_path, list(evaluation.values()))
        assert set(written) == {name for section in evaluation.values()
                                for name in section.rows}
        for name in written:
            decoded = json.loads((tmp_path / f"{name}.json").read_text())
            assert decoded, name
            assert (tmp_path / f"{name}.csv").read_text(), name

    def test_exported_fig4_matches_band(self, tmp_path, evaluation):
        export_all(tmp_path, [evaluation["fig4"]])
        rows = json.loads((tmp_path / "fig4.json").read_text())
        for row in rows:
            assert 2.5 <= row["slowdown"] <= 9.0

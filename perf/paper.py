"""The paper's reported overheads, and the model's distance from them.

Each reference number is tagged with the figure or case study it comes
from (Veil, ASPLOS'23, section 9; the "paper" column of
``EXPERIMENTS.md``).  ``paper_err_pp`` is the mean absolute difference,
in percentage points, between these numbers and the overheads the cycle
model produces for the same programs.  Approximate values ("~40%") are
taken at face value.
"""

from __future__ import annotations

#: Fig. 5: VeilS-ENC overhead (%) per Table 4 program.
FIG5_ENCLAVE_PCT = {
    "GZip": 4.9,
    "UnQlite": 40.0,
    "MbedTLS": 15.0,
    "Lighttpd": 30.0,
    "SQLite": 63.9,
}

#: Fig. 6: VeilS-LOG overhead (%) per Table 5 program (paper ruleset).
FIG6_LOG_PCT = {
    "OpenSSL": 1.4,
    "7-Zip": 2.0,
    "Memcached": 18.7,
    "SQLite": 5.0,
    "NGINX": 15.0,
}

#: CS1: VeilS-KCI module load/unload overhead (%), 4728-byte module.
CS1_PCT = {
    "load": 5.7,
    "unload": 4.2,
}

#: Every reference, tagged ``(source, item) -> percent``.
REFERENCES = {
    **{("fig5", name): pct for name, pct in FIG5_ENCLAVE_PCT.items()},
    **{("fig6", name): pct for name, pct in FIG6_LOG_PCT.items()},
    **{("cs1", name): pct for name, pct in CS1_PCT.items()},
}


def error_pp(measured: dict) -> float:
    """Mean absolute error in percentage points.

    ``measured`` maps ``(source, item)`` keys of :data:`REFERENCES` to
    the model's overhead percentages; every key must be a reference.
    """
    if not measured:
        raise ValueError("no measured overheads to compare")
    unknown = sorted(set(measured) - set(REFERENCES))
    if unknown:
        raise KeyError(f"no paper reference for {unknown}")
    return sum(abs(measured[key] - REFERENCES[key]) for key in measured) \
        / len(measured)


def fig5_overheads(rows) -> dict:
    """``(fig5, name) -> pct`` from :func:`repro.bench.harness.run_fig5`."""
    return {("fig5", row.name): row.overhead_pct for row in rows}


def fig6_overheads(rows) -> dict:
    """``(fig6, name) -> pct`` (VeilS-LOG column) from ``run_fig6``."""
    return {("fig6", row.name): row.veils_overhead_pct for row in rows}


def cs1_overheads(result) -> dict:
    """``(cs1, load|unload) -> pct`` from ``run_cs1``."""
    return {("cs1", "load"): result.load_overhead_pct,
            ("cs1", "unload"): result.unload_overhead_pct}

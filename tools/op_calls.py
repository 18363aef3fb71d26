#!/usr/bin/env python3
"""Count the Python- and C-level calls inside one benchmark entry point.

Usage (from the repository root)::

    python3 tools/op_calls.py enclave-syscalls EnclaveRuntime.syscall
    python3 tools/op_calls.py audit-log Kaudit.log_syscall --top 20

Runs one ``perf/`` workload as ``perf/run.py`` does at its default
seed (1) -- its hooks, its baselines and one warm-up round -- then
counts one more round under ``sys.setprofile``.  ``ENTRY`` is the
qualified name of a function in the ``repro`` package (``Class.method``
for a method).  For every outermost call of ``ENTRY`` in that round,
the tool counts the Python-level calls (profiler ``call`` events,
generator resumptions included, the entry's own call too) and the
C-level calls (``c_call`` events) made inside it.  It prints their
means per outermost call, followed by the ``--top`` functions by calls
per entry.

A flat wall-clock profile spreads a small per-call cost over many
call sites, where it hides; a count per op shows it, and it is the same
on every run: two runs of the same tree print the same bytes (the
garbage collector is off while counting, so no finalizer lands inside
a count).  The workload is read from ``perf/workloads.py``; nothing
under ``perf/`` changes.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

#: The workload seed: ``perf/run.py``'s default.
SEED = 1

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perf")]

from workloads import WORKLOADS, Probe  # noqa: E402


def entry_codes(entry: str) -> set:
    """The code objects of every ``repro`` function named ``entry``.

    Looked up before the workload patches anything, so a benchmark hook
    wrapped around a method does not hide it.
    """
    codes = set()
    for name, module in sorted(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for value in vars(module).values():
            if getattr(value, "__module__", None) != name:
                continue
            if isinstance(value, type):
                for attr in vars(value).values():
                    code = getattr(attr, "__code__", None)
                    if code is not None and attr.__qualname__ == entry:
                        codes.add(code)
            elif getattr(value, "__qualname__", None) == entry and \
                    hasattr(value, "__code__"):
                codes.add(value.__code__)
    return codes


def _python_name(code) -> str:
    path = code.co_filename
    if os.path.isabs(path):
        path = os.path.relpath(path, SRC)
    return f"{path}:{getattr(code, 'co_qualname', code.co_name)}"


def _c_name(func) -> str:
    qualname = getattr(func, "__qualname__", None) or repr(func)
    module = getattr(func, "__module__", None)
    return f"{module}.{qualname}" if module else qualname


class CallCounter:
    """A ``sys.setprofile`` hook counting calls inside ``codes``."""

    def __init__(self, codes: set):
        self.codes = codes
        self.entries = 0
        self.python = 0
        self.c_level = 0
        self.by_python: dict = {}
        self.by_c: dict = {}
        self._outer = None

    def __call__(self, frame, event, arg) -> None:
        if self._outer is None:
            if event != "call" or frame.f_code not in self.codes:
                return
            self._outer = frame
            self.entries += 1
        if event == "call":
            self.python += 1
            code = frame.f_code
            self.by_python[code] = self.by_python.get(code, 0) + 1
        elif event == "c_call":
            self.c_level += 1
            self.by_c[arg] = self.by_c.get(arg, 0) + 1
        elif event == "return" and frame is self._outer:
            self._outer = None

    def top(self, counts: dict, name_of, n: int) -> list:
        """The ``n`` most-called functions as ``(per entry, name)``."""
        merged: dict = {}
        for key, count in counts.items():
            name = name_of(key)
            merged[name] = merged.get(name, 0) + count
        ranked = sorted(merged.items(), key=lambda item: (-item[1], item[0]))
        return [(count / self.entries, name) for name, count in ranked[:n]]


def count_round(workload_name: str, entry: str) -> CallCounter:
    """Warm one workload up, then count one round's calls of ``entry``."""
    workload = WORKLOADS[workload_name](SEED)
    codes = entry_codes(entry)
    if not codes:
        raise SystemExit(f"op_calls: no repro function named {entry!r}")
    counter = CallCounter(codes)
    probe = Probe()
    try:
        workload.install(probe)
        workload.baselines()
        probe.reset()
        workload.round(probe)
        probe.reset()
        gc.collect()
        gc.disable()
        sys.setprofile(counter)
        try:
            workload.round(probe)
        finally:
            sys.setprofile(None)
            gc.enable()
    finally:
        probe.close()
    return counter


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("entry", help="qualified name, e.g. "
                        "EnclaveRuntime.syscall")
    parser.add_argument("--top", type=int, default=10,
                        help="functions to list per kind (default 10)")
    args = parser.parse_args(argv)
    if args.top < 0:
        parser.error("--top must not be negative")
    counter = count_round(args.workload, args.entry)
    if not counter.entries:
        print(f"{args.workload}: {args.entry} was not called in a round")
        return 1
    per = counter.entries
    print(f"{args.workload} {args.entry}: {per} outermost calls in one "
          f"round (seed {SEED})")
    print(f"per call: {counter.python / per:.1f} Python-level + "
          f"{counter.c_level / per:.1f} C-level calls")
    for title, counts, name_of in (
            ("Python-level", counter.by_python, _python_name),
            ("C-level", counter.by_c, _c_name)):
        if args.top:
            print(f"top {title} callees (calls per {args.entry}):")
        for mean, name in counter.top(counts, name_of, args.top):
            print(f"  {mean:8.2f}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

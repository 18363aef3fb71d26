"""The paper's evaluation: one list of experiments at one set of parameters.

Each experiment is one ``repro`` command -- ``micro``, ``cs1``,
``fig4``, ``fig5``, ``fig6``, ``attacks``, ``ltp`` and ``ablations``
-- and returns a :class:`Section`: the text the command prints and the
rows it printed it from.  Called with no arguments, each runs at its
command's defaults, which are the constants of
:mod:`repro.bench.harness` and :mod:`repro.bench.ablations`.

:data:`EXPERIMENTS` is the evaluation, in order.  ``repro all`` prints
it, ``repro export`` writes its rows, and :func:`render_experiments_doc`
puts each section's text into its block of EXPERIMENTS.md:
``tools/update_experiments.py`` rewrites the file with it, and a tier-1
test fails when the file differs from what it renders.
"""

from __future__ import annotations

import re
import typing
from dataclasses import dataclass

from ..attacks import (run_log_attacks, run_table1, run_table2,
                       run_validation)
from ..core.boot import VeilConfig, boot_veil_system
from ..workloads.ltp import run_ltp
from .ablations import (render_ablations, run_batching_ablation,
                        run_boot_scaling, run_flush_ablation,
                        run_payload_sweep, run_vsgx_comparison)
from .harness import (BOOT_MEMORY_MB, CS1_REPETITIONS, FIG4_ITERATIONS,
                      SWITCH_ROUND_TRIPS, run_cs1, run_fig4, run_fig5,
                      run_fig6, run_micro_background, run_micro_boot,
                      run_micro_switch)
from .report import (render_attack_results, render_background,
                     render_boot, render_cs1, render_fig4, render_fig5,
                     render_fig6, render_switch)

#: The small guest the LTP-style conformance suite runs in.
LTP_CONFIG = VeilConfig(memory_bytes=32 * 1024 * 1024, num_cores=2,
                        log_storage_pages=64)


@dataclass(frozen=True)
class Section:
    """One experiment's output: its command's text and the rows behind it."""

    name: str
    text: str
    #: Export name -> row records (dataclasses or dicts).
    rows: dict
    #: False when the experiment saw what it exists to rule out (an
    #: attack that breached outside the baseline rows).
    ok: bool = True


def micro(memory_mb: int = BOOT_MEMORY_MB,
          switches: int = SWITCH_ROUND_TRIPS) -> Section:
    """Section 9.1: boot cost, domain-switch cost, background impact."""
    boot = run_micro_boot(memory_mb)
    switch = run_micro_switch(switches)
    background = run_micro_background()
    return Section("micro", "\n\n".join([
        render_boot(boot), render_switch(switch),
        render_background(background)]),
        {"micro_boot": [boot], "micro_switch": [switch],
         "micro_background": background})


def cs1(repetitions: int = CS1_REPETITIONS) -> Section:
    """CS1: module load/unload under VeilS-KCI."""
    result = run_cs1(repetitions)
    return Section("cs1", render_cs1(result), {"cs1": [result]})


def fig4(iterations: int = FIG4_ITERATIONS) -> Section:
    """Fig. 4: enclave syscall redirection."""
    rows = run_fig4(iterations)
    return Section("fig4", render_fig4(rows), {"fig4": rows})


def fig5() -> Section:
    """Fig. 5: shielded real-world programs."""
    rows = run_fig5()
    return Section("fig5", render_fig5(rows), {"fig5": rows})


def fig6() -> Section:
    """Fig. 6: Kaudit vs VeilS-LOG."""
    rows = run_fig6()
    return Section("fig6", render_fig6(rows), {"fig6": rows})


def attacks() -> Section:
    """Tables 1 & 2 + section 8.3; only baseline rows may breach."""
    results = (run_table1() + run_table2() + run_log_attacks() +
               run_validation())
    lines = [render_attack_results(results)]
    unexpected = [r for r in results
                  if not r.defended and "baseline" not in r.defense]
    if unexpected:
        lines.append("UNEXPECTED BREACHES:")
        lines.extend(f"  {result}" for result in unexpected)
    return Section("attacks", "\n".join(lines), {"attacks": results},
                   ok=not unexpected)


def ltp() -> Section:
    """Section 7: LTP-style SDK conformance."""
    report = run_ltp(boot_veil_system(LTP_CONFIG))
    rows = [{"syscall": name, "passed": good, "failed": bad}
            for name, (good, bad) in sorted(report.per_syscall.items())]
    return Section("ltp", report.summary(), {"ltp": rows})


def ablations() -> Section:
    """The design-choice ablations."""
    batching = run_batching_ablation()
    flush = run_flush_ablation()
    vsgx = run_vsgx_comparison()
    boot = run_boot_scaling()
    payload = run_payload_sweep()
    return Section(
        "ablations", render_ablations(batching, flush, vsgx, boot, payload),
        {"ablation_batching": [batching], "ablation_flush": [flush],
         "ablation_vsgx": [vsgx], "ablation_boot": boot,
         "ablation_payload": payload})


#: The evaluation, in ``repro all`` order.
EXPERIMENTS: tuple[typing.Callable[[], Section], ...] = (
    micro, cs1, fig4, fig5, fig6, attacks, ltp, ablations)


def run_evaluation() -> list[Section]:
    """Run every experiment of :data:`EXPERIMENTS` at its defaults."""
    return [experiment() for experiment in EXPERIMENTS]


#: One generated block of EXPERIMENTS.md: a marker line naming the
#: section, the section's text in a fenced block, and an end marker.
_BLOCK = re.compile(r"^<!-- repro all: (\w+) -->\n.*?^<!-- end -->$",
                    re.MULTILINE | re.DOTALL)


def render_experiments_doc(doc: str, sections: typing.Sequence[Section]
                           ) -> str:
    """``doc`` (EXPERIMENTS.md) with each block holding its section's text.

    The text around the blocks is kept as written.  Every section needs
    exactly one block and every block a section; ``ValueError`` names
    the first that does not.
    """
    texts = {section.name: section.text for section in sections}
    seen: list[str] = []

    def fill(block: re.Match) -> str:
        name = block[1]
        if name not in texts or name in seen:
            raise ValueError(f"EXPERIMENTS.md: block {name!r} is "
                             "unknown or repeated")
        seen.append(name)
        return (f"<!-- repro all: {name} -->\n```text\n{texts[name]}\n"
                "```\n<!-- end -->")

    doc = _BLOCK.sub(fill, doc)
    missing = [name for name in texts if name not in seen]
    if missing:
        raise ValueError(f"EXPERIMENTS.md: no block for {missing[0]!r}")
    return doc

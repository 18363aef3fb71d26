"""Byte-identity contract: outputs a speed-only change must not move.

Each command below runs in a fresh process, and the full sha256 of its
output must equal the digest recorded here.  The outputs cover the
fleet's serving path (surge, chaos, cluster and scope), the corrupted
fabric bytes of two fault-injecting chaos schedules, a single CVM's
syscall trace, the attack suite and the untraced enclave redirect path
(the paper's Figs. 4 and 5), so a change that alters a charged cycle, a
written byte or a recorded event shows up as a digest change.
A change that alters the model on purpose updates the digest and
explains the diff.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: name -> (argv after ``python -m repro``, {output: sha256}).
#: ``{out}`` is a temporary directory; the output ``-`` is stdout.
GOLDEN = {
    "surge-smoke": (
        ["surge", "--smoke", "--json", "{out}/surge.json"],
        {"surge.json": "b4091383d063b3292d0371268447a278"
                       "425566f076477901cddfb6e1f89b83ff"}),
    "chaos-crash": (
        ["chaos", "--seed", "5", "--schedule", "crash",
         "--requests", "300"],
        {"-": "de2af061327619018eb39a8e70b38162"
              "ab8c07cb121bd442adf7195ec966b4b6"}),
    # The two fault-injecting schedules push corrupted fabric bytes
    # through the fleet's untrusted-message decoder.
    "chaos-mayhem": (
        ["chaos", "--seed", "3", "--schedule", "mayhem",
         "--requests", "36"],
        {"-": "558f0b2103bc66150d7e0df2f9c1a13e"
              "8168d382a70c48407d2ae9b0f47f3d66"}),
    "chaos-byzantine": (
        ["chaos", "--seed", "11", "--schedule", "byzantine",
         "--requests", "24"],
        {"-": "5b808120d5b2b1af47e50ec8f229f6a7"
              "6418ff55d9f8f7c6a1679354ed36da78"}),
    "cluster-trace": (
        ["cluster", "--replicas", "2", "--requests", "200",
         "--out", "{out}/cluster.json"],
        {"cluster.json": "59b74ce1b9b37a66ac691d711501288d"
                         "319491bfde60a7d4c56d3ff88b27cb8b"}),
    "scope": (
        ["scope", "--requests", "48", "--out", "{out}/scope.json",
         "--json", "{out}/scope-metrics.json"],
        {"scope.json": "8b53388c33f3435c98a44c17aa35eace"
                       "da5c4bc4df246ac3701d960ecf66b708",
         "scope-metrics.json": "6bef614d3b3dfb59f7d74bafd27c6169"
                               "3e323d5b6fd9fbceb85abebed02c4a80"}),
    "trace-syscalls": (
        ["trace", "syscalls", "--out", "{out}/syscalls.json"],
        {"syscalls.json": "6e806b1c52a2c5b399539a9532417906"
                          "a26c98b89ec364f62fd3bcfa4a6f14a6"}),
    "attacks": (
        ["attacks"],
        {"-": "9f15f7db78d330af757433516819afa8"
              "d8cbd05d92ecec39b29e000b59bf3b82"}),
    "fig4": (
        ["fig4"],
        {"-": "071d96a76db57756dbd019613f6a8df0"
              "4bc5fca8774a4e932d533328bdd6a8a1"}),
    "fig5": (
        ["fig5"],
        {"-": "6a0c6e9234d7653a960013e0137de2cf"
              "96cf62f87c9c9b0bf72878d0ca5c0099"}),
}


def run_repro(argv: list[str]) -> bytes:
    """Run ``python -m repro argv`` in a fresh process; returns stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-m", "repro", *argv],
                            capture_output=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    return result.stdout


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_the_recorded_digests(name, tmp_path):
    argv, digests = GOLDEN[name]
    stdout = run_repro([arg.format(out=tmp_path) for arg in argv])
    got = {output: hashlib.sha256(
        stdout if output == "-" else (tmp_path / output).read_bytes()
    ).hexdigest() for output in digests}
    assert got == digests

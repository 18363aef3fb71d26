"""veil-chaos: deterministic fault injection + recovery for the fleet.

The fleet's threat model says the datacenter fabric and the hypervisor
are untrusted; this package makes them *actively hostile* -- under a
seeded, replayable schedule -- and checks that the security and
liveness story survives:

* :mod:`~repro.chaos.plan` -- named fault profiles and the seeded
  :class:`FaultPlan` (SplitMix64 PRNG, replayable event log);
* :mod:`~repro.chaos.net` -- :class:`ChaoticNetwork`, the fabric that
  drops / duplicates / delays / bit-flips messages and snoops the full
  transcript;
* :mod:`~repro.chaos.invariants` -- the post-schedule checker: no
  plaintext on the wire, no unattested replica served, audit chain
  verifies or tampering was detected;
* :mod:`~repro.chaos.runner` -- :func:`run_chaos_cluster`, one seeded
  boot-torture-recover-verify cycle and the fleet's only closed-loop
  driver (``repro chaos``; ``repro cluster`` is its ``none`` schedule).

Injection is strictly outside-in: nothing in the production stack
imports chaos (enforced by veil-lint's layering rule), and with the
plan inactive -- or under the ``none`` schedule, which injects nothing
-- a chaos-wrapped fleet is byte-identical to a plain one.
"""

from .invariants import (PLAINTEXT_MARKERS, InvariantChecker,
                         InvariantReport)
from .net import ChaoticNetwork
from .plan import (PROFILES, FaultPlan, FaultProfile, MessageFate,
                   profile_by_name)
from .runner import ChaosConfig, ChaosResult, run_chaos_cluster

__all__ = [
    "PLAINTEXT_MARKERS", "InvariantChecker", "InvariantReport",
    "ChaoticNetwork",
    "PROFILES", "FaultPlan", "FaultProfile", "MessageFate",
    "profile_by_name",
    "ChaosConfig", "ChaosResult", "run_chaos_cluster",
]

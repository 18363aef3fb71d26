"""Fleet throughput-scaling benchmark (the veil-fleet evaluation).

Sweeps replica counts under one routing policy and reports aggregate
throughput, per-replica cycle totals, and attestation handshake costs.
The interesting claim: because the front end's virtual-clock schedule
overlaps replica service times, aggregate throughput grows close to
linearly 1 -> 8 even though every request still pays the full Veil
stack (domain switches, audit logging, sealed channel crypto) inside
its replica.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from ..chaos import ChaosConfig, run_chaos_cluster
from ..hw.cycles import CLOCK_HZ

if typing.TYPE_CHECKING:
    from ..trace.tracer import Tracer

#: Replica counts swept by the scaling benchmark.
SCALING_FLEET_SIZES = (1, 2, 4, 8)


@dataclass
class ClusterScalingRow:
    """One fleet size in the scaling sweep."""

    replicas: int
    requests: int
    throughput_rps: float
    makespan_cycles: int
    handshake_cycles: dict[str, int] = field(default_factory=dict)
    replica_cycles: dict[str, int] = field(default_factory=dict)
    rejected: int = 0
    audit_entries: int = 0

    @property
    def mean_handshake_cycles(self) -> float:
        if not self.handshake_cycles:
            return 0.0
        return sum(self.handshake_cycles.values()) / \
            len(self.handshake_cycles)


def run_cluster_scaling(sizes: tuple[int, ...] = SCALING_FLEET_SIZES, *,
                        requests: int = 64,
                        policy: str = "least-outstanding",
                        workload: str = "memcached",
                        tracer: "Tracer | None" = None
                        ) -> list[ClusterScalingRow]:
    """Sweep fleet sizes (clean ``none`` runs) and collect the table."""
    rows = []
    for replicas in sizes:
        result = run_chaos_cluster(
            ChaosConfig(profile="none", replicas=replicas,
                        requests=requests, policy=policy,
                        workload=workload),
            tracer=tracer).cluster
        rows.append(ClusterScalingRow(
            replicas=replicas, requests=requests,
            throughput_rps=result.throughput_rps,
            makespan_cycles=result.makespan_cycles,
            handshake_cycles=dict(result.handshake_cycles),
            replica_cycles=dict(result.replica_cycles),
            rejected=len(result.rejected),
            audit_entries=result.audit.total_entries))
    return rows


def render_cluster_scaling(rows: typing.Sequence[ClusterScalingRow],
                           policy: str = "least-outstanding") -> str:
    """The scaling sweep as a text table."""
    rule = "-" * 78
    lines = [f"veil-fleet: throughput scaling under {policy}",
             rule,
             f"{'replicas':<9}{'req/s':>12}{'speedup':>9}"
             f"{'makespan ms':>13}{'handshake kc':>14}{'audit rec':>11}",
             rule]
    base = rows[0].throughput_rps if rows else 1.0
    for row in rows:
        makespan_ms = 1000.0 * row.makespan_cycles / CLOCK_HZ
        lines.append(
            f"{row.replicas:<9}{row.throughput_rps:>12,.0f}"
            f"{row.throughput_rps / base:>8.2f}x"
            f"{makespan_ms:>13.2f}"
            f"{row.mean_handshake_cycles / 1000:>14,.0f}"
            f"{row.audit_entries:>11,}")
    lines.append(rule)
    lines.append("every request pays the full in-replica Veil stack; "
                 "scaling comes from the front end overlapping replicas")
    return "\n".join(lines)

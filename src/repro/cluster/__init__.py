"""veil-fleet: multiple Veil CVMs behind an attested front end.

This package composes whole machines rather than layers inside one
machine: N independent :class:`~repro.hw.platform.SevSnpMachine` + Veil
stacks (:mod:`~repro.cluster.replica`) attached to a cycle-costed
inter-host fabric (:mod:`~repro.cluster.net`), admitted into a routing
set only after remote attestation (:mod:`~repro.cluster.attest`), served
by a load-balancing front end (:mod:`~repro.cluster.frontend`), and
audited fleet-wide by a central log collector
(:mod:`~repro.cluster.auditor`).  :mod:`repro.chaos` drives it in a
closed loop and :mod:`repro.surge` in an open one.
"""

from .attest import (AttestedLink, FleetVerifier, RejectedHandshake,
                     derive_data_key)
from .auditor import FleetAuditor, FleetAuditReport, ReplicaAudit
from .fleet import (ClusterConfig, ClusterFleet, ClusterResult, FleetClock,
                    request_payload)
from .frontend import (POLICIES, ConsistentHash, FrontEnd, LeastOutstanding,
                       RoundRobin, RoutingPolicy, make_policy)
from .net import HostEndpoint, InterHostNetwork, NetCostModel, \
    encode_message, try_decode
from .replica import (BackdoorService, ClusterReplica,
                      expected_fleet_measurement)

__all__ = [
    "AttestedLink", "FleetVerifier", "RejectedHandshake", "derive_data_key",
    "FleetAuditor", "FleetAuditReport", "ReplicaAudit",
    "ClusterConfig", "ClusterFleet", "ClusterResult", "FleetClock",
    "request_payload",
    "POLICIES", "ConsistentHash", "FrontEnd", "LeastOutstanding",
    "RoundRobin", "RoutingPolicy", "make_policy",
    "HostEndpoint", "InterHostNetwork", "NetCostModel",
    "encode_message", "try_decode",
    "BackdoorService", "ClusterReplica", "expected_fleet_measurement",
]

"""veil-scope runs: a fleet observed end to end, for ``repro scope``.

:func:`run_scoped` boots a fleet (optionally under a seeded chaos
schedule), attaches a shared :class:`~repro.trace.Tracer` and a
:class:`~repro.scope.FleetScope`, and returns everything needed to
render summaries and export the merged Perfetto timeline.  It lives
above the trust boundary, like every bench.
"""

from __future__ import annotations

from ..chaos.plan import PROFILES
from ..scope import FleetScope
from ..trace import Tracer

#: ``--schedule`` value meaning "no fault injection, plain fleet".
NO_SCHEDULE = "none"

#: Schedule names ``run_scoped`` accepts.
SCHEDULES = tuple(sorted(PROFILES)) + (NO_SCHEDULE,)


def run_scoped(*, replicas: int = 4, requests: int = 64,
               schedule: str = "mayhem", seed: int = 1,
               service: str = "memcached",
               policy: str = "least-outstanding",
               capacity: int = 65536):
    """One scoped fleet run; returns ``(result, tracer, scope)``.

    With ``schedule == "none"`` this is a plain attested fleet run
    (:func:`~repro.cluster.fleet.run_cluster`); any named profile wraps
    the fabric in the seeded chaos harness
    (:func:`~repro.chaos.runner.run_chaos_cluster`) so fault events land
    inline on the merged timeline.
    """
    from ..chaos import ChaosConfig, run_chaos_cluster
    from ..cluster import ClusterConfig, run_cluster
    tracer = Tracer(capacity=capacity)
    scope = FleetScope()
    if schedule == NO_SCHEDULE:
        result = run_cluster(ClusterConfig(
            replicas=replicas, requests=requests, workload=service,
            policy=policy), tracer=tracer, scope=scope)
    else:
        result = run_chaos_cluster(ChaosConfig(
            seed=seed, profile=schedule, replicas=replicas,
            requests=requests, workload=service, policy=policy),
            tracer=tracer, scope=scope)
    return result, tracer, scope

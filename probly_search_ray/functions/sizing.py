"""Actor-pool sizing for map_batches stages.

A fixed ``concurrency=2`` caps a stage at two actors regardless of the
cluster — fine on a 4-CPU test session, a 16× under-use on a 32-CPU
node (and worse on a real cluster).  ``auto_pool`` returns Ray's
(min, max) autoscaling tuple instead: the pool starts small and grows
with available CPUs, so the same pipeline code is right at every
session size.
"""

from __future__ import annotations


def auto_pool(lo: int = 2, hi_cap: int = 16) -> tuple[int, int]:
    """(min, max) actor-pool bounds: min ``lo`` actors, max scaled to
    the session's CPUs (capped so one stage never monopolizes a node —
    other stages of the same pipeline need cores too).  The minimum
    leaves at least one CPU free: on a 2-CPU session two 1-CPU actors
    would hold every CPU, and the pipeline's next stage (a groupby, say)
    could never schedule."""
    try:
        import ray
        cpus = int(ray.cluster_resources().get("CPU", 8)) \
            if ray.is_initialized() else 8
    except Exception:
        cpus = 8
    lo = max(1, min(lo, cpus - 1))
    return (lo, max(lo, min(hi_cap, cpus // 2)))

"""Actor-pool sizing for map_batches stages.

A fixed ``concurrency=2`` caps a stage at two actors regardless of the
cluster — fine on a 4-CPU test session, a 16× under-use on a 32-CPU
node (and worse on a real cluster).  ``auto_pool`` returns Ray's
(min, max) autoscaling tuple instead: the pool starts small and grows
with available CPUs, so the same pipeline code is right at every
session size.
"""

from __future__ import annotations


def _session_cpus() -> int:
    try:
        import ray
        return int(ray.cluster_resources().get("CPU", 8)) \
            if ray.is_initialized() else 8
    except Exception:
        return 8


def leave_a_cpu(n: int) -> int:
    """``n`` 1-CPU actors, capped at the session's CPUs less one (at
    least 1): on a 2-CPU session two 1-CPU actors would hold every CPU,
    and the pipeline's next stage (a groupby, say) could never
    schedule."""
    return max(1, min(n, _session_cpus() - 1))


def auto_pool(lo: int = 2, hi_cap: int = 16) -> tuple[int, int]:
    """(min, max) actor-pool bounds: min ``lo`` actors, max scaled to
    the session's CPUs (capped so one stage never monopolizes a node —
    other stages of the same pipeline need cores too).  The minimum
    leaves at least one CPU free (``leave_a_cpu``)."""
    lo = leave_a_cpu(lo)
    return (lo, max(lo, min(hi_cap, _session_cpus() // 2)))

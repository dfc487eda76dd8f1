"""Stream-shaped operators over the events log table.

Ray Data has no event-time window engine; the idiomatic mapping
(SURVEY.md §2.9 note) is: treat events as a log ordered by (key, ts)
and apply the window logic vectorized over the sorted batches, merging
the windows that span a batch boundary.  Gap-based sessionization is
the canonical example.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def sessionize_sorted(events_ds, gap_minutes: int = 30,
                      merge_buckets: int = 32):
    """Sessionization without per-user Python: ONE global sort by
    (user_id, ts), a vectorized map_batches pass that collapses each
    batch into maximal session *segments* (start/end/count/sum), then a
    DISTRIBUTED segment-level merge for sessions that span batch
    boundaries: segments shuffle by user bucket (``user_id %
    merge_buckets`` — a session belongs to exactly one user, so any
    same-user co-location works) and each bucket runs the same
    vectorized merge over ALL its users at once.  Per-row work is all
    C-level; the merge shuffle moves one row per segment (≈ #sessions),
    never per event, and the driver holds nothing — the result is a
    streaming Dataset.
    """
    import pyarrow as pa

    gap = np.timedelta64(gap_minutes * 60, "s")

    def partial(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "session_start": pa.array([], b["ts"].type),
                             "session_end": pa.array([], b["ts"].type),
                             "n_events": pa.array([], pa.int64()),
                             "sum_value": pa.array([], pa.float64())})
        u = b["user_id"].to_numpy()
        ts = b["ts"].to_numpy()
        v = b["value"].to_numpy()
        new = np.ones(len(u), dtype=bool)
        new[1:] = (u[1:] != u[:-1]) | (ts[1:] - ts[:-1] > gap)
        starts = np.flatnonzero(new)
        ends = np.concatenate((starts[1:], [len(u)]))
        return pa.table({
            "user_id": pa.array(u[starts]),
            "session_start": pa.array(ts[starts]),
            "session_end": pa.array(ts[ends - 1]),
            "n_events": pa.array((ends - starts).astype(np.int64)),
            "sum_value": pa.array(np.add.reduceat(v, starts)
                                  .astype(np.float64)),
        })

    def add_bucket(b: pa.Table) -> pa.Table:
        ub = b["user_id"].to_numpy().astype(np.int64) % merge_buckets
        return b.append_column("_ub", pa.array(ub))

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # same vectorized merge as before, now per bucket: sort the
        # bucket's segments back into (user, ts) order, then collapse
        # boundary-split sessions in one pass over ALL its users
        if not len(g):
            return pd.DataFrame({
                "user_id": pd.Series(dtype=np.int64),
                "session_start": pd.Series(dtype="datetime64[us]"),
                "n_events": pd.Series(dtype=np.int64),
                "sum_value": pd.Series(dtype=np.float64)})
        g = g.sort_values(["user_id", "session_start"], kind="stable")
        u = g["user_id"].to_numpy()
        st = g["session_start"].to_numpy()
        en = g["session_end"].to_numpy()
        new = np.ones(len(g), dtype=bool)
        new[1:] = (u[1:] != u[:-1]) | (st[1:] - en[:-1] > gap)
        starts = np.flatnonzero(new)
        ends = np.concatenate((starts[1:], [len(g)]))
        ne = g["n_events"].to_numpy()
        sv = g["sum_value"].to_numpy()
        return pd.DataFrame({
            "user_id": u[starts],
            "session_start": st[starts],
            "n_events": np.add.reduceat(ne, starts).astype(np.int64),
            "sum_value": np.add.reduceat(sv, starts).round(6),
        })

    return events_ds.sort(["user_id", "ts"]) \
        .map_batches(partial, batch_format="pyarrow") \
        .map_batches(add_bucket, batch_format="pyarrow") \
        .groupby("_ub").map_groups(merge_bucket, batch_format="pandas")

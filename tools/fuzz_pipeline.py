"""Randomized differential fuzz for the EXTENSION operators — the
deterministic-contract data ops (as-of join, range join, gap
sessionization, connected components, exact dedup, grouped quantiles)
vs brute-force pure-Python/pandas references on random tiny tables.

The driver oracles pin these ops on the FIXED testdata corpus; this
harness stresses the boundary conditions fixed data cannot reach:
timestamp ties on both join sides, window edges landing exactly on a
right row, keys present on only one side, empty right tables, 1-row
groups, bucket-count extremes (num_buckets=1 and > #keys), self-loop /
duplicate / empty edge lists, and quantile ranks at group size 1.

Float discipline: generated ``value`` columns are exact binary
fractions (quarters), so every sum is exact in float64 and the
engines' .round(6) cannot flip on an association-order boundary.

Run from the repo root:  FUZZ_SEEDS=60 python tools/fuzz_pipeline.py
(owns its Ray session, like bench.py / the other tools/ harnesses).
"""
import os
import sys
import time
import traceback

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)

from probly_search_ray.stages.dedup import (  # noqa: E402
    connected_components, dedup_exact, exact_dup_drops)
from probly_search_ray.stages.joins import (  # noqa: E402
    asof_join, range_join_agg)
from probly_search_ray.stages.sessions import sessionize_sorted  # noqa: E402
from probly_search_ray.stages.sketches import grouped_quantiles  # noqa: E402

N_SEEDS = int(os.environ.get("FUZZ_SEEDS", "60"))
START = int(os.environ.get("FUZZ_START", "20000"))


def _pd(ds) -> pd.DataFrame:
    """Dataset -> DataFrame, recovering column names from the dataset
    schema when every output block is empty (Ray's ``to_pandas`` drops
    the schema of an all-empty dataset even though ``ds.schema()``
    still carries it)."""
    df = ds.to_pandas()
    if not len(df) and not len(df.columns):
        df = pd.DataFrame({c: pd.Series(dtype=object)
                           for c in ds.schema().names})
    return df


def _cmp(got: pd.DataFrame, exp: pd.DataFrame, ctx: str):
    cols = sorted(exp.columns)
    assert sorted(got.columns) == cols, \
        f"{ctx}: columns {sorted(got.columns)} != {cols}"
    g = got[cols].sort_values(cols, kind="stable").reset_index(drop=True)
    e = exp[cols].sort_values(cols, kind="stable").reset_index(drop=True)
    assert len(g) == len(e), f"{ctx}: rows {len(g)} != {len(e)}"
    for c in cols:
        gv, ev = g[c].to_numpy(), e[c].to_numpy()
        if gv.dtype.kind == "f" or ev.dtype.kind == "f":
            ok = np.allclose(gv.astype(np.float64), ev.astype(np.float64),
                             rtol=0, atol=1e-9)
        else:
            ok = bool(np.array_equal(gv, ev))
        assert ok, f"{ctx}: column {c} mismatch\ngot\n{g}\nexp\n{e}"


def _quarters(rng, n):
    # exact binary fractions -> float sums are exact, .round(6) stable
    return rng.integers(-40, 400, size=n).astype(np.float64) / 4.0


def _keys(rng, n, universe):
    k = rng.choice(universe, size=n).astype(np.int64)
    return k


def _events(rng, universe):
    n = int(rng.integers(1, 60))
    # coarse timestamp grid -> plenty of exact ties
    ts = rng.integers(0, 40, size=n) * 60_000_000  # minutes in us
    return pd.DataFrame({
        "event_id": np.arange(1, n + 1, dtype=np.int64),
        "user_id": _keys(rng, n, universe),
        "ts": ts.astype("datetime64[us]"),
        "value": _quarters(rng, n),
    })


def _orders(rng, universe):
    n = int(rng.integers(0, 40))
    ts = rng.integers(0, 40, size=n) * 60_000_000
    return pd.DataFrame({
        "o_orderkey": np.arange(101, 101 + n, dtype=np.int64),
        "o_custkey": _keys(rng, n, universe),
        "o_orderdate": ts.astype("datetime64[us]"),
        "o_totalprice": _quarters(rng, n),
    })


def check_asof(rng, ev, od, ctx):
    nb = int(rng.choice([1, 3, 8]))
    got = asof_join(
        ray.data.from_pandas(ev), ray.data.from_pandas(od),
        left_key="user_id", left_ts="ts",
        right_key="o_custkey", right_ts="o_orderdate",
        left_cols=["event_id"], right_cols=["o_orderkey", "o_totalprice"],
        right_tie="o_orderkey", num_buckets=nb)
    got = _pd(got)
    rows = []
    for e in ev.itertuples():
        c = od[(od.o_custkey == e.user_id) & (od.o_orderdate <= e.ts)]
        if len(c):
            # max (right_ts, right_tie): orderkeys are unique -> exact
            m = c.sort_values(["o_orderdate", "o_orderkey"]).iloc[-1]
            rows.append((e.event_id, m.o_orderkey, m.o_totalprice))
    exp = pd.DataFrame(rows, columns=["event_id", "o_orderkey",
                                      "o_totalprice"])
    if not len(rows):
        exp = exp.astype({"event_id": np.int64, "o_orderkey": np.int64,
                          "o_totalprice": np.float64})
    _cmp(got, exp, f"{ctx} asof nb={nb}")


def check_range(rng, ev, od, ctx):
    nb = int(rng.choice([1, 3, 8]))
    win_min = int(rng.integers(0, 25))
    win_us = win_min * 60_000_000
    got = range_join_agg(
        ray.data.from_pandas(ev), ray.data.from_pandas(od),
        left_key="user_id", left_ts="ts",
        right_key="o_custkey", right_ts="o_orderdate",
        left_id="event_id", right_val="o_totalprice",
        window_us=win_us, num_buckets=nb)
    got = _pd(got)
    w = np.timedelta64(win_us, "us")
    rows = []
    for e in ev.itertuples():
        c = od[(od.o_custkey == e.user_id) & (od.o_orderdate <= e.ts)
               & (od.o_orderdate >= e.ts - w)]
        rows.append((e.event_id, np.int64(len(c)),
                     round(float(c.o_totalprice.sum()), 6)))
    exp = pd.DataFrame(rows, columns=["event_id", "n_matched", "sum_val"])
    _cmp(got, exp, f"{ctx} range nb={nb} win={win_min}m")


def _brute_sessions(ev: pd.DataFrame, gap_min: int) -> pd.DataFrame:
    gap = np.timedelta64(gap_min * 60, "s")
    rows = []
    for uid, g in ev.groupby("user_id"):
        g = g.sort_values("ts", kind="stable")
        ts = g["ts"].to_numpy()
        v = g["value"].to_numpy()
        start = 0
        for i in range(1, len(g) + 1):
            if i == len(g) or ts[i] - ts[i - 1] > gap:
                rows.append((uid, ts[start], np.int64(i - start),
                             round(float(v[start:i].sum()), 6)))
                start = i
    return pd.DataFrame(rows, columns=["user_id", "session_start",
                                       "n_events", "sum_value"])


def check_sessions(rng, ev, ctx):
    gap_min = int(rng.integers(1, 9))
    exp = _brute_sessions(ev, gap_min)
    mb = int(rng.choice([1, 4, 32]))
    got = _pd(sessionize_sorted(ray.data.from_pandas(ev),
                                gap_minutes=gap_min, merge_buckets=mb))
    _cmp(got, exp, f"{ctx} sessionize_sorted gap={gap_min} mb={mb}")


def check_cc(rng, ctx):
    n_edges = int(rng.integers(0, 40))
    nodes = rng.integers(0, 30, size=(n_edges, 2)).astype(np.int64)
    pairs = pd.DataFrame({"a": nodes[:, 0], "b": nodes[:, 1]})
    parts = int(rng.choice([1, 4, 64]))
    got = _pd(connected_components(pairs, parts=parts))
    # brute union-find with min-label components
    parent: dict[int, int] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in nodes:
        parent.setdefault(int(a), int(a))
        parent.setdefault(int(b), int(b))
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    exp = pd.DataFrame(
        {"node": sorted(parent),
         "comp": [find(x) for x in sorted(parent)]}, dtype=np.int64)
    _cmp(got, exp, f"{ctx} cc parts={parts} edges={n_edges}")


def check_dedup(rng, ctx):
    n = int(rng.integers(1, 80))
    pool = [f"text {i}" for i in range(int(rng.integers(1, 12)))]
    docs = pd.DataFrame({
        "doc_id": rng.permutation(np.arange(1, n + 1)).astype(np.int64),
        "text": rng.choice(pool, size=n),
    })
    surv = docs.groupby("text")["doc_id"].min().to_numpy()
    exp_surv = pd.DataFrame({"doc_id": np.sort(surv)})
    got_surv = _pd(dedup_exact(ray.data.from_pandas(docs)))
    _cmp(got_surv, exp_surv, f"{ctx} dedup_exact n={n}")
    parts = int(rng.choice([1, 4, 64]))
    got_drops = _pd(exact_dup_drops(ray.data.from_pandas(docs),
                                    parts=parts))
    drops = np.setdiff1d(docs["doc_id"].to_numpy(), surv)
    _cmp(got_drops, pd.DataFrame({"doc_id": drops}),
         f"{ctx} exact_dup_drops parts={parts}")


def check_quantiles(rng, ctx):
    n = int(rng.integers(1, 120))
    docs = pd.DataFrame({
        "source": rng.choice([f"s{i}" for i in range(5)], size=n),
        "metric": rng.integers(0, 50, size=n).astype(np.int64),
    })
    qs = (0.5, 0.9, 0.99)

    def val_fn(b: pa.Table):
        return (b["source"].to_numpy(zero_copy_only=False),
                b["metric"].to_numpy(zero_copy_only=False))

    got = _pd(grouped_quantiles(ray.data.from_pandas(docs), "source",
                                val_fn, qs=qs))
    rows = []
    for s, g in docs.groupby("source"):
        v = np.sort(g["metric"].to_numpy())
        row = [s]
        for q in qs:
            rank = max(int(np.ceil(q * len(v))), 1)
            row.append(np.int64(v[rank - 1]))
        rows.append(row)
    exp = pd.DataFrame(rows, columns=["source", "q50", "q90", "q99"])
    _cmp(got, exp, f"{ctx} quantiles n={n}")


def run_seed(seed):
    rng = np.random.default_rng(seed)
    # key universe: overlapping-but-not-identical sides, plus a huge
    # id to stress the bucket modulo
    uni = np.array([0, 1, 2, 3, 5, 8, 13, 1 << 40], dtype=np.int64)
    ev = _events(rng, uni[: int(rng.integers(2, len(uni) + 1))])
    od = _orders(rng, uni[int(rng.integers(0, 3)):])
    ctx = f"seed={seed}"
    check_asof(rng, ev, od, ctx)
    check_range(rng, ev, od, ctx)
    check_sessions(rng, ev, ctx)
    check_cc(rng, ctx)
    check_dedup(rng, ctx)
    check_quantiles(rng, ctx)


def main():
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import logging
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    fails = 0
    t0 = time.time()
    done = 0
    for seed in range(START, START + N_SEEDS):
        done += 1
        try:
            run_seed(seed)
        except Exception:
            fails += 1
            print(f"FAIL seed={seed}", flush=True)
            traceback.print_exc()
            if fails >= 3:
                break
        if done % 5 == 0:
            print(f"{done}/{N_SEEDS} seeds, {time.time()-t0:.0f}s, "
                  f"fails={fails}", flush=True)
    print(f"PIPELINE_FUZZ_DONE fails={fails} seeds={done} "
          f"elapsed={time.time()-t0:.0f}s", flush=True)
    ray.shutdown()
    sys.exit(1 if fails else 0)


if __name__ == "__main__":
    main()

"""Bulk (throughput-mode) search: score a Dataset of queries against a
built index with an actor pool.

Each actor loads the full index once (``__init__``) and serves batches
of query strings — the map_batches actor-pool pattern for stateful
serving.  For a term-range-sharded deployment at scale, each actor
would hold one shard and a second stage would merge per-shard top-k;
single-node, each actor holds the whole (small) index.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from probly_search_ray.functions.mem import tune_allocator

_POOLS: dict = {}  # (index_dir, shards) → SearchEngine owning a shard pool


def release_shard_pools(index_dir: str | None = None) -> None:
    """Drop (and terminate) cached shared shard-actor pools — they hold
    CPU reservations for as long as they're cached, so release them
    when bulk serving for an index is done."""
    import ray
    for key in [k for k in _POOLS if index_dir is None or k[0] == index_dir]:
        eng = _POOLS.pop(key)
        for a in getattr(eng, "shards", []):
            try:
                ray.kill(a)
            except Exception:
                pass


class BulkSearcher:
    def __init__(self, index_dir: str, scorer: str = "bm25",
                 k: int | None = 10, expand: bool = True):
        tune_allocator()
        from probly_search_ray.search import SearchEngine
        self.eng = SearchEngine(index_dir, num_shards=1, use_actors=False)
        self.scorer = scorer
        self.k = k
        self.expand = expand

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out_q, out_r, out_d, out_s = [], [], [], []
        for qid, q in zip(batch["query_id"], batch["query"]):
            res = self.eng.query(q, self.scorer, k=self.k,
                                 expand=self.expand)
            for rank, (doc, score) in enumerate(res):
                out_q.append(qid)
                out_r.append(rank)
                out_d.append(doc)
                out_s.append(score)
        return pd.DataFrame({
            "query_id": np.asarray(out_q, dtype=np.int64),
            "rank": np.asarray(out_r, dtype=np.int32),
            "doc_id": np.asarray(out_d, dtype=np.int64),
            "score": np.asarray(out_s, dtype=np.float64),
        })


class ShardedBulkSearcher:
    """Coordinator actor for the SCALE deployment shape: the index
    lives ONCE in a term-range-sharded ``ShardData`` actor pool, and N
    lightweight coordinators (this class) fan queries out to the shared
    pool — instead of every bulk actor loading the whole index.  Actor
    handles serialize, so they pass straight through
    ``fn_constructor_args``."""

    def __init__(self, index_dir: str, shard_handles, scorer: str,
                 k: int | None, expand: bool, doc_shards: int = 0):
        tune_allocator()
        from probly_search_ray.search import SearchEngine
        # doc_shards tells the coordinator which LAYOUT the shared pool
        # uses (term-range vs doc-hash) so it picks the matching
        # metadata path; the handles themselves are layout-agnostic
        self.eng = SearchEngine(index_dir, shard_handles=shard_handles,
                                doc_shards=doc_shards)
        self.scorer = scorer
        self.k = k
        self.expand = expand

    __call__ = BulkSearcher.__call__


def bulk_search(queries_ds, index_dir: str, scorer: str = "bm25",
                k: int | None = 10, concurrency: int = 4,
                batch_size: int = 64, expand: bool = True,
                num_shards: int | None = None,
                doc_shards: int | None = None):
    """queries_ds: Dataset with (query_id:int64, query:string) →
    Dataset of (query_id, rank, doc_id, score).

    ``num_shards=None``: every bulk actor holds the full index (fine
    when the index fits one worker).  ``num_shards=S``: ONE shared
    S-shard actor pool holds the index; the map_batches actors are
    thin coordinators over it (the multi-node shape — index memory is
    paid once, not once per bulk actor).  ``doc_shards=D``: same
    resident-pool shape but DOC-hash-partitioned shards (the 10^12-doc
    layout — per-doc work stays shard-local, coordinator merges D·k
    rows per query); exclusive with ``num_shards``."""
    if num_shards is not None and doc_shards is not None:
        raise ValueError("num_shards and doc_shards are exclusive")
    if num_shards is None and doc_shards is None:
        # small query sets often arrive as one block — split so the
        # actor pool actually parallelizes.  (The sharded branch skips
        # this: its resident shard pool reserves most CPUs by design,
        # and extra repartition tasks could starve on a small cluster.)
        queries_ds = queries_ds.repartition(max(concurrency, 2))
        return queries_ds.map_batches(
            BulkSearcher,
            fn_constructor_args=(index_dir, scorer, k, expand),
            batch_format="pandas", batch_size=batch_size,
            concurrency=concurrency, num_cpus=1)
    from probly_search_ray.search import SearchEngine
    # keep the shard pool alive past this frame: actor handles are
    # ref-counted, and the returned Dataset is lazy
    key = (index_dir, num_shards, doc_shards)
    pool_owner = _POOLS.get(key)
    if pool_owner is None:
        pool_owner = SearchEngine(index_dir, num_shards=num_shards or 1,
                                  doc_shards=doc_shards or 0,
                                  use_actors=True)
        _POOLS[key] = pool_owner
    else:
        # the borrowing coordinators refuse a pool that serves another
        # snapshot: move the pool to the index's current state first
        pool_owner.refresh()
    return queries_ds.map_batches(
        ShardedBulkSearcher,
        fn_constructor_args=(index_dir, pool_owner.shards, scorer, k,
                             expand, doc_shards or 0),
        batch_format="pandas", batch_size=batch_size,
        concurrency=concurrency, num_cpus=0.5)

"""Deduplication stages: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Scale shapes:
- exact: content-hash per batch (map_batches) → ``groupby(hash)`` →
  keep min doc_id per group.  The shuffle moves (hash, doc_id) pairs
  only — never the documents.
- MinHash-LSH: shingle→minhash per batch → explode to
  (band, band_hash, doc_id) rows → ``groupby`` band buckets →
  candidate pairs → exact-Jaccard verification.  Candidate volume is
  bounded by bucket sizes; hot buckets are capped (documented).
- SimHash: 64-bit signatures per batch; near-dup pairs = signatures at
  Hamming distance ≤ t within LSH buckets on bit-bands.
- embedding: cosine threshold pairs via block-matmul against a
  broadcast (ray.put) normalized matrix, or bucketed for large n.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from probly_search_ray.functions.codec import grouped_arange
from probly_search_ray.functions.hashing import (
    band_hashes, content_hash_hex, hash_tokens_u64, minhash_signatures,
    shingle_hashes)
from probly_search_ray.stages.textstats import _tokenize_flat


def add_content_hash(batch: pa.Table, text_col: str = "text") -> pa.Table:
    col = batch[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    hashes = content_hash_hex(col.to_numpy(zero_copy_only=False))
    return pa.table({"doc_id": batch["doc_id"],
                     "content_hash": pa.array(hashes, type=pa.string())})


def dedup_exact(docs_ds, text_col: str = "text"):
    """Survivor doc ids (min doc_id per identical text).  Returns a
    Dataset with a single ``doc_id`` column."""
    from ray.data.aggregate import Min
    hashed = docs_ds.map_batches(
        lambda b: add_content_hash(b, text_col), batch_format="pyarrow")
    return hashed.groupby("content_hash") \
                 .aggregate(Min("doc_id", alias_name="doc_id")) \
                 .select_columns(["doc_id"])


class MinHashStage:
    """map_batches: text → (doc_id, minhash signature, band hashes)."""

    def __init__(self, k: int = 128, bands: int = 16, w: int = 3,
                 seed: int = 1234, text_col: str = "text"):
        self.k, self.bands, self.w, self.seed = k, bands, w, seed
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        toks, lens, _ = _tokenize_flat(batch, self.text_col)
        h = hash_tokens_u64(toks) if len(toks) else np.empty(0, np.uint64)
        sh, n_sh = shingle_hashes(h, lens, self.w)
        sig = minhash_signatures(sh, n_sh, self.k, self.seed)
        bh = band_hashes(sig, self.bands)
        doc_ids = batch["doc_id"].to_numpy()
        # docs with no shingles (shorter than w tokens) emit no band rows
        nz = n_sh > 0
        bh = bh[nz]
        doc_ids = doc_ids[nz]
        n = int(nz.sum())
        # int64 bit-pattern view: uint64 values above 2^63 make Ray's
        # shuffle-boundary conversion fall back noisily per block
        return pa.table({
            "band": pa.array(np.tile(np.arange(self.bands, dtype=np.int32), n)),
            "band_hash": pa.array(bh.reshape(-1).view(np.int64),
                                  type=pa.int64()),
            "doc_id": pa.array(np.repeat(doc_ids, self.bands)),
        })


def _combine_band_key(band: np.ndarray, band_hash: np.ndarray) -> np.ndarray:
    """(band, band_hash) → one well-mixed uint64 key (mod-2^64 mix), so
    collision membership is a single vectorized ``np.isin``."""
    with np.errstate(over="ignore"):
        return (band_hash.astype(np.uint64)
                * np.uint64(0x9E3779B97F4A7C15)
                + band.astype(np.uint64))


def _in_sorted(values: np.ndarray, sorted_arr: np.ndarray) -> np.ndarray:
    if len(sorted_arr) == 0:
        return np.zeros(len(values), dtype=bool)
    idx = np.searchsorted(sorted_arr, values)
    idx = np.minimum(idx, len(sorted_arr) - 1)
    return sorted_arr[idx] == values


_EMPTY_PAIRS = {"a": pd.Series(dtype=np.int64),
                "b": pd.Series(dtype=np.int64)}


def lsh_candidate_pairs(docs_ds, k: int = 128, bands: int = 16, w: int = 3,
                        text_col: str = "text", max_bucket: int = 64,
                        parts: int = 64):
    """Candidate near-dup pairs from MinHash LSH banding.
    Returns a Ray Dataset of distinct (a, b) doc-id pairs, a < b —
    the pairs stay distributed; the driver never holds them.

    Shape: TWO C-level shuffles total.  (1) Band rows shuffle by a hash
    PARTITION of their bucket key (``parts`` groups — never one group
    per bucket: a 100 TB corpus has billions of buckets and per-group
    pandas calls would dominate); each partition expands every bucket's
    all-pairs vectorized with index arithmetic over (bucket, doc)-sorted
    rows — size-1 buckets emit nothing, so no pre-count pass is needed.
    (2) Pairs shuffle by a hash of (a, b) and each partition drops its
    duplicates vectorized — an exact global distinct.  (Ray's
    multi-key ``aggregate(Count)`` distinct was measured ~30× slower
    than this partitioned-vectorized shape.)  Buckets larger than
    ``max_bucket`` are truncated (hot boilerplate clusters need a
    dedicated pass)."""
    bands_ds = docs_ds.map_batches(
        MinHashStage(k=k, bands=bands, w=w, text_col=text_col),
        batch_format="pyarrow")

    def add_bucket(t: pa.Table) -> pa.Table:
        key = _combine_band_key(t["band"].to_numpy(),
                                t["band_hash"].to_numpy())
        # int64 views: uint64 above 2^63 trips pandas→arrow conversion
        # inside map_groups; the bit pattern is all grouping needs
        return pa.table({
            "bucket": pa.array(key.view(np.int64), type=pa.int64()),
            "pb": pa.array((key % np.uint64(parts)).astype(np.int64)),
            "doc_id": t["doc_id"],
        })

    def _in_group_index(b: np.ndarray) -> np.ndarray:
        newb = np.ones(len(b), dtype=bool)
        newb[1:] = b[1:] != b[:-1]
        starts = np.flatnonzero(newb)
        c = np.diff(np.append(starts, len(b)))
        return np.arange(len(b), dtype=np.int64) - np.repeat(starts, c)

    def emit_pairs_part(g: pd.DataFrame) -> pd.DataFrame:
        bk = g["bucket"].to_numpy()
        dc = g["doc_id"].to_numpy()
        order = np.lexsort((dc, bk))
        bk, dc = bk[order], dc[order]
        keep = np.ones(len(bk), dtype=bool)          # unique (bucket, doc)
        keep[1:] = (bk[1:] != bk[:-1]) | (dc[1:] != dc[:-1])
        bk, dc = bk[keep], dc[keep]
        ia = _in_group_index(bk)
        capm = ia < max_bucket                       # truncate hot buckets
        bk, dc = bk[capm], dc[capm]
        ia = _in_group_index(bk)
        # element at in-bucket index j pairs with its j predecessors;
        # docs are sorted within the bucket, so left < right = (a, b)
        pos = np.arange(len(bk), dtype=np.int64)
        left = np.repeat(pos - ia, ia) + grouped_arange(ia)
        right = np.repeat(pos, ia)
        df = pd.DataFrame({"a": dc[left].astype(np.int64),
                           "b": dc[right].astype(np.int64)})
        # partition-local dedupe shrinks the second shuffle.  dict-of-
        # numpy return → Ray builds the block as Arrow directly; a
        # pd.DataFrame return would be converted downstream via
        # pa.Table.from_pandas, whose b'pandas' schema-metadata blob
        # makes schema hashing fail (unhashable dict) — every later
        # reduce then warns AND skips its schema-dedup fast path.
        df = df.drop_duplicates(["a", "b"])
        return {"a": df["a"].to_numpy(), "b": df["b"].to_numpy()}

    pairs = bands_ds.map_batches(add_bucket, batch_format="pyarrow") \
        .groupby("pb").map_groups(emit_pairs_part, batch_format="pandas")

    def add_pp(t: pa.Table) -> pa.Table:
        with np.errstate(over="ignore"):
            h = (t["a"].to_numpy().view(np.uint64)
                 * np.uint64(0x9E3779B97F4A7C15)
                 ^ t["b"].to_numpy().view(np.uint64)
                 * np.uint64(0xC2B2AE3D27D4EB4F))
        return t.append_column(
            "pp", pa.array((h % np.uint64(parts)).astype(np.int64)))

    def distinct_part(g: pd.DataFrame):
        d = g[["a", "b"]].drop_duplicates(["a", "b"])
        return {"a": d["a"].to_numpy(), "b": d["b"].to_numpy()}

    return pairs.map_batches(add_pp, batch_format="pyarrow") \
        .groupby("pp").map_groups(distinct_part, batch_format="pandas")


def _candidate_shingles(docs_ds, cand_sorted: np.ndarray, w: int,
                        text_col: str):
    """Dataset of (id, sh) — each candidate doc's sorted-unique w-shingle
    hash set packed as a ``large_binary`` payload (raw little-endian
    uint64 bytes; Acero hash joins don't carry list columns, binary
    rides fine).  One streaming pass over the corpus; non-candidates
    are dropped at the batch level via the broadcast sorted id filter."""
    import ray as _ray
    cand_ref = _ray.put(cand_sorted)

    def stage(b: pa.Table) -> pa.Table:
        cand = _ray.get(cand_ref)
        ids = b["doc_id"].to_numpy()
        m = _in_sorted(ids, cand)
        empty = pa.table({"id": pa.array([], pa.int64()),
                          "sh": pa.array([], pa.large_binary())})
        if not m.any():
            return empty
        sub = b.filter(pa.array(m))
        toks, lens, _ = _tokenize_flat(sub, text_col)
        h = hash_tokens_u64(toks) if len(toks) else np.empty(0, np.uint64)
        sh, n_sh = shingle_hashes(h, lens, w)
        ndocs = len(n_sh)
        didx = np.repeat(np.arange(ndocs, dtype=np.int64), n_sh)
        order = np.lexsort((sh, didx))
        sh_s, di_s = sh[order], didx[order]
        keep = np.ones(len(sh_s), dtype=bool)
        keep[1:] = (di_s[1:] != di_s[:-1]) | (sh_s[1:] != sh_s[:-1])
        sh_u, di_u = sh_s[keep], di_s[keep]
        cnt = np.bincount(di_u, minlength=ndocs)
        byte_off = (np.concatenate(([0], np.cumsum(cnt)))
                    .astype(np.int64) * 8)
        packed = pa.Array.from_buffers(
            pa.large_binary(), ndocs,
            [None, pa.py_buffer(byte_off.tobytes()),
             pa.py_buffer(np.ascontiguousarray(sh_u).tobytes())])
        return pa.table({
            "id": sub["doc_id"].cast(pa.int64()),
            "sh": packed})

    return docs_ds.map_batches(stage, batch_format="pyarrow")


def _unpack_binary_u64(col: pa.ChunkedArray | pa.Array):
    """(values concat as uint64, per-row counts) from a large_binary
    column of packed uint64 sets — buffer math only, no per-row
    Python."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    offs = np.frombuffer(col.buffers()[1], dtype=np.int64)[
        col.offset: col.offset + n + 1]
    data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
    # copy for 8-byte alignment (slice may start at any offset)
    vals = data[offs[0]:offs[-1]].copy().view(np.uint64)
    counts = np.diff(offs) // 8
    return vals, counts


def _verify_chunk(sh_ds, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-pair intersection counts for ONE chunk of candidate pairs
    against the materialized shingle table.  The chunk's membership map
    (doc → [pair_id], CSR arrays, O(2·chunk)) is the broadcast; the
    heavy shingle payload only moves through map_batches + groupby
    shuffles."""
    import ray as _ray

    npairs = len(a)
    parts = 64
    # membership CSR: doc -> slice of pair_id rows
    mem_doc = np.concatenate((a, b))
    mem_pid = np.tile(np.arange(npairs, dtype=np.int64), 2)
    order = np.argsort(mem_doc, kind="stable")
    mem_doc, mem_pid = mem_doc[order], mem_pid[order]
    uniq = np.ones(len(mem_doc), dtype=bool)
    uniq[1:] = mem_doc[1:] != mem_doc[:-1]
    cand = mem_doc[uniq]                       # sorted unique chunk ids
    doc_start = np.flatnonzero(uniq)
    doc_end = np.append(doc_start[1:], len(mem_doc))
    mem_ref = _ray.put((cand, doc_start, doc_end, mem_pid))

    def explode(bt: pa.Table) -> pa.Table:
        cand_, ds_, de_, pid_ = _ray.get(mem_ref)
        ids = bt["id"].to_numpy()
        # drop docs with no pair in THIS chunk (sh_ds covers the union
        # of all chunks' candidates)
        sel = _in_sorted(ids, cand_)
        if not sel.all():
            bt = bt.filter(pa.array(sel))
            ids = ids[sel]
        if not len(ids):
            return pa.table({"pid": pa.array([], pa.int64()),
                             "sh": pa.array([], pa.int64())})
        vals, counts = _unpack_binary_u64(bt["sh"])
        pos = np.searchsorted(cand_, ids)
        n_mem = de_[pos] - ds_[pos]
        # one output row per (membership, shingle) combo of each doc
        mem_of = np.repeat(np.arange(len(ids), dtype=np.int64), n_mem)
        mem_idx = np.repeat(ds_[pos], n_mem) + grouped_arange(n_mem)
        out_pid = np.repeat(pid_[mem_idx], counts[mem_of])
        sh_starts = np.cumsum(counts) - counts
        sh_idx = np.repeat(sh_starts[mem_of], counts[mem_of]) \
            + grouped_arange(counts[mem_of])
        return pa.table({
            "pp": pa.array(out_pid % parts),
            "pid": pa.array(out_pid),
            "sh": pa.array(vals[sh_idx].view(np.int64), type=pa.int64()),
        })

    def count_part(g: pd.DataFrame) -> pd.DataFrame:
        # a (pid, sh) appears at most twice (each side's set is unique);
        # adjacent duplicates after a lexsort = the intersection rows
        pid = g["pid"].to_numpy()
        sh = g["sh"].to_numpy()
        order = np.lexsort((sh, pid))
        pid, sh = pid[order], sh[order]
        dup = (pid[1:] == pid[:-1]) & (sh[1:] == sh[:-1])
        dp = pid[1:][dup]
        up, cnt = np.unique(dp, return_counts=True)
        return {"pid": up.astype(np.int64), "inter": cnt.astype(np.int64)}

    # ONE pid-partitioned shuffle + vectorized per-partition counting
    # (Ray's multi-key aggregate(Count) distinct measured ~30x slower)
    inter_df = sh_ds.map_batches(explode, batch_format="pyarrow") \
        .groupby("pp").map_groups(count_part, batch_format="pandas") \
        .to_pandas()
    inter = np.zeros(npairs, dtype=np.int64)
    if len(inter_df):
        inter[inter_df["pid"].to_numpy()] = inter_df["inter"].to_numpy()
    return inter


def jaccard_verify(docs_ds, pairs_ds, threshold: float,
                   w: int = 3, text_col: str = "text",
                   pair_chunk: int = 5_000_000) -> pd.DataFrame:
    """Exact w-shingle Jaccard for candidate pairs — distributed as a
    small-side-broadcast join:

    1. candidate docs' sorted-unique shingle sets are built in ONE
       corpus pass (broadcast sorted-id filter) and materialized in the
       object store (packed uint64 binary, O(candidates) not corpus);
    2. the pair membership map (doc → [pair_id], CSR arrays,
       O(#pairs) — the small side) is broadcast once via ``ray.put``;
    3. a map_batches stage explodes each candidate doc's shingles into
       (pair_id, shingle) rows for every pair the doc belongs to —
       all vectorized gathers;
    4. intersections are TWO C-level count aggregates: per (pair,
       shingle) count (2 ⇔ both sides contain it, since each side's
       set is unique), then per pair.

    The heavy payload (shingle values) only ever moves through
    map_batches + groupby shuffles.  The pair list itself stays in the
    OBJECT STORE (materialized once, spillable): the candidate-id
    union comes from a distributed per-batch-unique pass, and the
    verify loop streams ``pair_chunk``-sized pair batches via
    ``iter_batches`` — the driver's peak state is one pair chunk plus
    the verified survivors, never the full candidate pair list, never
    a shingle dict, never a per-pair Python loop."""
    empty = pd.DataFrame({**_EMPTY_PAIRS,
                          "jaccard": pd.Series(dtype=np.float64)})
    if pairs_ds is None:
        return empty
    pairs_ds = pairs_ds.materialize()  # consumed twice: ids pass + verify

    # distributed candidate-id union (driver sees per-batch uniques)
    def batch_ids(t: pa.Table) -> pa.Table:
        u = np.unique(np.concatenate(
            (t["a"].to_numpy(), t["b"].to_numpy())).astype(np.int64))
        return pa.table({"id": pa.array(u)})

    ids = pairs_ds.map_batches(batch_ids, batch_format="pyarrow").to_pandas()
    if not len(ids):
        return empty
    cand = np.unique(ids["id"].to_numpy())

    # candidate shingle sets: ONE corpus pass, object-store resident
    sh_ds = _candidate_shingles(docs_ds, cand, w, text_col).materialize()

    # per-candidate set sizes (O(#candidates) driver rows)
    sizes = sh_ds.map_batches(
        lambda t: pa.table({"id": t["id"],
                            "n": pa.array(_unpack_binary_u64(t["sh"])[1])}),
        batch_format="pyarrow").to_pandas()
    n_by = np.zeros(len(cand), dtype=np.int64)
    n_by[np.searchsorted(cand, sizes["id"].to_numpy())] = sizes["n"].to_numpy()

    outs = []
    for pb in pairs_ds.iter_batches(batch_size=pair_chunk,
                                    batch_format="pyarrow"):
        a = pb["a"].to_numpy().astype(np.int64)
        b = pb["b"].to_numpy().astype(np.int64)
        if not len(a):
            continue
        inter = _verify_chunk(sh_ds, a, b)
        na = n_by[np.searchsorted(cand, a)]
        nb = n_by[np.searchsorted(cand, b)]
        union = na + nb - inter
        j = inter / np.maximum(union, 1)
        m = (j >= threshold) & (na > 0) & (nb > 0)
        if m.any():
            outs.append(pd.DataFrame({"a": a[m], "b": b[m],
                                      "jaccard": np.round(j[m], 6)}))
    if not outs:
        return empty
    out = pd.concat(outs, ignore_index=True)
    return out.sort_values(["a", "b"]).reset_index(drop=True)


def near_dup_pairs(docs_ds, threshold: float = 0.8, k: int = 128,
                   bands: int = 16, w: int = 3, text_col: str = "text"):
    """MinHash-LSH near-duplicate pairs, exact-Jaccard verified.
    Every stage is distributed (banding, bucket pair expansion, pair
    dedup, shingle build, verify joins); only the verified pairs reach
    the driver."""
    cands = lsh_candidate_pairs(docs_ds, k=k, bands=bands, w=w,
                                text_col=text_col)
    return jaccard_verify(docs_ds, cands, threshold, w=w, text_col=text_col)


def exact_dup_drops(docs_ds, text_col: str = "text", parts: int = 64):
    """doc_ids to DROP under exact dedup — every non-min member of an
    identical-content group.  The output is O(#duplicate docs), the
    small complement of the survivor set, so it can ride a broadcast
    filter (``corpus_clean``) instead of a corpus-sized anti-join.

    Shape: ONE hash-partitioned shuffle of (hash, id) pairs (``parts``
    fixed partitions — never one group per hash: a 100 TB corpus has
    ~10^12 distinct contents and per-group pandas calls would
    dominate); each partition detects non-first members vectorized
    over (hash, doc_id)-lexsorted rows."""
    hashed = docs_ds.map_batches(
        lambda b: add_content_hash(b, text_col), batch_format="pyarrow")

    def add_pb(t: pa.Table) -> pa.Table:
        h = pd.util.hash_array(
            t["content_hash"].to_numpy(zero_copy_only=False).astype(object))
        return t.append_column(
            "pb", pa.array((h % np.uint64(parts)).astype(np.int64)))

    def drops_part(g: pd.DataFrame) -> pd.DataFrame:
        ch = g["content_hash"].to_numpy().astype("U32")
        ids = g["doc_id"].to_numpy()
        order = np.lexsort((ids, ch))
        ch, ids = ch[order], ids[order]
        dup = np.zeros(len(ch), dtype=bool)
        dup[1:] = ch[1:] == ch[:-1]          # every member after the min
        return {"doc_id": ids[dup].astype(np.int64)}

    return hashed.map_batches(add_pb, batch_format="pyarrow") \
        .groupby("pb").map_groups(drops_part, batch_format="pandas")

def connected_components(pairs, parts: int = 64, max_iters: int = 64):
    """(node, comp) for every node appearing in ``pairs`` — comp = the
    minimum node id reachable in the undirected pair graph (the
    canonical duplicate-cluster id).

    Distributed hash-min label propagation, TWO fixed-partition
    shuffles per round (the repo-standard partitioned-vectorized
    shape; Ray's hash join breaks on the empty-schema blocks its
    shuffle emits for empty partitions, so no ``Dataset.join``):

    1. propagate: edge rows partition by their LOOKUP endpoint, label
       rows by node; each partition resolves comp[nbr] with one
       searchsorted gather and emits (node, comp[nbr]) candidates.
       The label map itself rides along as extra symmetric edges
       (node ↔ comp), which makes every round also apply
       comp[x] ← comp[comp[x]] — pointer jumping for free, so rounds
       = O(log diameter), not O(diameter).
    2. combine: candidates ∪ labels partition by node; per-partition
       lexsort + first-of-group = the new min label per node.

    Labels are monotone non-increasing, so an unchanged Sum(comp)
    checksum ⇔ fixpoint; the driver only ever sees that scalar.
    ``pairs`` is a DataFrame or Dataset with int64 columns (a, b).
    Returns a Dataset with columns (node, comp).
    """
    import ray.data
    from ray.data.aggregate import Sum

    empty = pa.table({"node": pa.array([], pa.int64()),
                      "comp": pa.array([], pa.int64())})
    if isinstance(pairs, pd.DataFrame):
        if not len(pairs):
            return ray.data.from_arrow(empty)
        pairs = ray.data.from_pandas(pairs[["a", "b"]])
    P = np.int64(parts)

    def sym(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or t.num_rows == 0:
            return pa.table({"node": pa.array([], pa.int64()),
                             "nbr": pa.array([], pa.int64())})
        a = t["a"].to_numpy().astype(np.int64)
        b = t["b"].to_numpy().astype(np.int64)
        return pa.table({"node": pa.array(np.concatenate((a, b))),
                         "nbr": pa.array(np.concatenate((b, a)))})

    edges = pairs.map_batches(sym, batch_format="pyarrow").materialize()

    # initial labels: comp = min(self, neighbors) — one propagate round
    # from the identity labeling is exactly that, so seed with identity
    def ident(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or t.num_rows == 0:
            return empty
        n = t["node"].to_numpy()
        u = np.unique(n)
        return pa.table({"node": pa.array(u), "comp": pa.array(u)})

    labels = edges.map_batches(ident, batch_format="pyarrow")

    def tag_edges(t: pa.Table) -> pa.Table:
        # kind=1 edge rows, partitioned by the lookup endpoint (nbr)
        if t.num_columns == 0 or t.num_rows == 0:
            return pa.table({"pb": pa.array([], pa.int64()),
                             "kind": pa.array([], pa.int8()),
                             "x": pa.array([], pa.int64()),
                             "y": pa.array([], pa.int64())})
        nbr = t["nbr"].to_numpy().astype(np.int64)
        return pa.table({"pb": pa.array(nbr % P),
                         "kind": pa.array(np.ones(len(nbr), np.int8)),
                         "x": t["node"].cast(pa.int64()),
                         "y": pa.array(nbr)})

    def tag_labels(t: pa.Table) -> pa.Table:
        # kind=0 label rows (x=node, y=comp), partitioned by node, PLUS
        # the label-star edges (x=comp gets comp[node]... and the
        # jump direction x=node looks up comp[comp]) — both symmetric
        # directions, partitioned by their lookup endpoint
        if t.num_columns == 0 or t.num_rows == 0:
            return pa.table({"pb": pa.array([], pa.int64()),
                             "kind": pa.array([], pa.int8()),
                             "x": pa.array([], pa.int64()),
                             "y": pa.array([], pa.int64())})
        node = t["node"].to_numpy().astype(np.int64)
        comp = t["comp"].to_numpy().astype(np.int64)
        x = np.concatenate((node, node, comp))
        y = np.concatenate((comp, comp, node))   # lookup endpoints
        pb = np.concatenate((node % P,           # the map rides by node
                             comp % P,           # jump: comp[comp[x]]
                             node % P))          # reverse star edge
        kind = np.concatenate((
            np.zeros(len(node), np.int8),        # the label map itself
            np.ones(2 * len(node), np.int8)))    # star edges
        return pa.table({"pb": pa.array(pb),
                         "kind": pa.array(kind),
                         "x": pa.array(x), "y": pa.array(y)})

    def propagate(g: pd.DataFrame) -> pd.DataFrame:
        kind = g["kind"].to_numpy()
        x = g["x"].to_numpy()
        y = g["y"].to_numpy()
        lab = kind == 0
        lx, ly = x[lab], y[lab]                  # node -> comp map
        order = np.argsort(lx)
        lx, ly = lx[order], ly[order]
        ex, ey = x[~lab], y[~lab]
        if len(lx) == 0:
            return {"node": np.empty(0, np.int64),
                    "comp": np.empty(0, np.int64)}
        pos = np.searchsorted(lx, ey)
        pos = np.minimum(pos, len(lx) - 1)
        m = lx[pos] == ey
        return {"node": ex[m].astype(np.int64),
                "comp": ly[pos[m]].astype(np.int64)}

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        n = g["node"].to_numpy()
        c = g["comp"].to_numpy()
        order = np.lexsort((c, n))
        n, c = n[order], c[order]
        first = np.ones(len(n), dtype=bool)
        first[1:] = n[1:] != n[:-1]
        return {"node": n[first].astype(np.int64),
                "comp": c[first].astype(np.int64)}

    def by_node(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or t.num_rows == 0:
            return pa.table({"pb": pa.array([], pa.int64()),
                             "node": pa.array([], pa.int64()),
                             "comp": pa.array([], pa.int64())})
        n = t["node"].to_numpy().astype(np.int64)
        return pa.table({"pb": pa.array(n % P),
                         "node": pa.array(n),
                         "comp": t["comp"].cast(pa.int64())})

    def checksum(ds) -> int:
        res = ds.aggregate(Sum("comp", alias_name="s"))
        return int(res["s"]) if res and res.get("s") is not None else 0

    labels = labels.materialize()
    prev = None
    for _ in range(max_iters):
        tagged = edges.map_batches(tag_edges, batch_format="pyarrow") \
            .union(labels.map_batches(tag_labels, batch_format="pyarrow"))
        cands = tagged.groupby("pb").map_groups(
            propagate, batch_format="pandas")
        labels = cands.union(labels) \
            .map_batches(by_node, batch_format="pyarrow") \
            .groupby("pb").map_groups(combine, batch_format="pandas") \
            .map_batches(lambda t: t.select(["node", "comp"])
                         if t.num_columns else empty,
                         batch_format="pyarrow") \
            .materialize()
        cur = checksum(labels)
        if cur == prev:
            break
        prev = cur
    return labels


def dup_span_stats(docs_ds, w: int = 5, text_col: str = "text"):
    """Per-doc duplicated n-gram span statistics (the Lee et al. 2021
    "Deduplicating Training Data" signal, arXiv:2107.06499): for every
    doc, how many of its w-token spans also occur elsewhere in the
    corpus (including repeats within the doc).

    Join-free distributed plan — every stage is a C-level aggregate:
      1. per batch: rolling w-gram hashes → in-batch (h, doc, c)
         combiner rows (uint64 hashes ride the shuffle as int64 views);
      2. groupby(h): Sum(c) + Min(doc) — a span hash with total 1 is a
         SINGLETON owned by Min(doc) (= its only doc);
      3. n_dup(d) = n_spans(d) − n_singletons(d), assembled by a union
         of two per-doc partial streams through ONE groupby(doc) sum —
         no corpus-sized join back to the pair table anywhere.
    → Dataset (doc_id, n_spans, n_dup_spans, dup_frac) over docs with
    ≥ 1 span (len ≥ w).  Both wide steps use the fixed-partition
    (key-hash % 64) vectorized shape — measured ~6× faster than
    groupby().aggregate() on the same span-hash keys."""

    def pair_rows(b: pa.Table) -> pa.Table:
        toks, lens, _ = _tokenize_flat(b, text_col)
        h = hash_tokens_u64(toks)
        sh, n_sh = shingle_hashes(h, lens, w)
        doc = np.repeat(b["doc_id"].to_numpy(), n_sh)
        key = sh.view(np.int64)
        o = np.lexsort((doc, key))
        k_s, d_s = key[o], doc[o]
        st = np.flatnonzero(np.concatenate(
            ([True], (k_s[1:] != k_s[:-1]) | (d_s[1:] != d_s[:-1]))))
        c = np.diff(np.concatenate((st, [len(k_s)])))
        return pa.table({"h": pa.array(k_s[st]),
                         "doc_id": pa.array(d_s[st]),
                         "c": pa.array(c.astype(np.int64))})

    def span_counts(b: pa.Table) -> pa.Table:
        _, lens, _ = _tokenize_flat(b, text_col)
        n_sh = np.maximum(lens - (w - 1), 0)
        keep = n_sh > 0
        return pa.table({
            "doc_id": pa.array(b["doc_id"].to_numpy()[keep]),
            "spans": pa.array(n_sh[keep]),
            "sing": pa.array(np.zeros(int(keep.sum()), np.int64))})

    def pb_col(col):
        def add(b: pa.Table) -> pa.Table:
            v = b[col].to_numpy().astype(np.uint64)
            return b.append_column(
                "pb", pa.array((v % np.uint64(64)).astype(np.int64)))
        return add

    def hash_part(g: pd.DataFrame) -> pd.DataFrame:
        """One hash partition: Sum(c)/Min(doc) per span hash via one
        vectorized run-length pass — measured ~6× faster than Ray's
        groupby().aggregate() on the same keys (the repo-standard
        fixed-partition shuffle shape)."""
        if not len(g):
            return {"tot": np.empty(0, np.int64),
                    "d0": np.empty(0, np.int64)}
        k = g["h"].to_numpy(np.int64)
        o = np.argsort(k, kind="stable")
        k_s = k[o]
        st = np.flatnonzero(np.concatenate(([True], k_s[1:] != k_s[:-1])))
        return {
            "tot": np.add.reduceat(g["c"].to_numpy(np.int64)[o], st),
            "d0": np.minimum.reduceat(
                g["doc_id"].to_numpy(np.int64)[o], st)}

    pairs = docs_ds.map_batches(pair_rows, batch_format="pyarrow")
    per_hash = pairs.map_batches(pb_col("h"), batch_format="pyarrow") \
        .groupby("pb").map_groups(hash_part, batch_format="pandas")

    def singleton_rows(b: pa.Table) -> pa.Table:
        if b.num_columns == 0 or not len(b):
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "spans": pa.array([], pa.int64()),
                             "sing": pa.array([], pa.int64())})
        m = pa.compute.equal(b["tot"], 1).to_numpy(zero_copy_only=False)
        d = b["d0"].to_numpy(zero_copy_only=False)[m]
        u, c = np.unique(d, return_counts=True)  # in-block combiner
        return pa.table({"doc_id": pa.array(u.astype(np.int64)),
                         "spans": pa.array(np.zeros(len(u), np.int64)),
                         "sing": pa.array(c.astype(np.int64))})

    sing = per_hash.map_batches(singleton_rows, batch_format="pyarrow")
    spans = docs_ds.map_batches(span_counts, batch_format="pyarrow")
    def doc_part(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return {"doc_id": np.empty(0, np.int64),
                    "n_spans": np.empty(0, np.int64),
                    "n_sing": np.empty(0, np.int64)}
        d = g["doc_id"].to_numpy(np.int64)
        o = np.argsort(d, kind="stable")
        d_s = d[o]
        st = np.flatnonzero(np.concatenate(([True], d_s[1:] != d_s[:-1])))
        return {
            "doc_id": d_s[st],
            "n_spans": np.add.reduceat(
                g["spans"].to_numpy(np.int64)[o], st),
            "n_sing": np.add.reduceat(
                g["sing"].to_numpy(np.int64)[o], st)}

    merged = spans.union(sing) \
        .map_batches(pb_col("doc_id"), batch_format="pyarrow") \
        .groupby("pb").map_groups(doc_part, batch_format="pandas")

    def finish(b: pa.Table) -> pa.Table:
        n = b["n_spans"].to_numpy(zero_copy_only=False)
        s = b["n_sing"].to_numpy(zero_copy_only=False)
        dup = n - s
        return pa.table({
            "doc_id": b["doc_id"],
            "n_spans": pa.array(n.astype(np.int64)),
            "n_dup_spans": pa.array(dup.astype(np.int64)),
            "dup_frac": pa.array(np.round(dup / np.maximum(n, 1), 6))})

    return merged.map_batches(finish, batch_format="pyarrow")

"""Index maintenance: latent delete + vacuum compaction.

Reference semantics (``/root/reference/src/index.rs:160-241``):
- ``remove_document`` tombstones the key and *immediately* updates the
  corpus stats (sum -= field_length; avg = sum/(N-1); N -= 1) — queries
  exclude the doc from scoring and df from that moment.
- ``vacuum`` physically drops tombstoned postings, prunes terms left
  with no postings, and clears the tombstone set.

Here: tombstones + stats are tiny JSON state; vacuum is a Ray Data
compaction job over the term shards (decode → filter → re-encode →
atomic rewrite per group).  ``first_pos`` values are preserved for
surviving terms — the reference's trie keeps node creation order across
vacuum, so expansion order must not change.
"""

from __future__ import annotations

import glob
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from probly_search_ray.functions.codec import (
    blob_buffers, decode_rows, encode_rows)
from probly_search_ray.search import _in_sorted
from probly_search_ray.stages.segment import SEGMENT_SCHEMA, docmeta_ipc, read_docmeta_ipc
from probly_search_ray.state.manifest import Manifest, Stats, Tombstones


def remove_document(index_dir: str, doc_id: int) -> bool:
    """Tombstone ``doc_id``.  Returns False if unknown or already removed."""
    return remove_documents(index_dir, [doc_id]) == 1


def remove_documents(index_dir: str, doc_ids) -> int:
    """Tombstone a batch of docs with one docmeta lookup and one write
    per state file.  Returns the number of docs actually removed.

    Crash-safety ordering: tombstones are written *before* the stats
    update, and ``stats.json`` records how many tombstones it has
    applied (``tomb_applied``).  A crash in between leaves the docs
    excluded from scoring (conservative) with stats that have not
    counted them yet; an engine counts them in memory at load and
    ``refresh()``, and the next ``remove_documents`` or ``vacuum``
    replays exactly those (``_replay_pending``) before doing anything
    else.  The reverse order would silently score a live doc against
    shrunken stats forever.
    """
    tomb = Tombstones(index_dir)
    stats = _replay_pending(index_dir, tomb)
    existing = set(tomb.doc_ids)
    want = [int(d) for d in dict.fromkeys(doc_ids) if int(d) not in existing]
    if not want:
        return 0
    lens_by_doc = _docs_field_lengths(index_dir, want)
    if not lens_by_doc:
        return 0
    found = [d for d in want if d in lens_by_doc]
    tomb.add_many(found)
    for d in found:  # reference per-doc replay (src/index.rs:160-191)
        stats.apply_remove(lens_by_doc[d], save=False)
    stats.data["tomb_applied"] = len(tomb.doc_ids)
    stats.save()
    return len(found)


def replay_pending(index_dir: str, stats: Stats, ids: list) -> None:
    """Apply to ``stats``, in memory, the tombstones of the list ``ids``
    that its figures do not include yet (``Stats.pending``: those left
    by a crash between the two writes of a removal), in list order — the
    reference's per-doc replay order — and count every tombstone as
    applied.  The writers save the result (``_replay_pending``); an
    engine serves it and writes nothing."""
    pending = stats.pending(ids)
    if pending:
        lens_by_doc = _docs_field_lengths(index_dir, pending)
        for d in pending:
            if d in lens_by_doc:
                stats.apply_remove(lens_by_doc[d], save=False)
    stats.data["tomb_applied"] = len(ids)


def _replay_pending(index_dir: str, tomb: Tombstones) -> Stats:
    """The index's stats with every tombstone applied
    (``replay_pending``), saved whenever the stored count differs, so
    the count is on disk before the next tombstone write."""
    stats = Stats(index_dir)
    stored = stats.data.get("tomb_applied")
    replay_pending(index_dir, stats, tomb.doc_ids)
    if stored != len(tomb.doc_ids):
        stats.save()
    return stats


def remove_documents_by_key(index_dir: str, keys) -> int:
    """Remove string-keyed docs: hashing is deterministic, so the
    doc_ids are recomputed without touching the sidecar."""
    from probly_search_ray.state.keymap import hash_keys
    return remove_documents(index_dir, [int(h) for h in hash_keys(list(keys))])


# docmeta dir → {file: ((st_ino, st_mtime_ns, st_size), sorted doc ids,
# [len_f in id order])}; a file's entry is re-read once its stat changes
_DOCMETA_MEMO: dict[str, dict] = {}
_DOCMETA_MEMO_DIRS = 8


def _docmeta_lengths(path: str, old):
    """A docmeta file's ``doc_id`` column sorted, with each ``len_*``
    column in the same order — ``old`` when the file is unchanged.  A
    duplicated id keeps its last row."""
    st = os.stat(path)
    key = (st.st_ino, st.st_mtime_ns, st.st_size)
    if old is not None and old[0] == key:
        return old
    pf = pq.ParquetFile(path)
    cols = [c for c in pf.schema_arrow.names if c.startswith("len_")]
    t = pf.read(columns=["doc_id", *cols])
    ids = _int_column(t["doc_id"])
    order = np.argsort(ids, kind="stable")
    s = ids[order]
    last = order[np.r_[s[1:] != s[:-1], True]] if len(s) else order
    return (key, ids[last],
            [_int_column(t[f"len_{f}"])[last] for f in range(len(cols))])


def _int_column(col: pa.ChunkedArray) -> np.ndarray:
    """A null-free integer column as one NumPy array, read through its
    Arrow data buffers.  ``to_numpy()`` gives the same values but
    imports pandas on first use (pyarrow's conversion layer), and that
    import would land inside a serving process's first removal."""
    t = col.type
    if not pa.types.is_integer(t) or col.null_count:
        raise TypeError(f"expected a null-free integer column, got {t}")
    dt = np.dtype(f"{'u' if pa.types.is_unsigned_integer(t) else 'i'}"
                  f"{t.bit_width // 8}")
    parts = [np.frombuffer(c.buffers()[1], dt, count=len(c),
                           offset=c.offset * dt.itemsize)
             for c in col.chunks if len(c)]
    return np.concatenate(parts) if parts else np.empty(0, dt)


def _docmeta_files(index_dir: str) -> list[tuple]:
    """``(sorted doc ids, [len_f])`` of each docmeta file, in file
    order, memoized per file.  The memo keeps only the current listing."""
    meta_dir = os.path.join(index_dir, "docmeta")
    files = sorted(glob.glob(os.path.join(meta_dir, "*.parquet"))) \
        if os.path.isdir(meta_dir) else []
    old = _DOCMETA_MEMO.pop(meta_dir, {})
    memo = _DOCMETA_MEMO[meta_dir] = {
        p: _docmeta_lengths(p, old.get(p)) for p in files}
    while len(_DOCMETA_MEMO) > _DOCMETA_MEMO_DIRS:
        del _DOCMETA_MEMO[next(iter(_DOCMETA_MEMO))]
    return [memo[p][1:] for p in files]


def _docs_field_lengths(index_dir: str, doc_ids) -> dict[int, list[int]]:
    """Field lengths for a batch of doc ids: a binary search in each
    docmeta file's memoized id column, so a removal costs O(removed
    docs) once the files are read.  Later files win for an id present
    in several (a crash between a compaction's commit and its cleanup
    leaves it twice)."""
    if not len(doc_ids):
        return {}
    want = np.asarray([int(d) for d in doc_ids], dtype=np.uint64)
    out: dict[int, list[int]] = {}
    for ids, lens in _docmeta_files(index_dir):
        found = want[_in_sorted(want, ids)]
        for d, j in zip(found.tolist(), np.searchsorted(ids, found).tolist()):
            out[d] = [int(ln[j]) for ln in lens]
    return out


def docmeta_table(index_dir: str, num_fields: int):
    """Every doc's field lengths: ``(sorted unique doc ids, [len_f])``
    over all docmeta files, with the rules of ``_docs_field_lengths``
    (last row wins within a file, a later file wins across files).
    The serving cache's per-doc tables come from here."""
    parts = _docmeta_files(index_dir)
    if not parts:
        return (np.empty(0, np.uint64),
                [np.empty(0, np.uint32) for _ in range(num_fields)])
    ids = np.concatenate([i for i, _ in parts]).astype(np.uint64)
    order = np.argsort(ids, kind="stable")
    s = ids[order]
    last = order[np.r_[s[1:] != s[:-1], True]]
    return ids[last], [np.concatenate([ln[f] for _, ln in parts])[last]
                       for f in range(num_fields)]


class _Compactor:
    """map_batches stage: drop tombstoned postings from every blob.

    Vectorized like the query-side loader: ONE ``decode_rows`` pass
    over the batch's concatenated blob stream, one tombstone anti-join
    over all postings, one ``encode_rows`` re-encode in blocks of the
    index's ``block_postings`` — no per-term Python decode/encode loop
    (the same pattern whose query-side twin caused the round-1 p95
    blow-up).  Doc-meta sentinel rows (few per batch) keep their
    per-blob IPC path."""

    def __init__(self, tomb_sorted: np.ndarray, num_fields: int,
                 block_postings: int):
        self.tomb = tomb_sorted
        self.nf = num_fields
        self.block_postings = block_postings
        from probly_search_ray.functions.mem import tune_allocator
        tune_allocator()

    def _meta_rows(self, batch: pa.Table) -> pa.Table | None:
        import pyarrow.compute as pc
        mt_tbl = batch.filter(pc.equal(batch["term"], ""))
        keep_rows, new_blobs, new_df, new_lo, new_hi = [], [], [], [], []
        for i, blob in enumerate(mt_tbl["blob"].to_pylist()):
            mt = read_docmeta_ipc(blob)
            ids = mt["doc_id"].to_numpy()
            keep = ~_in_sorted(ids, self.tomb)
            if not keep.any():
                continue
            lens = [mt[f"len_{f}"].to_numpy()[keep] for f in range(self.nf)]
            tots = [mt[f"tot_{f}"].to_numpy()[keep] for f in range(self.nf)]
            hvs = [mt[f"hv_{f}"].to_numpy()[keep] for f in range(self.nf)] \
                if "hv_0" in mt.column_names else None
            keep_rows.append(i)
            new_blobs.append(docmeta_ipc(ids[keep], lens, tots, hvs))
            new_df.append(int(keep.sum()))
            new_lo.append(int(ids[keep].min()))
            new_hi.append(int(ids[keep].max()))
        if not keep_rows:
            return None
        sub = mt_tbl.take(pa.array(keep_rows, type=pa.int64()))
        return pa.table({
            "term": sub["term"],
            "doc_lo": pa.array(new_lo, type=pa.uint64()),
            "doc_hi": pa.array(new_hi, type=pa.uint64()),
            "df": pa.array(new_df, type=pa.uint64()),
            "first_pos": sub["first_pos"],
            "first_off": sub["first_off"],
            "blob": pa.array(new_blobs, type=pa.large_binary()),
        }, schema=SEGMENT_SCHEMA)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        meta_out = self._meta_rows(batch)
        post_tbl = batch.filter(pc.invert(pc.equal(batch["term"], "")))
        nrows = len(post_tbl)
        if nrows == 0:
            # build the empty table FROM the schema: the input batch can
            # carry a hive-inferred `group` partition column (read from
            # terms/group=G/...), which a cast() would reject
            return meta_out if meta_out is not None else \
                SEGMENT_SCHEMA.empty_table()
        docs, tfs, row_counts = decode_rows(
            *blob_buffers(post_tbl["blob"].combine_chunks()), self.nf)

        keep = ~_in_sorted(docs, self.tomb)
        row_idx = np.repeat(np.arange(nrows, dtype=np.int64), row_counts)
        cnt = np.bincount(row_idx[keep], minlength=nrows).astype(np.int64)
        docs_k = docs[keep]
        tfs_k = [t[keep] for t in tfs]
        # rows whose postings ALL died are kept as df-0 rows with an
        # empty blob: they carry the term's (first_pos, first_off)
        # creation-order witness, which the reference's vacuum preserves
        # (node uids survive, src/index.rs:193-241) — dropping the row
        # would re-derive expansion order from the SURVIVING occurrences
        # and reorder trie siblings.  df-0 terms are filtered out of
        # expansion lists (count_documents == 0 semantics), so fully
        # pruned subtrees still vanish from results exactly as the
        # reference's node pruning does.  Dead rows keep their original
        # term/first_pos/first_off (and doc range, inert at df 0).
        blobs = encode_rows(docs_k, tfs_k, cnt, self.block_postings)
        ki = np.flatnonzero(cnt)
        c = cnt[ki]                  # postings per surviving row
        rs = np.cumsum(c) - c        # posting start per surviving row
        occ = np.zeros(len(docs_k), dtype=np.uint64)
        for t in tfs_k:
            occ += t
        df_all = np.zeros(nrows, dtype=np.uint64)
        lo_all = post_tbl["doc_lo"].to_numpy().copy()
        hi_all = post_tbl["doc_hi"].to_numpy().copy()
        if len(ki):
            df_all[ki] = np.add.reduceat(occ, rs)
            lo_all[ki] = docs_k[rs]
            hi_all[ki] = docs_k[rs + c - 1]
        out = pa.table({
            "term": post_tbl["term"],
            "doc_lo": pa.array(lo_all, type=pa.uint64()),
            "doc_hi": pa.array(hi_all, type=pa.uint64()),
            "df": pa.array(df_all, type=pa.uint64()),
            "first_pos": post_tbl["first_pos"],
            "first_off": post_tbl["first_off"],
            "blob": pa.array(blobs, type=pa.large_binary()),
        }, schema=SEGMENT_SCHEMA)
        if meta_out is not None:
            out = pa.concat_tables([meta_out, out])
        return out


def _gc_unreferenced_group_dirs(index_dir: str, man: Manifest) -> None:
    """Delete ``terms/group=*`` dirs the manifest doesn't reference —
    leftovers from a vacuum that crashed between its versioned-dir
    rename and the manifest commit (or commit and old-dir delete)."""
    terms_root = os.path.join(index_dir, "terms")
    if not os.path.isdir(terms_root):
        return
    referenced = {os.path.normpath(os.path.dirname(r["path"]))
                  for r in man.term_files()}
    for d in os.listdir(terms_root):
        full = os.path.join(terms_root, d)
        if not (os.path.isdir(full) and d.startswith("group=")):
            continue
        if os.path.normpath(os.path.join("terms", d)) not in referenced:
            shutil.rmtree(full)


def compact_groups(index_dir: str) -> int:
    """Merge ALL committed groups' term files into one globally sorted
    group (LSM-style compaction for append-heavy workflows): queries
    then load each term from one contiguous run instead of one fragment
    per group.  Results are invariant — rows are only re-sorted; the
    load-time merge (df sums, first_pos mins) is associative.

    Crash-safe like vacuum: the merged dir is written aside, ALL group
    records are swapped in ONE atomic manifest write (a partial swap
    would double-count postings), and only then are old dirs deleted;
    group ids stay in the manifest with empty term_files so the build's
    resume contract (skip committed gids) is unchanged.

    Returns the number of groups merged (0 = nothing to do).
    """
    import ray.data

    from probly_search_ray.sources.readers import read_parquet_clean

    man = Manifest(index_dir)
    _gc_unreferenced_group_dirs(index_dir, man)
    gids = sorted(g for g, rec in man.groups.items() if rec["term_files"])
    if len(gids) <= 1:
        return 0
    nf = man.data["config"]["num_fields"]
    all_files = [os.path.join(index_dir, tf["path"])
                 for g in gids for tf in man.groups[g]["term_files"]]
    old_dirs = {os.path.dirname(f) for f in all_files}
    gen = 1 + max(int(man.groups[g].get("compact_gen", 0)) for g in gids)
    new_dir = os.path.join(index_dir, "terms", f"group={gids[0]}.c{gen}")
    tmp_dir = new_dir + ".tmp"
    for d in (tmp_dir, new_dir):
        if os.path.exists(d):
            shutil.rmtree(d)
    # prune to the segment columns: reading files under terms/group=G/
    # hive-infers a `group` partition column, which would otherwise be
    # WRITTEN into the compacted files (stale values, wasted bytes)
    ds = read_parquet_clean(sorted(all_files)) \
        .select_columns(SEGMENT_SCHEMA.names)
    nparts = max(16, 2 * int(__import__("ray").available_resources()
                             .get("CPU", 8)))
    ds.repartition(nparts).sort(["term", "doc_lo"]).write_parquet(tmp_dir)
    os.replace(tmp_dir, new_dir)

    # new docmeta before the commit (duplicate rows across group files
    # are benign for readers; old files removed after the swap)
    from probly_search_ray.build import finalize_group, write_docmeta
    first = dict(man.groups[gids[0]])
    rec, meta = finalize_group(index_dir, new_dir, nf)
    write_docmeta(index_dir, gids[0], meta)
    first.update(rec)
    first["compact_gen"] = gen
    first["compacted_from"] = gids
    updates = {gids[0]: first}
    for g in gids[1:]:
        updates[g] = {**man.groups[g], "term_files": [], "term_rows": 0,
                      "term_bytes": 0, "num_docs": 0,
                      "field_len_sums": [0] * nf,
                      "field_last_val_doc": [-1] * nf, "doc_max": -1}
    man.commit_groups(updates)  # ONE atomic swap
    for d in old_dirs:
        if os.path.normpath(d) != os.path.normpath(new_dir) \
                and os.path.exists(d):
            shutil.rmtree(d)
    for g in gids[1:]:
        p = os.path.join(index_dir, "docmeta", f"group={g}.parquet")
        if os.path.exists(p):
            os.unlink(p)
    from probly_search_ray.search import build_csr_cache
    build_csr_cache(index_dir)  # next engine start is cache-warm
    return len(gids)


def vacuum(index_dir: str) -> None:
    """Compaction job (``src/index.rs:193-241``).

    Crash-safe swap: the compacted group is written under a NEW
    versioned dir (``terms/group=G.vN``), the manifest is atomically
    committed to point at it, and only then are the group's trimmed
    docmeta written and the old dir deleted — at every intermediate
    state the manifest references files that exist, and docmeta holds
    every doc a committed posting names (before the docmeta write it
    still holds the removed docs too, which stay tombstoned until the
    run ends).  Stray dirs from a crashed run are garbage-collected up
    front, and stats first apply any tombstones a crashed removal left
    uncounted (``_replay_pending``); a re-run after a crash converges.
    """
    import ray.data

    from probly_search_ray.sources.readers import read_parquet_clean

    tomb = Tombstones(index_dir)
    # before docmeta is rewritten: the pending docs' lengths live there
    stats = _replay_pending(index_dir, tomb)
    tomb_arr = np.sort(np.asarray(tomb.doc_ids, dtype=np.uint64))
    man = Manifest(index_dir)
    _gc_unreferenced_group_dirs(index_dir, man)
    if len(tomb_arr) == 0:
        return
    from probly_search_ray.build import finalize_group, write_docmeta
    cfg = man.data["config"]
    nf = cfg["num_fields"]
    for gid, rec in sorted(man.groups.items()):
        cur_files = sorted(os.path.join(index_dir, tf["path"])
                           for tf in rec["term_files"])
        if not cur_files:
            continue
        old_dirs = {os.path.dirname(f) for f in cur_files}
        gen = int(rec.get("vacuum_gen", 0)) + 1
        new_dir = os.path.join(index_dir, "terms", f"group={gid}.v{gen}")
        tmp_dir = new_dir + ".tmp"
        for d in (tmp_dir, new_dir):
            if os.path.exists(d):
                shutil.rmtree(d)
        ds = read_parquet_clean(cur_files)
        # one vacuum pass is order-preserving per block; re-sort to keep
        # the term-sorted invariant across output files
        out = ds.map_batches(
            _Compactor(tomb_arr, nf, cfg["block_postings"]),
            batch_format="pyarrow")
        out = out.sort(["term", "doc_lo"])
        os.makedirs(tmp_dir, exist_ok=True)  # zero rows → no dir written
        out.write_parquet(tmp_dir)
        os.replace(tmp_dir, new_dir)
        # refresh lineage: term ranges + docmeta for this group
        fin, meta = finalize_group(index_dir, new_dir, nf)
        rec.update(fin)
        rec["vacuum_gen"] = gen
        man.commit_group(gid, rec)  # atomic: now points at new_dir
        write_docmeta(index_dir, gid, meta)
        for d in old_dirs:
            if os.path.normpath(d) != os.path.normpath(new_dir) \
                    and os.path.exists(d):
                shutil.rmtree(d)
    tomb.clear()
    # a crash before this write leaves a count above the empty list's
    # length, which ``_replay_pending`` reads as all applied
    stats.data["tomb_applied"] = 0
    stats.save()
    from probly_search_ray.search import build_csr_cache
    build_csr_cache(index_dir)  # next engine start is cache-warm


def _docmeta_id_ranges(index_dir: str) -> list[tuple[int, int]]:
    """(min, max) doc id per docmeta file, from parquet FOOTER row-group
    statistics only — no data pages are read."""
    out = []
    meta_dir = os.path.join(index_dir, "docmeta")
    for f in sorted(glob.glob(os.path.join(meta_dir, "*.parquet"))):
        md = pq.ParquetFile(f).metadata
        idx = md.schema.to_arrow_schema().get_field_index("doc_id")
        lo, hi = None, None
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(idx).statistics
            if st is None or not st.has_min_max:
                # fall back for THIS file only: read its ids
                import pyarrow.dataset as pads
                ids = pads.dataset(f).to_table(
                    columns=["doc_id"])["doc_id"].to_numpy()
                if len(ids):
                    lo, hi = int(ids.min()), int(ids.max())
                break
            lo = st.min if lo is None else min(lo, st.min)
            hi = st.max if hi is None else max(hi, st.max)
        if lo is not None:
            out.append((int(lo), int(hi)))
    return out


_MERGE_CFG_KEYS = ("format_version", "string_key", "key_col",
                   "field_cols", "tokenizer", "num_fields",
                   "block_postings")


def merge_indexes(source_dirs, dest_dir: str, compact: bool = False,
                  overwrite: bool = False) -> dict:
    """Merge independently built indexes into ONE index directory —
    the multi-node ingest shape: each node builds its own index over
    its shard of the corpus, then the shards merge.

    The merge itself is metadata-only (the scale contract): term files
    are hard-linked into the destination (copy fallback across
    filesystems), group records are re-keyed per source, stats are
    summed from the per-group partials, and tombstones union.  The
    only heavy work — re-sorting all postings into one globally
    term-sorted group — is optional (``compact=True``) and delegates
    to the existing distributed ``compact_groups``.

    Checked up front: identical build config across sources and
    doc-id disjointness (parquet-footer interval fast path; on interval
    overlap, an exact distributed duplicate check over the docmeta ids
    — one Ray count aggregate, never a driver set).  String-key indexes
    are refused: hashed ids can collide ACROSS sources and the keymap
    collision certificate is per-index.

    The reference has no analogue (its index is a single in-RAM trie,
    /root/reference/src/index.rs:19-33); this is the Ray-native
    replacement for "add the other node's documents one by one".
    """
    source_dirs = list(source_dirs)
    if len(source_dirs) < 2:
        raise ValueError("merge_indexes needs at least two sources")
    dest_real = os.path.realpath(dest_dir)
    for s in source_dirs:
        sreal = os.path.realpath(s)
        if dest_real == sreal or dest_real.startswith(sreal + os.sep) \
                or sreal.startswith(dest_real + os.sep):
            raise ValueError(
                f"destination {dest_dir} overlaps source {s}")
    mans = [Manifest(s) for s in source_dirs]
    for s, m in zip(source_dirs, mans):
        if not m.data["config"]:
            raise FileNotFoundError(f"no index at {s}")
        if m.data["config"].get("string_key"):
            raise ValueError(
                "merge_indexes does not support string-key indexes: "
                "hashed doc ids can collide across sources")
    cfg0 = mans[0].data["config"]
    for s, m in zip(source_dirs[1:], mans[1:]):
        for k in _MERGE_CFG_KEYS:
            if m.data["config"].get(k) != cfg0.get(k):
                raise ValueError(
                    f"config mismatch on {k!r}: {source_dirs[0]} has "
                    f"{cfg0.get(k)!r}, {s} has {m.data['config'].get(k)!r}")

    # --- doc-id disjointness ------------------------------------------
    ranges = [_docmeta_id_ranges(s) for s in source_dirs]
    spans = [(min(lo for lo, _ in r), max(hi for _, hi in r))
             for r in ranges if r]
    order = sorted(range(len(spans)), key=lambda i: spans[i])
    interval_ok = all(spans[order[i]][1] < spans[order[i + 1]][0]
                      for i in range(len(order) - 1))
    if not interval_ok:
        # exact check: one distributed count aggregate over docmeta ids
        import ray.data
        from ray.data.aggregate import Count

        from probly_search_ray.sources.readers import read_parquet_clean
        meta_files = [f for s in source_dirs for f in sorted(
            glob.glob(os.path.join(s, "docmeta", "*.parquet")))]
        def _dups_only(b):
            import pyarrow.compute as pc
            return b.filter(pc.greater(b["n"], 1))

        # vectorized filter: the aggregate is one row PER DOC — a
        # Python row filter here would walk the whole corpus
        dup = read_parquet_clean(meta_files, columns=["doc_id"]) \
            .groupby("doc_id").aggregate(Count(alias_name="n")) \
            .map_batches(_dups_only, batch_format="pyarrow").take(1)
        if dup:
            raise ValueError(
                f"duplicate doc_id across sources (e.g. {dup[0]['doc_id']})")

    # --- link files + build the one atomic manifest commit ------------
    if overwrite and os.path.exists(dest_dir):
        shutil.rmtree(dest_dir)
    if os.path.exists(os.path.join(dest_dir, "manifest.json")):
        raise ValueError(f"destination {dest_dir} already holds an index")
    os.makedirs(dest_dir, exist_ok=True)

    def _link(src: str, dst: str) -> None:
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        try:
            os.link(src, dst)
        except OSError:
            shutil.copy2(src, dst)

    records = {}
    tomb_ids = []
    input_files = []
    for si, (s, m) in enumerate(zip(source_dirs, mans)):
        for gid, rec in sorted(m.groups.items()):
            ngid = f"m{si:02d}-{gid}"
            nrec = dict(rec)
            nfiles = []
            for tf in rec["term_files"]:
                rel = os.path.join(
                    "terms", f"group={ngid}",
                    os.path.basename(tf["path"]))
                _link(os.path.join(s, tf["path"]),
                      os.path.join(dest_dir, rel))
                nfiles.append({**tf, "path": rel})
            nrec["term_files"] = nfiles
            nrec["merged_from"] = os.path.join(s, f"group={gid}")
            records[ngid] = nrec
            mp = os.path.join(s, "docmeta", f"group={gid}.parquet")
            if os.path.exists(mp):
                _link(mp, os.path.join(dest_dir, "docmeta",
                                       f"group={ngid}.parquet"))
        tomb_ids.extend(Tombstones(s).doc_ids)
        input_files.extend(m.data["config"].get("input_files", []))

    man = Manifest(dest_dir)
    cfg = dict(cfg0)
    cfg["input_files"] = input_files
    man.data["config"] = cfg
    man.commit_groups(records)  # ONE atomic write (config + all groups)
    Tombstones(dest_dir).add_many(tomb_ids)

    # --- stats from group partials (same contract as build_index,
    # incl. the add-path stale-avg quirk + tombstone-order replay) -----
    from probly_search_ray.build import finalize_stats
    finalize_stats(dest_dir, records, cfg["num_fields"])

    if compact:
        compact_groups(dest_dir)  # distributed re-sort + cache rebuild
    else:
        from probly_search_ray.search import build_csr_cache
        build_csr_cache(dest_dir)
    return man.data

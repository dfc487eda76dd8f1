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

The removal path (``remove_documents``, and ``replay_pending`` in an
engine) loads NumPy and the standard library only: docmeta is one
``docmeta/group=G.npz`` per group, read by ``np.load``, and pyarrow is
imported inside the jobs that rewrite term files.
"""

from __future__ import annotations

import glob
import os
import shutil

import numpy as np

from probly_search_ray.functions.codec import (
    blob_buffers, check_format_version, decode_rows, encode_rows)
from probly_search_ray.search import _in_sorted, _narrow
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


def _load_npz(path: str, prefix=()) -> dict:
    """The arrays of an npz file, or only those whose name starts with
    one of ``prefix`` (a string or a tuple of strings)."""
    with np.load(path) as z:
        return {c: z[c] for c in z.files if not prefix or c.startswith(prefix)}


# docmeta dir → {file: ((st_ino, st_mtime_ns, st_size), {"doc_id": sorted
# ids, "len_f": ...})}; a file's entry is re-read once its stat changes
_DOCMETA_MEMO: dict[str, dict] = {}
_DOCMETA_MEMO_DIRS = 8


def _docmeta_lengths(path: str, old):
    """A docmeta file's ``doc_id`` (sorted, unique) and ``len_*``
    arrays — ``old`` when the file is unchanged."""
    st = os.stat(path)
    key = (st.st_ino, st.st_mtime_ns, st.st_size)
    if old is not None and old[0] == key:
        return old
    return key, _load_npz(path, ("doc_id", "len_"))


def _docmeta_files(index_dir: str) -> list[dict]:
    """The ``doc_id`` and ``len_f`` arrays of each docmeta file
    (``docmeta/group=G.npz``), in file order, memoized per file: the
    removal lookup, the cache build, ``build._count_docs_le`` and
    merge's disjointness check read docmeta here.  The memo keeps only
    the current listing.  Parquet docmeta and no npz is an index of an
    older format: its rebuild error is raised (one manifest read, on
    that path only)."""
    meta_dir = os.path.join(index_dir, "docmeta")
    files = sorted(glob.glob(os.path.join(meta_dir, "*.npz")))
    if not files and glob.glob(os.path.join(meta_dir, "*.parquet")):
        check_format_version(index_dir, Manifest(index_dir).data["config"]
                             .get("format_version"))
    old = _DOCMETA_MEMO.pop(meta_dir, {})
    memo = _DOCMETA_MEMO[meta_dir] = {
        p: _docmeta_lengths(p, old.get(p)) for p in files}
    while len(_DOCMETA_MEMO) > _DOCMETA_MEMO_DIRS:
        del _DOCMETA_MEMO[next(iter(_DOCMETA_MEMO))]
    return [memo[p][1] for p in files]


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
    for m in _docmeta_files(index_dir):
        ids = m["doc_id"]
        lens = [m[f"len_{f}"] for f in range(len(m) - 1)]
        found = want[_in_sorted(want, ids)]
        for d, j in zip(found.tolist(), np.searchsorted(ids, found).tolist()):
            out[d] = [int(ln[j]) for ln in lens]
    return out


def docmeta_union(parts: list[dict], num_fields: int) -> dict:
    """The docmeta arrays ``parts`` (dicts of equal-length columns, one
    of them ``doc_id``) as one, ids sorted and unique: an id in several
    parts keeps its row of the last.  No parts: every column, empty."""
    if not parts:
        parts = [{"doc_id": np.empty(0, np.uint64), **{
            f"{c}_{f}": np.empty(0, np.uint32)
            for c in ("len", "tot", "hv") for f in range(num_fields)}}]
    cols = {c: np.concatenate([p[c] for p in parts]) for c in parts[0]}
    ids = cols["doc_id"]
    order = np.argsort(ids, kind="stable")
    s = ids[order]
    last = order[np.r_[s[1:] != s[:-1], True]] if len(s) else order
    return {c: a[last] for c, a in cols.items()}


def docmeta_table(index_dir: str, num_fields: int):
    """Every doc's field lengths: ``(sorted unique doc ids, [len_f])``
    over all docmeta files, a later file winning for an id in several
    (as in ``_docs_field_lengths``).  The serving cache's per-doc
    tables come from here."""
    u = docmeta_union(_docmeta_files(index_dir), num_fields)
    return u["doc_id"], [u[f"len_{f}"] for f in range(num_fields)]


def _save_npz(path: str, arrays: dict, compress: bool = False) -> None:
    """Write ``arrays`` to ``path`` (npz) by tmp + rename: a reader, or
    a retried writer of the same file, never sees half of it.  Only the
    stored docmeta is compressed: a build's temporary side files are
    not (zlib costs about 15 ms per 5,000 docs)."""
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "wb") as fh:
        (np.savez_compressed if compress else np.savez)(fh, **arrays)
    os.replace(tmp, path)


def _docmeta_path(index_dir: str, gid: str) -> str:
    return os.path.join(index_dir, "docmeta", f"group={gid}.npz")


def read_docmeta(index_dir: str, gid: str) -> dict | None:
    """Every docmeta column of group ``gid`` (None: the group has no
    docs)."""
    path = _docmeta_path(index_dir, gid)
    return _load_npz(path) if os.path.exists(path) else None


def write_docmeta(index_dir: str, gid: str, meta: dict | None) -> None:
    """Atomically replace ``docmeta/group=<gid>.npz`` with the arrays
    ``meta`` (ids sorted and unique; the other columns stored in the
    cache's narrowest-dtype rule), or remove it when ``meta`` holds no
    doc."""
    path = _docmeta_path(index_dir, gid)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if meta is not None and len(meta["doc_id"]):
        _save_npz(path, {c: a if c == "doc_id" else _narrow(a)
                         for c, a in meta.items()}, compress=True)
    elif os.path.exists(path):
        os.unlink(path)


class _Compactor:
    """map_batches stage: drop tombstoned postings from every blob.

    Vectorized like the query-side loader: ONE ``decode_rows`` pass
    over the batch's concatenated blob stream, one tombstone anti-join
    over all postings, one ``encode_rows`` re-encode in blocks of the
    index's ``block_postings`` — no per-term Python decode/encode loop
    (the same pattern whose query-side twin caused the round-1 p95
    blow-up)."""

    def __init__(self, tomb_sorted: np.ndarray, num_fields: int,
                 block_postings: int):
        self.tomb = tomb_sorted
        self.nf = num_fields
        self.block_postings = block_postings
        from probly_search_ray.functions.mem import tune_allocator
        tune_allocator()

    def __call__(self, batch):
        import pyarrow as pa

        from probly_search_ray.stages.segment import SEGMENT_SCHEMA
        nrows = len(batch)
        if nrows == 0:
            # build the empty table FROM the schema: the input batch can
            # carry a hive-inferred `group` partition column (read from
            # terms/group=G/...), which a cast() would reject
            return SEGMENT_SCHEMA.empty_table()
        docs, tfs, row_counts = decode_rows(
            *blob_buffers(batch["blob"].combine_chunks()), self.nf)
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
        lo_all = batch["doc_lo"].to_numpy().copy()
        hi_all = batch["doc_hi"].to_numpy().copy()
        if len(ki):
            df_all[ki] = np.add.reduceat(occ, rs)
            lo_all[ki] = docs_k[rs]
            hi_all[ki] = docs_k[rs + c - 1]
        return pa.table({
            "term": batch["term"],
            "doc_lo": pa.array(lo_all, type=pa.uint64()),
            "doc_hi": pa.array(hi_all, type=pa.uint64()),
            "df": pa.array(df_all, type=pa.uint64()),
            "first_pos": batch["first_pos"],
            "first_off": batch["first_off"],
            "blob": pa.array(blobs, type=pa.large_binary()),
        }, schema=SEGMENT_SCHEMA)


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


def _finish_compaction(index_dir: str, man: Manifest) -> None:
    """Complete the docmeta step of every committed compaction: a group
    record ``compacted_from`` other groups owns their docs, so those
    groups' docmeta files still on disk (a crash between
    ``compact_groups``' manifest commit and its docmeta write) are
    merged into the group's file and removed.  Until then readers,
    which take every docmeta file, see each doc; a re-run converges."""
    for gid, rec in sorted(man.groups.items()):
        rest = [g for g in rec.get("compacted_from", ())
                if g != gid and os.path.exists(_docmeta_path(index_dir, g))]
        if not rest:
            continue
        parts = [m for m in (read_docmeta(index_dir, g)
                             for g in [gid, *rest]) if m is not None]
        write_docmeta(index_dir, gid, docmeta_union(
            parts, man.data["config"]["num_fields"]))
        for g in rest:
            write_docmeta(index_dir, g, None)


def compact_groups(index_dir: str) -> int:
    """Merge ALL committed groups' term files into one globally sorted
    group (LSM-style compaction for append-heavy workflows): queries
    then load each term from one contiguous run instead of one fragment
    per group.  Results are invariant — rows are only re-sorted; the
    load-time merge (df sums, first_pos mins) is associative.

    Crash-safe like vacuum: the merged dir is written aside, ALL group
    records are swapped in ONE atomic manifest write (a partial swap
    would double-count postings), and only then are the groups' docmeta
    files merged into the first's (``_finish_compaction``, which a
    later vacuum or compaction re-runs after a crash) and old dirs
    deleted; group ids stay in the manifest with empty term_files so
    the build's resume contract (skip committed gids) is unchanged.

    Returns the number of groups merged (0 = nothing to do).
    """
    import ray.data

    from probly_search_ray.build import finalize_group
    from probly_search_ray.sources.readers import read_parquet_clean
    from probly_search_ray.stages.segment import SEGMENT_SCHEMA

    man = Manifest(index_dir)
    _gc_unreferenced_group_dirs(index_dir, man)
    _finish_compaction(index_dir, man)
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

    # the records come from the union; the files stay per group until
    # the swap (a union written before it would hold, for a crash in
    # between, docs the uncompacted records count again)
    meta = docmeta_union([m for m in (read_docmeta(index_dir, g)
                                      for g in gids) if m is not None], nf)
    first = dict(man.groups[gids[0]])
    first.update(finalize_group(index_dir, new_dir, meta))
    first["compact_gen"] = gen
    first["compacted_from"] = gids
    updates = {gids[0]: first}
    for g in gids[1:]:
        updates[g] = {**man.groups[g], "term_files": [], "term_rows": 0,
                      "term_bytes": 0, "num_docs": 0,
                      "field_len_sums": [0] * nf,
                      "field_last_val_doc": [-1] * nf, "doc_max": -1}
    man.commit_groups(updates)  # ONE atomic swap
    _finish_compaction(index_dir, man)
    for d in old_dirs:
        if os.path.normpath(d) != os.path.normpath(new_dir) \
                and os.path.exists(d):
            shutil.rmtree(d)
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
    _finish_compaction(index_dir, man)
    if len(tomb_arr) == 0:
        return
    from probly_search_ray.build import finalize_group
    cfg = man.data["config"]
    nf = cfg["num_fields"]
    for gid, rec in sorted(man.groups.items()):
        meta = read_docmeta(index_dir, gid)
        if meta is None:
            continue  # the group holds no doc: nothing to drop
        dead = _in_sorted(meta["doc_id"], tomb_arr)
        cur_files = sorted(os.path.join(index_dir, tf["path"])
                           for tf in rec["term_files"])
        if not (cur_files or dead.any()):
            continue
        meta = {c: a[~dead] for c, a in meta.items()}
        old_dirs = {os.path.dirname(f) for f in cur_files}
        gen = int(rec.get("vacuum_gen", 0)) + 1
        new_dir = os.path.join(index_dir, "terms", f"group={gid}.v{gen}")
        tmp_dir = new_dir + ".tmp"
        for d in (tmp_dir, new_dir):
            if os.path.exists(d):
                shutil.rmtree(d)
        if cur_files:  # a group whose docs have no terms has no files
            ds = read_parquet_clean(cur_files)
            # one vacuum pass is order-preserving per block; re-sort to
            # keep the term-sorted invariant across output files
            out = ds.map_batches(
                _Compactor(tomb_arr, nf, cfg["block_postings"]),
                batch_format="pyarrow")
            out = out.sort(["term", "doc_lo"])
            os.makedirs(tmp_dir, exist_ok=True)  # zero rows → no dir
            out.write_parquet(tmp_dir)
            os.replace(tmp_dir, new_dir)
        # refresh lineage: the group's term files and docmeta
        rec.update(finalize_group(index_dir, new_dir, meta))
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
    doc-id disjointness (one in-process ``np.unique`` over the
    sources' docmeta ids — the cache build that ends the merge holds
    every doc id in one process anyway).  String-key indexes
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
        check_format_version(s, m.data["config"].get("format_version"))
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
    u, n = np.unique(np.concatenate([docmeta_table(s, cfg0["num_fields"])[0]
                                     for s in source_dirs]),
                     return_counts=True)
    if (n > 1).any():
        raise ValueError(f"duplicate doc_id across sources (e.g. "
                         f"{int(u[n > 1][0])})")

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
            if "compacted_from" in rec:
                nrec["compacted_from"] = [f"m{si:02d}-{g}"
                                          for g in rec["compacted_from"]]
            records[ngid] = nrec
            mp = _docmeta_path(s, gid)
            if os.path.exists(mp):
                _link(mp, _docmeta_path(dest_dir, ngid))
        tomb_ids.extend(Tombstones(s).doc_ids)
        input_files.extend(m.data["config"].get("input_files", []))

    man = Manifest(dest_dir)
    cfg = dict(cfg0)
    cfg["input_files"] = input_files
    man.data["config"] = cfg
    man.commit_groups(records)  # ONE atomic write (config + all groups)
    _finish_compaction(dest_dir, man)  # a source's crashed compaction
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

"""Index maintenance: latent delete, vacuum, compaction and merge.

Reference semantics (``/root/reference/src/index.rs:160-241``):
- ``remove_document`` tombstones the key and *immediately* updates the
  corpus stats (sum -= field_length; avg = sum/(N-1); N -= 1) — queries
  exclude the doc from scoring and df from that moment.
- ``vacuum`` physically drops tombstoned postings, prunes terms left
  with no postings, and clears the tombstone set.

Here: tombstones + stats are tiny JSON state, and every group's
postings and docmeta are one segment file (``state/segments.py``).
``vacuum`` filters each affected group's segment in-process and
``compact_groups`` merges all groups' segments into one with the
build's own ``merge_segments``; neither starts Ray.  Each writes the
new segment under a new name, commits the manifest record that names
it, then unlinks the old file, so a crash at any point leaves a
manifest whose files exist, and a re-run (whose first step unlinks the
files no record names) converges.  ``first_pos`` values are preserved
for surviving terms — the reference's trie keeps node creation order
across vacuum, so expansion order must not change.

The removal path (``remove_documents``, and ``replay_pending`` in an
engine) loads NumPy and the standard library only: it reads the
manifest with ``json`` and each named segment's docmeta columns with
``np.load``, both memoized on file stat.
"""

from __future__ import annotations

import os
import shutil

import numpy as np

from probly_search_ray.functions.codec import check_format_version
from probly_search_ray.state.manifest import (
    Manifest, Stats, Tombstones, load_json)
from probly_search_ray.state.segments import (
    SEGMENTS_DIR, _in_sorted, drop_docs, load_npz, merge_segments,
    named_segments, read_segment, remove_unnamed, store_segment)


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


# index dir → (manifest stat, named segment paths, {path: ((st_ino,
# st_mtime_ns, st_size), {"doc_id": sorted ids, "len_f": ...})}); the
# manifest and each file are re-read once their stat changes
_DOCMETA_MEMO: dict[str, tuple] = {}
_DOCMETA_MEMO_DIRS = 8


def _stat_key(path: str) -> tuple:
    st = os.stat(path)
    return st.st_ino, st.st_mtime_ns, st.st_size


def _docmeta_lengths(path: str, old):
    """A segment's ``doc_id`` (sorted, unique) and ``len_*`` arrays —
    ``old`` when the file is unchanged."""
    key = _stat_key(path)
    if old is not None and old[0] == key:
        return old
    return key, load_npz(path, ("doc_id", "len_"))


def _docmeta_files(index_dir: str) -> list[dict]:
    """The ``doc_id`` and ``len_f`` arrays of each segment the manifest
    names, in group order, memoized: the removal lookup, the stats
    rank (``_count_docs_le``) and merge's disjointness check read
    docmeta here.  A file no record names (a group not committed yet,
    or an old file a crash left) is never read.  An index of another
    format gets its rebuild error."""
    mpath = os.path.join(index_dir, "manifest.json")
    if not os.path.exists(mpath):
        return []
    key = _stat_key(mpath)
    old = _DOCMETA_MEMO.pop(index_dir, None)
    if old is not None and old[0] == key:
        paths = old[1]
    else:
        man = load_json(mpath)
        check_format_version(index_dir,
                             man["config"].get("format_version"))
        paths = [os.path.join(index_dir, p)
                 for p in named_segments(man["groups"])]
    files = old[2] if old is not None else {}
    memo = {p: _docmeta_lengths(p, files.get(p)) for p in paths}
    _DOCMETA_MEMO[index_dir] = (key, paths, memo)
    while len(_DOCMETA_MEMO) > _DOCMETA_MEMO_DIRS:
        del _DOCMETA_MEMO[next(iter(_DOCMETA_MEMO))]
    return [memo[p][1] for p in paths]


def _docs_field_lengths(index_dir: str, doc_ids) -> dict[int, list[int]]:
    """Field lengths for a batch of doc ids: a binary search in each
    named segment's memoized id column, so a removal costs O(removed
    docs) once the files are read."""
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


def _count_docs_le(index_dir: str, doc_id: int) -> int:
    """Count docs with id <= doc_id (rare path: only needed when some
    field's last doc-with-values is not the corpus max, i.e. trailing
    docs with empty multi-value lists).  The named segments hold
    disjoint docs."""
    return sum(int(np.searchsorted(m["doc_id"], doc_id, "right"))
               for m in _docmeta_files(index_dir))


def stats_for(index_dir: str, groups: dict, num_fields: int) -> Stats:
    """Global stats from the group partials ``groups``, not saved
    (``build.finalize_stats`` and ``merge_indexes`` save them; an engine
    serves them while ``stats.json`` does not cover every group),
    reproducing the reference's add-path stale-avg quirk
    (src/index.rs:105-115): ``sum``
    accumulates every value's kept-token count, but ``avg`` is only
    assigned INSIDE the per-value loop — a doc whose accessor yields an
    EMPTY value list does not update it.  So after a pure sequence of
    adds, ``avg_f = sum_f / rank_f`` where ``rank_f`` is the 1-based
    position (in doc_id order, the engine's insertion-order model) of
    the last doc with >=1 value for field f — equal to N whenever the
    max doc has values (every single-value string corpus, where even
    empty text is one value), else a docmeta count.

    The quirk path applies only when NO tombstones exist (fresh
    builds, post-vacuum appends, clean merges) — there the whole
    history is adds and the replay is exact.  With live tombstones the
    true event order was adds → removes → appended adds, and the
    reference's append re-updates ``avg = sum/N`` for every field the
    new docs have values in (src/index.rs:112-113), so the aggregate
    subtract + sum/N is exact unless the appended docs ALSO have
    empty multi-value lists for a field — a corner of a corner where
    sum/N is the documented approximation.  (The remove-stale quirk
    when the LAST operation is a remove is handled incrementally by
    ``Stats.apply_remove`` at remove time, never by a rebuild — a
    resumed no-op build leaves stats.json untouched.)"""
    total_docs = sum(rec["num_docs"] for rec in groups.values())
    total_sums = np.zeros(num_fields, dtype=np.int64)
    for rec in groups.values():
        total_sums += np.asarray(rec["field_len_sums"], dtype=np.int64)
    tomb_ids = Tombstones(index_dir).doc_ids
    avgs = None
    if tomb_ids:
        lens_by_doc = _docs_field_lengths(index_dir, tomb_ids)
        for lens in lens_by_doc.values():
            total_sums -= np.asarray(lens, dtype=np.int64)
        total_docs -= len(lens_by_doc)
    elif bool(groups) and all("field_last_val_doc" in rec
                              and "doc_max" in rec
                              for rec in groups.values()):
        doc_max = max(rec["doc_max"] for rec in groups.values())
        avgs = []
        for f in range(num_fields):
            m = max(rec["field_last_val_doc"][f] for rec in groups.values())
            if m < 0:
                avgs.append(0.0)  # FieldDetails::default() avg
            elif m == doc_max:
                avgs.append(total_sums[f] / total_docs if total_docs
                            else 0.0)
            else:
                rank = _count_docs_le(index_dir, m)
                avgs.append(total_sums[f] / rank if rank else 0.0)
    stats = Stats(index_dir)
    stats.set_from_build(total_docs, list(total_sums), avgs,
                         tomb_applied=len(tomb_ids), groups=len(groups))
    return stats


def _manifest(index_dir: str) -> Manifest:
    """The index's manifest; an index of another format is refused."""
    man = Manifest(index_dir)
    if man.data["config"]:
        check_format_version(index_dir,
                             man.data["config"].get("format_version"))
    return man


def _replace_segment(index_dir: str, man: Manifest, records: dict,
                     old: list[str]) -> None:
    """Commit the group ``records`` in ONE manifest write, then unlink
    the segment files ``old`` that they replace.  A crash before the
    commit leaves the new file unnamed, one after it the old files;
    ``remove_unnamed`` clears either at the next build, vacuum or
    compaction."""
    man.commit_groups(records)
    for rel in old:
        os.unlink(os.path.join(index_dir, rel))


def compact_groups(index_dir: str) -> int:
    """Merge ALL committed groups' segments into one (LSM-style
    compaction for append-heavy workflows): queries then load each term
    from one contiguous run instead of one fragment per group.  Results
    are invariant — the merge (df sums, first_pos mins, postings by
    doc) is the cold load's own, and associative.  In-process.

    The merged segment is written under a new name, ALL group records
    are swapped in ONE atomic manifest write (a partial swap would
    double-count postings), and only then are the old files unlinked;
    group ids stay in the manifest without a segment so the build's
    resume contract (skip committed gids) is unchanged.

    Returns the number of groups merged (0 = nothing to do).
    """
    man = _manifest(index_dir)
    remove_unnamed(index_dir, man.groups)
    gids = sorted(g for g, rec in man.groups.items() if rec.get("segment"))
    if len(gids) <= 1:
        return 0
    nf = man.data["config"]["num_fields"]
    old = [man.groups[g]["segment"] for g in gids]
    seg = merge_segments([read_segment(os.path.join(index_dir, p))
                          for p in old], nf)
    gen = 1 + max(int(man.groups[g].get("gen", 0)) for g in gids)
    first = {**man.groups[gids[0]],
             **store_segment(index_dir, f"group={gids[0]}.c{gen}", seg),
             "gen": gen}
    updates = {gids[0]: first}
    for g in gids[1:]:
        updates[g] = {**man.groups[g], "segment": None, "num_docs": 0,
                      "field_len_sums": [0] * nf,
                      "field_last_val_doc": [-1] * nf, "doc_max": -1}
    _replace_segment(index_dir, man, updates, old)
    from probly_search_ray.search import build_csr_cache
    build_csr_cache(index_dir)  # next engine start is cache-warm
    return len(gids)


def vacuum(index_dir: str) -> None:
    """Drop tombstoned docs for good (``src/index.rs:193-241``):
    in-process, each group holding a tombstoned doc gets its segment
    filtered (``drop_docs``) and written as ``group=G.vN``, its record
    committed, and the old file unlinked; then the tombstones are
    cleared.  A group whose postings are vacuumed but whose docs are
    still listed as tombstones (a crash before the clear) serves the
    same results: those docs are in no segment, and the stats counted
    them already.  Stats first apply any tombstones a crashed removal
    left uncounted (``_replay_pending``); a re-run after a crash
    converges."""
    man = _manifest(index_dir)
    tomb = Tombstones(index_dir)
    stats = _replay_pending(index_dir, tomb)
    remove_unnamed(index_dir, man.groups)
    if not tomb.doc_ids:
        return
    tomb_arr = np.unique(np.asarray(tomb.doc_ids, dtype=np.uint64))
    for gid, rec in sorted(man.groups.items()):
        if not rec.get("segment"):
            continue
        path = os.path.join(index_dir, rec["segment"])
        if not _in_sorted(load_npz(path, "doc_id")["doc_id"],
                          tomb_arr).any():
            continue
        gen = int(rec.get("gen", 0)) + 1
        new = store_segment(index_dir, f"group={gid}.v{gen}",
                            drop_docs(read_segment(path), tomb_arr))
        _replace_segment(index_dir, man,
                         {gid: {**rec, **new, "gen": gen}},
                         [rec["segment"]])
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

    The merge itself is metadata-only (the scale contract): segment
    files are hard-linked into the destination (copy fallback across
    filesystems), group records are re-keyed per source, stats are
    summed from the per-group partials, and tombstones union.  The
    only heavy work — merging all postings into one group — is
    optional (``compact=True``) and delegates to ``compact_groups``.

    Checked up front: identical build config across sources and
    doc-id disjointness (one in-process ``np.unique`` over the docmeta
    ids of the sources' named segments — the cache build that ends the
    merge holds every doc id in one process anyway).  String-key indexes
    are refused: hashed ids can collide ACROSS sources and the keymap
    collision certificate is per-index.

    The reference has no analogue (its index is a single in-RAM trie,
    /root/reference/src/index.rs:19-33); this is the replacement for
    "add the other node's documents one by one".
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
    u, n = np.unique(np.concatenate([np.empty(0, np.uint64)] + [
        m["doc_id"] for s in source_dirs for m in _docmeta_files(s)]),
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

    os.makedirs(os.path.join(dest_dir, SEGMENTS_DIR), exist_ok=True)
    records = {}
    tomb_ids = []
    input_files = []
    for si, (s, m) in enumerate(zip(source_dirs, mans)):
        for gid, rec in sorted(m.groups.items()):
            ngid = f"m{si:02d}-{gid}"
            nrec = {**rec, "merged_from": os.path.join(s, f"group={gid}")}
            if rec.get("segment"):
                nrec["segment"] = os.path.join(SEGMENTS_DIR,
                                               f"group={ngid}.npz")
                src, dst = (os.path.join(s, rec["segment"]),
                            os.path.join(dest_dir, nrec["segment"]))
                try:
                    os.link(src, dst)
                except OSError:
                    shutil.copy2(src, dst)
            records[ngid] = nrec
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
    stats_for(dest_dir, records, cfg["num_fields"]).save()

    if compact:
        compact_groups(dest_dir)  # one group + cache rebuild
    else:
        from probly_search_ray.search import build_csr_cache
        build_csr_cache(dest_dir)
    return man.data

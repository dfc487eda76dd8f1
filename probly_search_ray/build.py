"""Ray-Data-native index build pipeline.

Pipeline shape (SURVEY.md §3.1 "Ray shape"):

    read_parquet(group files, columns=[key]+fields)      # prune at read
      → map_batches(extract+tokenize+count+encode)       # ONE fused stage,
                                                         # no shuffle
      → repartition(~2 blocks/CPU)                       # bound the sort's
                                                         # shuffle matrix
      → sort(["term", "doc_lo"])                         # THE one wide op:
                                                         # compact encoded
                                                         # rows, not raw
                                                         # occurrences
      → write_parquet(terms/group=G)                     # term-sorted shards
      → parallel finalize tasks                          # term ranges +
                                                         # docmeta + lineage

The input file list is split into *partition groups*; each group is
built and committed independently (manifest record with lineage +
metrics), which is what makes the build resumable: a rerun skips
committed groups.  Query actors merge groups at load time (df and
first_pos are decomposable: sum / min over per-group partials).

Skew: a hot term (stopword) contributes one dictionary row per input
*batch*, already holding a compressed block — group sizes in the sort
are bounded by #batches, not #docs, so no per-key salting is needed;
row payloads are capped by ``block_postings``.  The sort itself range-
partitions by value, so hot-term rows spread across output blocks.
"""

from __future__ import annotations

import glob as globmod
import os
import shutil
import time

import numpy as np
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray.data

from probly_search_ray.sources.readers import read_parquet_clean
from probly_search_ray.stages.segment import SegmentEncoder, read_docmeta_ipc
from probly_search_ray.state.manifest import Manifest, Stats, Tombstones


@ray.remote(num_cpus=1)
def _finalize_file(path: str, num_fields: int):
    """Per-output-file finalize: exact term range (files are term-sorted;
    footer stats can truncate strings, so read first/last row group) and
    doc-meta sentinel extraction (predicate pushdown skips everything
    else).  Runs as a Ray task so group finalize scales with cores."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from probly_search_ray.stages.segment import read_docmeta_ipc

    pf = pq.ParquetFile(path)
    nrg = pf.metadata.num_row_groups
    tmin = tmax = None
    if nrg and pf.metadata.num_rows:
        first = pf.read_row_group(0, columns=["term"])["term"]
        last = first if nrg == 1 else \
            pf.read_row_group(nrg - 1, columns=["term"])["term"]
        tmin = first[0].as_py()
        tmax = last[-1].as_py()
    rec = {"term_min": tmin, "term_max": tmax, "rows": pf.metadata.num_rows}
    frag = pads.dataset(path).to_table(filter=pads.field("term") == "")
    num_docs = 0
    sums = [0] * num_fields
    # add-path stale-avg quirk inputs (src/index.rs:112-113: avg only
    # updates inside the per-value loop): per field, the max doc_id
    # with >=1 VALUE, plus the file's max doc_id; -1 = none
    last_val_doc = [-1] * num_fields
    doc_max = -1
    meta = None
    if len(frag):
        tables = []
        for blob in frag["blob"].to_pylist():
            mt = read_docmeta_ipc(blob)
            tables.append(mt)
            num_docs += len(mt)
            ids = mt["doc_id"].to_numpy()
            if len(ids):
                doc_max = max(doc_max, int(ids.max()))
            for fi in range(num_fields):
                # corpus sums accumulate ALL values (tot), not the
                # stored last-value field_length (src/index.rs:112-114)
                sums[fi] += int(np.sum(mt[f"tot_{fi}"].to_numpy()))
                col = f"hv_{fi}"
                hv = mt[col].to_numpy().astype(bool) \
                    if col in mt.column_names else \
                    np.ones(len(ids), dtype=bool)
                if hv.any():
                    last_val_doc[fi] = max(last_val_doc[fi],
                                           int(ids[hv].max()))
        meta = ray.put(pa.concat_tables(tables))
    return rec, num_docs, sums, meta, last_val_doc, doc_max


def _count_docs_le(index_dir: str, doc_id: int) -> int:
    """Count docs with id <= doc_id — one predicate-pushdown read of the
    docmeta ids (rare path: only needed when some field's last
    doc-with-values is not the corpus max, i.e. trailing docs with
    empty multi-value lists)."""
    meta_dir = os.path.join(index_dir, "docmeta")
    files = sorted(globmod.glob(os.path.join(meta_dir, "*.parquet")))
    if not files:
        return 0
    # distinct ids, not rows: a crash between compact_groups' manifest
    # commit and its file cleanup leaves a doc's docmeta row twice
    ids = pads.dataset(files).to_table(
        columns=["doc_id"], filter=pads.field("doc_id") <= doc_id)["doc_id"]
    return len(np.unique(ids.to_numpy()))


def finalize_stats(index_dir: str, groups: dict, num_fields: int) -> None:
    """Global stats from group partials, reproducing the reference's
    add-path stale-avg quirk (src/index.rs:105-115): ``sum``
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
        from probly_search_ray.maintain import _docs_field_lengths
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
    Stats(index_dir).set_from_build(total_docs, list(total_sums), avgs)


class _FusedEncoder:
    """Actor-pool stage fusing the optional pre-transform (e.g. HTML
    extraction) with segment encoding — one pool, one pass."""

    def __init__(self, key_col, field_cols, tokenizer, block_postings,
                 pre_transform=None):
        self.pre = pre_transform
        self.enc = SegmentEncoder(key_col, field_cols, tokenizer=tokenizer,
                                  block_postings=block_postings)

    def __call__(self, batch):
        if self.pre is not None:
            batch = self.pre(batch)
        return self.enc(batch)


def _expand_paths(paths) -> list[str]:
    if isinstance(paths, str):
        paths = [paths]
    out = []
    for p in paths:
        if os.path.isdir(p):
            out.extend(sorted(globmod.glob(os.path.join(p, "**", "*.parquet"),
                                           recursive=True)))
        elif any(ch in p for ch in "*?["):
            out.extend(sorted(globmod.glob(p)))
        else:
            out.append(p)
    return out


def build_index(
    input_paths,
    index_dir: str,
    key_col: str = "doc_id",
    field_cols: list[str] | None = None,
    tokenizer: str = "whitespace",
    files_per_group: int = 64,
    batch_size: int = 4096,
    block_postings: int = 4096,
    concurrency=None,
    overwrite: bool = False,
    resume: bool = True,
    pre_transform=None,
    read_cols: list[str] | None = None,
    string_key: bool = False,
    warm_cache: bool = True,
) -> dict:
    """Build (or resume building) an index over Parquet inputs.

    Returns the manifest data.  Docs must carry unique ``key_col`` ids;
    insertion order (for reference-order parity) is ascending doc_id.

    ``string_key=True``: ``key_col`` holds string keys (urls) — the
    reference's generic ``T`` key (``src/index.rs:35``).  Each key is
    hashed to a deterministic uint64 doc_id inside the fused encode
    stage (no coordination), a (key, doc_id) sidecar is written per
    group (``state/keymap.py``), and results map back to keys via
    ``SearchEngine.keys_for`` / ``keymap.urls_for``.  Insertion order
    is then ascending *hash* order (deterministic; differentials add
    refmodel docs in the same order).
    """
    from probly_search_ray.functions.mem import tune_allocator
    tune_allocator()
    try:  # polars sorts the string dictionary noticeably faster
        from ray.data import DataContext
        DataContext.get_current().use_polars_sort = True
    except Exception:
        pass
    field_cols = field_cols or ["text"]
    if string_key:
        from probly_search_ray.state.keymap import add_doc_ids
        user_pre, user_key = pre_transform, key_col

        def pre_transform(b, _old=user_pre):  # noqa: F811
            if _old is not None:
                b = _old(b)
            return add_doc_ids(b, user_key)

        key_col = "doc_id"
    if overwrite and os.path.exists(index_dir):
        shutil.rmtree(index_dir)
    os.makedirs(index_dir, exist_ok=True)

    files = _expand_paths(input_paths)
    if not files:
        raise ValueError(f"no parquet inputs under {input_paths!r}")
    groups = [files[i:i + files_per_group]
              for i in range(0, len(files), files_per_group)]

    from probly_search_ray.functions.codec import FORMAT_VERSION
    man = Manifest(index_dir)
    if man.groups and man.data["config"].get("format_version") != FORMAT_VERSION:
        # stale on-disk format → full rebuild
        shutil.rmtree(index_dir)
        os.makedirs(index_dir, exist_ok=True)
        man = Manifest(index_dir)
    man.set_config({
        "format_version": FORMAT_VERSION,
        "string_key": bool(string_key),
        "orig_key_col": (user_key if string_key else key_col),
        "key_col": key_col, "field_cols": field_cols, "tokenizer": tokenizer,
        "num_fields": len(field_cols), "block_postings": block_postings,
        "batch_size": batch_size, "input_files": files,
        "files_per_group": files_per_group,
    })
    committed = man.committed_group_ids() if resume else set()
    # lineage guard: appending must never re-index a file that an
    # existing group (incl. merged "m##-*" groups) already covers —
    # positional gids alone can't see that, and silently double
    # indexing corrupts N / df / avgdl with no error at query time.
    committed_inputs = {f: g for g in committed
                        for f in man.groups[g].get("input_files", [])}

    built_any = False
    for gi, gfiles in enumerate(groups):
        gid = f"{gi:05d}"
        if gid in committed:
            if man.groups[gid].get("input_files") != gfiles:
                raise ValueError(
                    f"group {gid} was committed with input files "
                    f"{man.groups[gid].get('input_files')!r} but this run "
                    f"maps it to {gfiles!r} — group boundaries moved "
                    "(changed files_per_group or inserted files). "
                    "Append with the original list plus NEW files only, "
                    "or rebuild with overwrite=True.")
            continue
        clash = [f for f in gfiles if f in committed_inputs]
        if clash:
            raise ValueError(
                f"input file {clash[0]!r} is already indexed (group "
                f"{committed_inputs[clash[0]]}); append builds must pass "
                "only files not yet covered by a committed group, or "
                "rebuild with overwrite=True.")
        built_any = True
        t0 = time.perf_counter()
        out_dir = os.path.join(index_dir, "terms", f"group={gid}")
        tmp_dir = out_dir + ".tmp"
        if os.path.exists(tmp_dir):
            shutil.rmtree(tmp_dir)
        if os.path.exists(out_dir):
            shutil.rmtree(out_dir)

        if string_key:
            # (key, doc_id) sidecar for this group — same resume unit
            from probly_search_ray.state.keymap import write_keymap
            write_keymap(read_parquet_clean(gfiles, columns=[user_key]),
                         user_key, index_dir, group=gid)
        ds = read_parquet_clean(
            gfiles,
            columns=read_cols or (
                ([user_key] if string_key else [key_col]) + field_cols))
        # ONE fused stage: (extract →) tokenize+count+encode.  Stateless
        # task pool: setup is trivial, so tasks on Ray's long-lived
        # worker pool amortize per-process warmup just as well as actors
        # and reuse warm workers across build invocations.
        fused = _FusedEncoder(
            key_col=key_col, field_cols=field_cols, tokenizer=tokenizer,
            block_postings=block_postings, pre_transform=pre_transform)
        kwargs = {"concurrency": concurrency} if concurrency else {}
        rows = ds.map_batches(
            fused, batch_format="pyarrow", batch_size=batch_size,
            zero_copy_batch=True, **kwargs)
        # Coalesce before the sort: Ray's sort-map slices every input
        # block into one piece per output partition (blocks × partitions
        # objects) — with hundreds of encoder blocks that's tens of
        # thousands of tiny objects.  ~1 partition per CPU keeps the
        # shuffle matrix quadratic in CPUs, not in batches.
        nparts = max(16, 2 * int(ray.available_resources().get("CPU", 8)))
        rows = rows.repartition(nparts)
        rows = rows.sort(["term", "doc_lo"])
        rows.write_parquet(tmp_dir)
        os.replace(tmp_dir, out_dir)
        t_job = time.perf_counter() - t0

        # --- group finalize (parallel ray tasks): term ranges + doc-meta
        out_files = []
        for f in sorted(globmod.glob(os.path.join(out_dir, "*.parquet"))):
            if pq.ParquetFile(f).metadata.num_rows == 0:
                os.unlink(f)  # empty block from repartition padding
            else:
                out_files.append(f)
        meta_dir = os.path.join(index_dir, "docmeta")
        os.makedirs(meta_dir, exist_ok=True)
        results = ray.get([_finalize_file.remote(f, len(field_cols))
                           for f in out_files])
        term_files = []
        num_docs = 0
        sums = np.zeros(len(field_cols), dtype=np.int64)
        g_lvd = [-1] * len(field_cols)
        g_dmax = -1
        meta_refs = []
        n_rows = 0
        n_bytes = 0
        for f, (rec, nd, fsums, meta_ref, lvd, dmax) in zip(out_files,
                                                            results):
            rec["path"] = os.path.relpath(f, index_dir)
            term_files.append(rec)
            n_rows += rec["rows"]
            n_bytes += os.path.getsize(f)
            num_docs += nd
            sums += np.asarray(fsums, dtype=np.int64)
            g_lvd = [max(a, b) for a, b in zip(g_lvd, lvd)]
            g_dmax = max(g_dmax, dmax)
            if meta_ref is not None:
                meta_refs.append(meta_ref)
        if meta_refs:
            import pyarrow as pa
            meta_tables = ray.get(meta_refs)
            tmp = os.path.join(meta_dir, f"group={gid}.parquet.tmp")
            pq.write_table(pa.concat_tables(meta_tables), tmp)
            os.replace(tmp, os.path.join(meta_dir, f"group={gid}.parquet"))

        wall = time.perf_counter() - t0
        man.commit_group(gid, {
            "input_files": gfiles,
            "num_docs": int(num_docs),
            "field_len_sums": [int(s) for s in sums],
            "field_last_val_doc": [int(v) for v in g_lvd],
            "doc_max": int(g_dmax),
            "term_files": term_files,
            "term_rows": int(n_rows),
            "term_bytes": int(n_bytes),
            "wall_sec": round(wall, 3),
            "job_sec": round(t_job, 3),
            "finalize_sec": round(wall - t_job, 3),
            "docs_per_sec": round(num_docs / wall, 1) if wall > 0 else None,
        })

    # --- global stats from group partials (reference replay) -------------
    # The model is "all current docs added in doc_id order, then the
    # tombstoned docs removed in tombstone order" — exact for every
    # non-interleaved flow, incl. the add-path stale-avg quirk
    # (src/index.rs:112-113: a trailing doc whose accessor yields an
    # EMPTY value list leaves that field's avg stale) via the per-group
    # field_last_val_doc/doc_max partials.  The remove-stale quirk only
    # survives when the last operation was a remove — which is why a
    # resumed no-op build leaves stats.json untouched.
    stats = Stats(index_dir)
    if built_any or not os.path.exists(stats.path):
        finalize_stats(index_dir, man.groups, len(field_cols))
    Tombstones(index_dir)  # touch
    if warm_cache:
        # pre-decode into the full-range mmap cache (one Ray task per
        # term file, default ON) so the FIRST serving engine starts in
        # milliseconds instead of paying the cold whole-index decode;
        # any shard layout slices the full-range cache
        from probly_search_ray.search import build_csr_cache
        build_csr_cache(index_dir)
    return man.data

"""Ray-Data-native index build pipeline.

Pipeline shape (SURVEY.md §3.1 "Ray shape"):

    read_parquet(group files, columns=[key]+fields)      # prune at read
      → map_batches(extract+tokenize+count+encode)       # ONE fused stage,
                                                         # no shuffle; each
                                                         # batch's docmeta
                                                         # goes to a side
                                                         # file
      → iter_batches(one block at a time)                # the driver decodes
                                                         # each encoder block
                                                         # once, as it streams
                                                         # in
      → merge_segments + side files (in-process)         # ONE segment file,
                                                         # group=G.npz, +
                                                         # its manifest record
      → build_csr_cache (in-process)                     # the serving cache

The input file list is split into *partition groups*; each group is
built and committed independently (manifest record with lineage +
metrics), which is what makes the build resumable: a rerun skips
committed groups.  Query actors merge groups at load time (df and
first_pos are decomposable: sum / min over per-group partials).

No shuffle: the encoders tokenize, count and compress in parallel, and
the driver merges the group's per-batch rows (one per term and batch)
into the segment, so its memory grows with one group's postings
(``files_per_group`` bounds a group).  A term's rows are joined in
order of their first doc id; only the terms whose batches' doc ranges
overlap (hashed string keys) are doc-sorted.
"""

from __future__ import annotations

import glob as globmod
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from probly_search_ray.functions.codec import (
    FORMAT_VERSION, blob_buffers, check_format_version, decode_rows)
from probly_search_ray.maintain import stats_for
from probly_search_ray.sources.readers import read_parquet_clean
from probly_search_ray.stages.segment import SegmentEncoder
from probly_search_ray.state.manifest import Manifest, Stats, Tombstones
from probly_search_ray.state.segments import (
    SEGMENTS_DIR, docmeta_union, empty_segment, load_npz, merge_segments,
    remove_unnamed, save_npz, store_segment)


def _block_segment(block: pa.Table, num_fields: int) -> dict:
    """One block of encoder rows as a segment piece: the blobs decoded
    once, one entry per row (the rows of a term from several encoder
    batches stay separate entries; ``merge_segments`` joins them)."""
    docs, tfs, rc = decode_rows(*blob_buffers(pc.cast(
        block["blob"], pa.large_binary()).combine_chunks()), num_fields)
    return {"terms": block["term"].to_pylist(),
            "df": block["df"].to_numpy(),
            "first_pos": block["first_pos"].to_numpy(),
            "first_off": block["first_off"].to_numpy(),
            "post_off": np.r_[0, np.cumsum(rc)], "p_doc": docs,
            "p_tf": tfs, "meta": None}


def _merge_side_files(meta_dir: str, num_fields: int) -> dict:
    """The group's docmeta from its encoders' side files: a doc in two
    (a retried batch split another way) counts once."""
    return docmeta_union([load_npz(p) for p in sorted(
        globmod.glob(os.path.join(meta_dir, "*.npz")))], num_fields)


def finalize_stats(index_dir: str, groups: dict, num_fields: int) -> None:
    """Write ``stats.json`` from the group partials ``groups``
    (``maintain.stats_for``)."""
    stats_for(index_dir, groups, num_fields).save()


class _FusedEncoder:
    """Actor-pool stage fusing the optional pre-transform (e.g. HTML
    extraction) with segment encoding — one pool, one pass.  It returns
    the segment rows and writes the batch's docmeta to ``meta_dir`` as a
    side file named by the batch's doc ids, so a retried task rewrites
    its own file; the build merges the files (``docmeta_union``)."""

    def __init__(self, key_col, field_cols, tokenizer, block_postings,
                 meta_dir, pre_transform=None):
        self.pre = pre_transform
        self.meta_dir = meta_dir
        self.enc = SegmentEncoder(key_col, field_cols, tokenizer=tokenizer,
                                  block_postings=block_postings)

    def __call__(self, batch):
        if self.pre is not None:
            batch = self.pre(batch)
        rows, meta = self.enc(batch)
        ids = meta["doc_id"]
        if len(ids):
            save_npz(os.path.join(self.meta_dir, f"{int(ids.min())}-"
                                  f"{int(ids.max())}-{len(ids)}.npz"), meta,
                     compress=False)
        return rows


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
    An existing index of another posting format is not appended to (a
    ``ValueError``): rebuild it with ``overwrite=True``.

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

    man = Manifest(index_dir)
    if man.groups:  # appending: never mix posting formats in one index
        check_format_version(index_dir,
                             man.data["config"].get("format_version"))
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

    # the new file of a build that crashed before its commit, or the
    # old one of a rebuild that crashed after it
    remove_unnamed(index_dir, man.groups)
    if not resume and any(f"{gi:05d}" in man.groups
                          for gi in range(len(groups))):
        # rebuilt groups commit one by one: until the stats below are
        # written, an engine computes them from the records
        Stats(index_dir).uncover()
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
        # a rebuilt group's file takes a new name (``gen`` counts the
        # group's segment writes, none reuses a name): the serving
        # cache and an engine's refresh key on the names
        old = man.groups.get(gid)
        gen = int(old.get("gen", 0)) + 1 if old else 0
        name = f"group={gid}" + (f".b{gen}" if gen else "")
        # the encoders' docmeta side files, merged at finalize
        side_dir = os.path.join(index_dir, SEGMENTS_DIR, name + ".side")
        if os.path.exists(side_dir):
            shutil.rmtree(side_dir)
        os.makedirs(side_dir)

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
            block_postings=block_postings, meta_dir=side_dir,
            pre_transform=pre_transform)
        kwargs = {"concurrency": concurrency} if concurrency else {}
        rows = ds.map_batches(
            fused, batch_format="pyarrow", batch_size=batch_size,
            zero_copy_batch=True, **kwargs)
        F = len(field_cols)
        pieces = [_block_segment(b, F) for b in rows.iter_batches(
            batch_size=None, batch_format="pyarrow") if len(b)]
        t_job = time.perf_counter() - t0

        # --- group finalize: one segment (postings + docmeta) + lineage
        pieces.append(empty_segment(F, _merge_side_files(side_dir, F)))
        rec = store_segment(index_dir, name, merge_segments(pieces, F))
        shutil.rmtree(side_dir)
        wall = time.perf_counter() - t0
        man.commit_group(gid, {
            "input_files": gfiles,
            **rec,
            "wall_sec": round(wall, 3),
            "job_sec": round(t_job, 3),
            "finalize_sec": round(wall - t_job, 3),
            "docs_per_sec": (round(rec["num_docs"] / wall, 1) if wall > 0
                             else None),
            "gen": gen,
        })
        if old and old.get("segment"):
            os.unlink(os.path.join(index_dir, old["segment"]))

    # --- global stats from group partials (reference replay) -------------
    # The model is "all current docs added in doc_id order, then the
    # tombstoned docs removed in tombstone order" — exact for every
    # non-interleaved flow, incl. the add-path stale-avg quirk
    # (src/index.rs:112-113: a trailing doc whose accessor yields an
    # EMPTY value list leaves that field's avg stale) via the per-group
    # field_last_val_doc/doc_max partials.  The remove-stale quirk only
    # survives when the last operation was a remove — which is why a
    # resumed no-op build leaves stats.json untouched.
    # A build that crashed between a group's commit and this write left
    # stats that do not count every committed group: a re-run writes
    # them (an engine meanwhile computes them in memory)
    if built_any or not Stats(index_dir).covers(man.groups):
        finalize_stats(index_dir, man.groups, len(field_cols))
    Tombstones(index_dir)  # touch
    if warm_cache:
        # pre-decode into the mmap cache (default ON) so the FIRST
        # serving engine starts in milliseconds instead of paying the
        # cold whole-index decode; every doc shard filters the one cache
        from probly_search_ray.search import build_csr_cache
        build_csr_cache(index_dir)
    return man.data

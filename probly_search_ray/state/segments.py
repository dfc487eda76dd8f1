"""Per-group segment files: the index's one on-disk copy of postings
and docmeta (format v7).

Each committed group's manifest record names one file,
``segments/group=G[.bN|.vN|.cN].npz`` (written by a rebuild, a vacuum
or a compaction; N is the record's ``gen``, which every write of the
group's segment raises, so no name is written twice), and no reader
takes a file that no record names.  A segment is a zlib-compressed npz of:

    term_bytes, term_lens    the group's sorted term dictionary, as
                             concatenated utf8 and byte lengths
    df                       occurrence-counted df per term
                             (src/index.rs:281-297); 0 for a vacuum
                             witness, a term whose every posting was
                             vacuumed (kept: its first occurrence keeps
                             the trie's creation order, src/index.rs:193-241)
    first_pos, first_off     each term's first occurrence, (doc id,
                             within-doc offset)
    post_n                   postings per term, in dictionary order
    p_doc                    posting doc ids, sorted within each term
                             and delta-coded (a term's first is absolute)
    p_tf_f                   per-field term frequency of each posting
    doc_id, len_f, tot_f,    the group's docmeta, one row per doc, ids
    hv_f                     sorted and unique (``SegmentEncoder``)

Integer columns are stored in their narrowest unsigned dtype.  In
memory a segment is a dict of ``terms`` (a list of str), ``df`` (int64),
``first_pos`` (uint64), ``first_off`` (uint32), ``post_off`` (int64,
one more than terms), ``p_doc`` (uint64), ``p_tf`` (one array per
field) and ``meta`` (the docmeta columns, or None for a build's piece
without docs).  ``merge_segments`` is the one merge: the build's group
finalize, ``compact_groups`` and the serving cache's cold load use it.

Only NumPy and the standard library are imported: the removal path
reads docmeta here, and ``np.load`` of an npz decompresses only the
members it is asked for.
"""

from __future__ import annotations

import os
import zipfile

import numpy as np

from probly_search_ray.functions.codec import grouped_arange

SEGMENTS_DIR = "segments"
# zlib level 1: about 7% larger than the default level 6 on the
# benchmark's index and about 4x faster to write
_ZLIB_LEVEL = 1


def _narrow(a: np.ndarray) -> np.ndarray:
    """``a`` in the narrowest unsigned dtype that holds its max: the one
    width rule of stored tf, length and count arrays."""
    vmax = int(a.max()) if len(a) else 0
    for dt in (np.uint8, np.uint16, np.uint32):
        if vmax <= np.iinfo(dt).max:
            return a.astype(dt, copy=False)
    return a.astype(np.uint64, copy=False)


def _find_sorted(values: np.ndarray, sorted_arr: np.ndarray):
    """Insertion positions of values in a sorted array, and whether
    each value is there — one ``searchsorted``."""
    if not len(sorted_arr):
        return (np.zeros(len(values), dtype=np.int64),
                np.zeros(len(values), dtype=bool))
    idx = np.searchsorted(sorted_arr, values)
    return idx, sorted_arr[np.minimum(idx, len(sorted_arr) - 1)] == values


def _in_sorted(values: np.ndarray, sorted_arr: np.ndarray) -> np.ndarray:
    """Membership of values in a sorted array (vectorized anti-join)."""
    return _find_sorted(values, sorted_arr)[1]


def save_npz(path: str, arrays: dict, compress: bool = True) -> None:
    """Write ``arrays`` to ``path`` (npz) by tmp + rename: a reader, or
    a retried writer of the same file, never sees half of it."""
    tmp = f"{path}.{os.getpid()}.tmp"
    with zipfile.ZipFile(tmp, "w", zipfile.ZIP_DEFLATED if compress
                         else zipfile.ZIP_STORED,
                         compresslevel=_ZLIB_LEVEL if compress else None) \
            as zf:
        for name, a in arrays.items():
            with zf.open(name + ".npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, np.asanyarray(a),
                                          allow_pickle=False)
    os.replace(tmp, path)


def load_npz(path: str, prefix=()) -> dict:
    """The arrays of an npz file, or only those whose name starts with
    one of ``prefix`` (a string or a tuple of strings)."""
    with np.load(path) as z:
        return {c: z[c] for c in z.files if not prefix or c.startswith(prefix)}


def empty_segment(num_fields: int, meta: dict | None = None) -> dict:
    """A segment without terms, holding the docmeta ``meta`` (None:
    every docmeta column, empty)."""
    if meta is None:
        meta = {"doc_id": np.empty(0, np.uint64), **{
            f"{c}_{f}": np.empty(0, np.uint32)
            for c in ("len", "tot", "hv") for f in range(num_fields)}}
    return {"terms": [], "df": np.empty(0, np.int64),
            "first_pos": np.empty(0, np.uint64),
            "first_off": np.empty(0, np.uint32),
            "post_off": np.zeros(1, np.int64),
            "p_doc": np.empty(0, np.uint64),
            "p_tf": [np.empty(0, np.uint32)] * num_fields, "meta": meta}


def docmeta_union(parts: list[dict], num_fields: int) -> dict:
    """The docmeta arrays ``parts`` (dicts of equal-length columns, one
    of them ``doc_id``) as one, ids sorted and unique: an id in several
    parts keeps its row of the last.  No parts: every column, empty."""
    parts = parts or [empty_segment(num_fields)["meta"]]
    cols = {c: np.concatenate([p[c] for p in parts]) for c in parts[0]}
    ids = cols["doc_id"]
    order = np.argsort(ids, kind="stable")
    s = ids[order]
    last = order[np.r_[s[1:] != s[:-1], True]] if len(s) else order
    return {c: a[last] for c, a in cols.items()}


def merge_segments(segs: list[dict], num_fields: int) -> dict:
    """One segment from ``segs``: the union dictionary with df summed
    and ``(first_pos, first_off)`` the lexicographic min over the
    entries of a term, each term's postings concatenated in the order
    of their entries' first doc ids, and docmeta unioned.  An input may
    hold a term more than once (a build piece holds one entry per
    encoder batch).  A term's postings are sorted by doc only where
    its entries' doc ranges overlap (hashed string keys); the inputs
    hold disjoint docs."""
    segs = segs or [empty_segment(num_fields)]
    terms = [t for s in segs for t in s["terms"]]
    uniq = sorted(set(terms))
    pos = {t: i for i, t in enumerate(uniq)}
    inv = np.fromiter((pos[t] for t in terms), np.int64, count=len(terms))

    def cat(k, dt=None):
        return np.concatenate([np.asarray(s[k], dt) for s in segs])
    df, fps, fos = (cat("df", np.int64), cat("first_pos", np.uint64),
                    cat("first_off", np.uint32))
    n = np.concatenate([np.diff(s["post_off"]) for s in segs])
    src = np.cumsum(n) - n      # each entry's first posting
    p_doc = cat("p_doc", np.uint64)
    # entries by term, then by their first doc (an entry without
    # postings, a vacuum witness, adds none)
    lead = (p_doc[np.minimum(src, len(p_doc) - 1)] if len(p_doc)
            else np.zeros(len(n), np.uint64))
    order = np.lexsort((lead, inv))
    st = np.flatnonzero(np.r_[True, inv[order][1:] != inv[order][:-1]]) \
        if len(order) else np.empty(0, np.int64)
    run = np.diff(np.r_[st, len(order)])
    df, fps, fos, n, src = (a[order] for a in (df, fps, fos, n, src))
    first_pos = np.minimum.reduceat(fps, st) if len(st) else fps
    first_off = (np.minimum.reduceat(np.where(
        fps == np.repeat(first_pos, run), fos, np.uint32(0xFFFFFFFF)), st)
        if len(st) else fos).astype(np.uint32)
    term_n = np.add.reduceat(n, st) if len(st) else n
    post_off = np.r_[0, np.cumsum(term_n)].astype(np.int64)
    sel = np.repeat(src, n) + grouped_arange(n)
    p_doc = p_doc[sel]
    p_tf = [np.concatenate([s["p_tf"][f] for s in segs])[sel]
            for f in range(num_fields)]
    tid = np.repeat(np.arange(len(uniq)), term_n)
    down = np.flatnonzero(p_doc[1:] < p_doc[:-1])
    down = down[tid[down] == tid[down + 1]]
    if len(down):
        # only the postings of terms whose inputs' doc ranges overlap
        m = np.isin(tid, tid[down])
        idx = np.flatnonzero(m)
        idx = idx[np.lexsort((p_doc[idx], tid[idx]))]
        p_doc[m] = p_doc[idx]
        for t in p_tf:
            t[m] = t[idx]
    return {"terms": uniq,
            "df": np.add.reduceat(df, st) if len(st) else df,
            "first_pos": first_pos, "first_off": first_off,
            "post_off": post_off, "p_doc": p_doc, "p_tf": p_tf,
            "meta": docmeta_union([s["meta"] for s in segs
                                   if s.get("meta") is not None],
                                  num_fields)}


def drop_docs(seg: dict, docs: np.ndarray) -> dict:
    """``seg`` without the postings and docmeta rows of the doc ids
    ``docs`` (sorted): df is recounted over the surviving postings, and
    a term left with none stays as a df-0 witness with its first
    occurrence (the reference's vacuum keeps node creation order,
    src/index.rs:193-241)."""
    keep = ~_in_sorted(seg["p_doc"], docs)
    tid = np.repeat(np.arange(len(seg["terms"])), np.diff(seg["post_off"]))
    nt = len(seg["terms"])
    occ = sum(t[keep].astype(np.int64) for t in seg["p_tf"])
    meta = seg["meta"]
    live = ~_in_sorted(meta["doc_id"], docs)
    return {**seg,
            "df": np.bincount(tid[keep], weights=occ, minlength=nt)
            .astype(np.int64),
            "post_off": np.r_[0, np.cumsum(np.bincount(
                tid[keep], minlength=nt))].astype(np.int64),
            "p_doc": seg["p_doc"][keep],
            "p_tf": [t[keep] for t in seg["p_tf"]],
            "meta": {c: a[live] for c, a in meta.items()}}


def write_segment(path: str, seg: dict) -> None:
    """Store ``seg`` at ``path`` (see the module docstring)."""
    enc = [t.encode() for t in seg["terms"]]
    off = seg["post_off"]
    d = seg["p_doc"].copy()
    d[1:] -= seg["p_doc"][:-1]
    first = off[:-1][np.diff(off) > 0]
    d[first] = seg["p_doc"][first]
    arrays = {"term_bytes": np.frombuffer(b"".join(enc), np.uint8),
              "term_lens": np.fromiter(map(len, enc), np.int64,
                                       count=len(enc)),
              "df": seg["df"], "first_pos": seg["first_pos"],
              "first_off": seg["first_off"], "post_n": np.diff(off),
              "p_doc": d}
    arrays.update((f"p_tf_{f}", t) for f, t in enumerate(seg["p_tf"]))
    arrays.update(seg["meta"])
    save_npz(path, {c: a if c == "doc_id" else _narrow(np.asarray(a))
                    for c, a in arrays.items()})


def read_segment(path: str) -> dict:
    """The segment stored at ``path``, in memory (module docstring)."""
    z = load_npz(path)
    raw = z.pop("term_bytes").tobytes()
    lens = z.pop("term_lens").astype(np.int64)
    ends = np.cumsum(lens).tolist()
    terms = [raw[e - n:e].decode() for e, n in zip(ends, lens.tolist())]
    n = z.pop("post_n").astype(np.int64)
    post_off = np.r_[0, np.cumsum(n)].astype(np.int64)
    # segmented cumsum (wrapping uint64 sums stay exact mod 2**64)
    d = z.pop("p_doc").astype(np.uint64)
    cs = np.cumsum(d)
    first = post_off[:-1][n > 0]
    base = np.zeros(len(terms), np.uint64)
    base[n > 0] = cs[first] - d[first]
    p_doc = cs - np.repeat(base, n)
    nf = sum(c.startswith("p_tf_") for c in z)
    return {"terms": terms, "df": z.pop("df").astype(np.int64),
            "first_pos": z.pop("first_pos").astype(np.uint64),
            "first_off": z.pop("first_off").astype(np.uint32),
            "post_off": post_off, "p_doc": p_doc,
            "p_tf": [z.pop(f"p_tf_{f}") for f in range(nf)], "meta": z}


def store_segment(index_dir: str, name: str, seg: dict) -> dict:
    """Write ``seg`` as ``segments/<name>.npz`` and return the group
    record's fields it determines: ``segment`` (the path relative to
    the index), ``num_docs``, ``field_len_sums`` and the add-path
    stale-avg quirk inputs (src/index.rs:112-113: avg only updates
    inside the per-value loop), ``field_last_val_doc`` (per field, the
    max doc_id with >=1 VALUE) and ``doc_max``; -1 = none."""
    rel = os.path.join(SEGMENTS_DIR, name + ".npz")
    os.makedirs(os.path.join(index_dir, SEGMENTS_DIR), exist_ok=True)
    write_segment(os.path.join(index_dir, rel), seg)
    meta = seg["meta"]
    ids = meta["doc_id"]
    nf = len(seg["p_tf"])
    hvs = [meta[f"hv_{f}"].astype(bool) for f in range(nf)]
    return {"segment": rel, "num_docs": len(ids),
            # corpus sums accumulate ALL values (tot), not the stored
            # last-value field_length (src/index.rs:112-114)
            "field_len_sums": [int(meta[f"tot_{f}"].sum(dtype=np.int64))
                               for f in range(nf)],
            "field_last_val_doc": [int(ids[hv].max()) if hv.any() else -1
                                   for hv in hvs],
            "doc_max": int(ids.max()) if len(ids) else -1}


def named_segments(groups: dict) -> list[str]:
    """The segment paths (relative to the index) that the manifest's
    group records ``groups`` name, in group order."""
    return [rec["segment"] for _, rec in sorted(groups.items())
            if rec.get("segment")]


def remove_unnamed(index_dir: str, groups: dict) -> None:
    """Unlink the files under ``segments/`` that no record of
    ``groups`` names: the new file of an op that crashed before its
    manifest commit, or the old one of an op that crashed after it.
    A build's side-file dirs are its own to clear."""
    root = os.path.join(index_dir, SEGMENTS_DIR)
    if not os.path.isdir(root):
        return
    named = {os.path.basename(p) for p in named_segments(groups)}
    for f in os.listdir(root):
        if f not in named and os.path.isfile(os.path.join(root, f)):
            os.unlink(os.path.join(root, f))

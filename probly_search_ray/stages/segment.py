"""Segment encoding stage: the heart of the index build.

One ``map_batches`` call turns a batch of documents into *segment
dictionary rows*: per distinct term in the batch, one row carrying a
docID-sorted delta+varint posting block set for the docs of this batch,
plus one sentinel row (``term == ""``) carrying the batch's doc-meta
(field lengths) as Arrow IPC bytes.  ``""`` can never collide with a
real term because the reference drops empty tokens
(``/root/reference/src/index.rs:100-110``).

This replaces the reference's one-doc-at-a-time trie mutation
(``src/index.rs:77-158``) with a fully vectorized, shuffle-free local
build; the only wide operation in the whole index build is the later
sort of these compact rows by ``(term, doc_lo)``.

Semantics preserved exactly (validated by differential tests):
- empty-token filtering (``src/index.rs:100-110``)
- per-field term frequencies and field lengths (``src/index.rs:86-116``)
- occurrence-counted df: ``df = sum(occ)`` where ``occ`` is the number
  of postings the reference would have created — one per occurrence
  (``src/index.rs:119-157``, ``src/index.rs:281-297``)
- ``(first_pos, first_off)`` = the term's first occurrence in the
  reference's insertion stream (docs in ascending doc_id order, fields
  in order, tokens in order): the doc id and the capped (< 2^20)
  within-doc offset — used to reconstruct the reference's trie-DFS
  expansion order at query time (``src/query.rs:130-147``).

Scale notes: stateless w.r.t. the corpus (safe task retries); vocab and
postings per batch bounded by batch size; no Python loop over rows —
the per-batch work is numpy/Arrow kernels plus one vectorized varint
pass.  The occurrence key is the (doc_id, offset) PAIR, combined into
an arbitrary-precision Python int only at expansion time: a packed
``doc_id << 20 | pos`` uint64 wraps for doc ids >= 2^44 (hashed string
keys are full-range) and the wrap scrambles cross-doc order; per-doc
positions past 2^20-1 cap and tie-break deterministically (term asc).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from probly_search_ray.functions.codec import encode_many, varint_byte_lengths
from probly_search_ray.functions.tokenize import get_tokenizer

POS_BITS = 20
POS_MASK = (1 << POS_BITS) - 1

SEGMENT_SCHEMA = pa.schema([
    ("term", pa.string()),
    ("doc_lo", pa.uint64()),
    ("doc_hi", pa.uint64()),
    ("df", pa.uint64()),
    ("first_pos", pa.uint64()),
    ("first_off", pa.uint32()),
    ("blob", pa.large_binary()),
])


def _grouped_arange(lengths: np.ndarray) -> np.ndarray:
    """[0..l0), [0..l1), ... concatenated."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)


def docmeta_ipc(doc_ids: np.ndarray, lens: list[np.ndarray],
                tots: list[np.ndarray] | None = None,
                hvs: list[np.ndarray] | None = None) -> bytes:
    """Per-doc metadata: ``len_f`` is the reference's stored
    ``field_length`` (LAST value's kept-token count for multi-value
    fields, src/index.rs:114 — used for BM25 normalization and the
    remove-path stat subtraction); ``tot_f`` is the total kept-token
    count over all values (what ``fields[i].sum`` accumulates,
    src/index.rs:112).  They coincide for single-value fields.
    ``hv_f`` records whether the doc's accessor yielded ≥1 VALUE for
    the field (``vlen > 0`` — 1 for every doc of a single-value string
    column, even empty text): the reference updates ``fields[i].avg``
    only inside the per-value loop (src/index.rs:112-113), so a doc
    with an EMPTY value list leaves avg stale — ``hv_f`` is what lets
    the build finalize reproduce that stale avg exactly."""
    cols = {"doc_id": pa.array(doc_ids.astype(np.uint64), type=pa.uint64())}
    for f, ln in enumerate(lens):
        cols[f"len_{f}"] = pa.array(ln.astype(np.uint32), type=pa.uint32())
    for f, t in enumerate(tots if tots is not None else lens):
        cols[f"tot_{f}"] = pa.array(t.astype(np.uint32), type=pa.uint32())
    nf = len(lens)
    for f in range(nf):
        hv = hvs[f] if hvs is not None else \
            np.ones(len(doc_ids), dtype=np.uint8)
        cols[f"hv_{f}"] = pa.array(hv.astype(np.uint8), type=pa.uint8())
    table = pa.table(cols)
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table)
    return sink.getvalue().to_pybytes()


def read_docmeta_ipc(blob: bytes) -> pa.Table:
    return pa.ipc.open_stream(pa.BufferReader(blob)).read_all()


class SegmentEncoder:
    """Callable class for ``map_batches`` (actor pool): tokenizer setup
    happens once per actor (ST-pattern), encoding per batch."""

    def __init__(self, key_col: str, field_cols: list[str],
                 tokenizer="whitespace", block_postings: int = 4096):
        from probly_search_ray.functions.mem import tune_allocator
        tune_allocator()
        self.key_col = key_col
        self.field_cols = list(field_cols)
        self.tok = get_tokenizer(tokenizer)
        self.block_postings = int(block_postings)

    def __call__(self, batch: pa.Table) -> pa.Table:
        F = len(self.field_cols)
        doc_ids = batch[self.key_col].to_numpy().astype(np.uint64)
        B = len(doc_ids)
        if B == 0:
            return SEGMENT_SCHEMA.empty_table()

        # --- tokenize each field, flatten, drop empty tokens -------------
        # Fields may be string columns (single-value accessor) or
        # list<string> columns (multi-value FieldAccessor,
        # src/lib.rs:11): each value is tokenized separately; tf and the
        # corpus sum accumulate over all values, but the stored per-doc
        # field_length is the LAST value's kept-token count
        # (src/index.rs:114 assigns, not adds).
        tok_values = []          # per field: Arrow string array of kept tokens
        tok_doc_idx = []         # per field: int64 batch-row index per kept token
        lens = []                # per field: uint32[B] stored field_length
        tots = []                # per field: uint32[B] total kept tokens
        hvs = []                 # per field: uint8[B] had ≥1 value
        for col_name in self.field_cols:
            col = batch[col_name]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            if pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
                vlen = pa.compute.list_value_length(col) \
                    .fill_null(0).to_numpy().astype(np.int64)
                val_col = col.flatten()  # null lists contribute 0 values
                val_doc = np.repeat(np.arange(B, dtype=np.int64), vlen)
                nvals = len(val_col)
                if val_col.null_count:
                    val_col = val_col.fill_null("")
                lst = self.tok.arrow_fn(val_col.cast(pa.string()))
                tcounts = np.diff(lst.offsets.to_numpy())
                tok_val = np.repeat(np.arange(nvals, dtype=np.int64), tcounts)
                values = lst.values
                keep = pa.compute.not_equal(values, "") \
                    .to_numpy(zero_copy_only=False)
                values = values.filter(pa.array(keep))
                tok_val = tok_val[keep]
                didx = val_doc[tok_val]
                kept_per_val = np.bincount(tok_val, minlength=nvals)
                # last value per doc (docs with no values keep length 0)
                val_ends = np.cumsum(vlen)
                ln = np.zeros(B, dtype=np.uint32)
                has = vlen > 0
                ln[has] = kept_per_val[val_ends[has] - 1]
                lens.append(ln)
                tots.append(np.bincount(didx, minlength=B)
                            .astype(np.uint32))
                hvs.append(has.astype(np.uint8))
            else:
                # treat nulls as empty text
                if col.null_count:
                    col = col.fill_null("")
                lst = self.tok.arrow_fn(col)
                offsets = lst.offsets.to_numpy()
                values = lst.values
                counts = np.diff(offsets)
                didx = np.repeat(np.arange(B, dtype=np.int64), counts)
                keep = pa.compute.not_equal(values, "") \
                    .to_numpy(zero_copy_only=False)
                values = values.filter(pa.array(keep))
                didx = didx[keep]
                kept = np.bincount(didx, minlength=B).astype(np.uint32)
                lens.append(kept)
                tots.append(kept)
                # single-value string accessor: always exactly one value
                hvs.append(np.ones(B, dtype=np.uint8))
            tok_values.append(values)
            tok_doc_idx.append(didx)

        all_values = pa.concat_arrays([v.cast(pa.string()) for v in tok_values])
        all_didx = np.concatenate(tok_doc_idx) if tok_doc_idx else np.empty(0, np.int64)
        total_tokens = len(all_didx)

        meta_blob = docmeta_ipc(doc_ids, lens, tots, hvs)
        meta_row = {
            "term": [""], "doc_lo": [int(doc_ids.min()) if B else 0],
            "doc_hi": [int(doc_ids.max()) if B else 0],
            "df": [B], "first_pos": [0], "first_off": [0],
            "blob": [meta_blob],
        }
        if total_tokens == 0:
            return pa.table(meta_row, schema=SEGMENT_SCHEMA)

        # --- occurrence-stream positions (docs asc, fields in order) -----
        # Stable sort of the field-major concat by doc index preserves the
        # per-doc field-then-token order == the reference insertion stream.
        stream_order = np.argsort(all_didx, kind="stable")
        didx_s = all_didx[stream_order]
        per_doc_counts = np.bincount(didx_s, minlength=B)
        pos_in_doc = _grouped_arange(per_doc_counts[np.unique(didx_s)]) \
            if False else _grouped_arange(per_doc_counts[per_doc_counts > 0])
        # positions back in field-major order:
        pos_field_major = np.empty(total_tokens, dtype=np.int64)
        pos_field_major[stream_order] = pos_in_doc
        # the occurrence-order key is the PAIR (doc_id, capped pos) —
        # kept as two columns because the packed doc_id<<20|pos single
        # uint64 wraps for doc ids >= 2^44 (hashed string keys are
        # full-range uint64) and the wrap scrambles the cross-doc order
        # that the trie rank (search.trie_rank) is computed from
        pos_cap = np.minimum(pos_field_major, POS_MASK).astype(np.uint32)

        # --- vocabulary + per-(doc, term) aggregation --------------------
        dict_arr = all_values.dictionary_encode()
        codes = dict_arr.indices.to_numpy().astype(np.int64)
        vocab = dict_arr.dictionary  # Arrow string array, unique terms
        V = len(vocab)
        combined = all_didx * V + codes

        # occ + first offset per (doc, term): sort by combined; within a
        # (doc, term) group the doc is constant, so ordering by pos_cap
        # alone yields the first-occurrence offset.
        order = np.lexsort((pos_cap, combined))
        comb_sorted = combined[order]
        run_start = np.flatnonzero(
            np.concatenate(([True], comb_sorted[1:] != comb_sorted[:-1])))
        keys = comb_sorted[run_start]
        occ = np.diff(np.concatenate((run_start, [len(comb_sorted)]))).astype(np.uint64)
        first_off_key = pos_cap[order][run_start]

        key_doc = (keys // V).astype(np.int64)
        key_code = (keys % V).astype(np.int64)

        # per-field tf via searchsorted into the sorted unique keys
        tfs = []
        field_tok_offset = 0
        for f in range(F):
            nf = len(tok_doc_idx[f])
            comb_f = combined[field_tok_offset:field_tok_offset + nf]
            field_tok_offset += nf
            kf, cf = np.unique(comb_f, return_counts=True)
            tf = np.zeros(len(keys), dtype=np.uint64)
            tf[np.searchsorted(keys, kf)] = cf
            tfs.append(tf)

        # --- sort rows by (term rank, doc_id) ----------------------------
        vocab_np = vocab.to_numpy(zero_copy_only=False)
        term_rank_of_code = np.empty(V, dtype=np.int64)
        vorder = np.argsort(vocab_np, kind="stable")
        term_rank_of_code[vorder] = np.arange(V)
        rank = term_rank_of_code[key_code]
        row_order = np.lexsort((key_doc, rank))
        rank_s = rank[row_order]
        doc_s = doc_ids[key_doc[row_order]]
        occ_s = occ[row_order]
        fo_s = first_off_key[row_order]
        tfs_s = [t[row_order] for t in tfs]
        lens_s = [lens[f][key_doc[row_order]].astype(np.uint64) for f in range(F)]

        # --- block boundaries: term runs split at block_postings ---------
        term_start = np.flatnonzero(
            np.concatenate(([True], rank_s[1:] != rank_s[:-1])))
        term_end = np.concatenate((term_start[1:], [len(rank_s)]))
        term_lens = term_end - term_start
        nblocks = (term_lens + self.block_postings - 1) // self.block_postings
        blk_starts = np.repeat(term_start, nblocks) + \
            _grouped_arange(nblocks) * self.block_postings
        blk_term_end = np.repeat(term_end, nblocks)
        blk_lens = np.minimum(blk_starts + self.block_postings, blk_term_end) - blk_starts

        values_stream, boundaries = self._value_stream(
            doc_s, tfs_s, lens_s, blk_starts, blk_lens, F)
        block_blobs = encode_many(values_stream, boundaries)

        # merge a term's blocks into one row blob (terms mostly 1 block)
        blobs: list[bytes] = []
        bi = 0
        for nb in nblocks:
            if nb == 1:
                blobs.append(block_blobs[bi])
            else:
                blobs.append(b"".join(block_blobs[bi:bi + nb]))
            bi += int(nb)

        term_per_row = vocab.take(pa.array(key_code[row_order][term_start]))
        df_per_term = np.add.reduceat(occ_s, term_start)
        # per-term first occurrence = lexicographic min of (doc, off)
        # pairs across the run.  Rows are ordered by BATCH ROW index
        # (insertion-stream order) — for hashed string keys that is NOT
        # doc-ascending, so a true pair-min is required, not the first
        # row.
        fp_doc = np.minimum.reduceat(doc_s, term_start)
        at_min = doc_s == np.repeat(fp_doc, term_lens)
        fo_masked = np.where(at_min, fo_s.astype(np.uint32),
                             np.uint32(0xFFFFFFFF))
        fp_off = np.minimum.reduceat(fo_masked, term_start) \
            .astype(np.uint32)
        doc_lo = doc_s[term_start]
        doc_hi = doc_s[term_end - 1]

        out = pa.table({
            "term": term_per_row.cast(pa.string()),
            "doc_lo": pa.array(doc_lo, type=pa.uint64()),
            "doc_hi": pa.array(doc_hi, type=pa.uint64()),
            "df": pa.array(df_per_term.astype(np.uint64), type=pa.uint64()),
            "first_pos": pa.array(fp_doc, type=pa.uint64()),
            "first_off": pa.array(fp_off, type=pa.uint32()),
            "blob": pa.array(blobs, type=pa.large_binary()),
        }, schema=SEGMENT_SCHEMA)
        meta = pa.table(meta_row, schema=SEGMENT_SCHEMA)
        return pa.concat_tables([meta, out])

    @staticmethod
    def _value_stream(docs, tfs, lens, blk_starts, blk_lens, F):
        """Build the interleaved varint value stream for all blocks in one
        vectorized pass.  Per block: [n, first_doc, deltas, tf_f.., len_f..]."""
        n = blk_lens.astype(np.int64)
        per_blk = 1 + n * (1 + 2 * F)
        offs = np.concatenate(([0], np.cumsum(per_blk)))
        total = int(offs[-1])
        out = np.zeros(total, dtype=np.uint64)
        out[offs[:-1]] = n.astype(np.uint64)
        out[offs[:-1] + 1] = docs[blk_starts]
        # deltas
        nd = np.maximum(n - 1, 0)
        ia = _grouped_arange(nd)
        pos = np.repeat(offs[:-1] + 2, nd) + ia
        src = np.repeat(blk_starts, nd) + ia
        out[pos] = docs[src + 1] - docs[src]
        # per-posting sections
        ia2 = _grouped_arange(n)
        src2 = np.repeat(blk_starts, n) + ia2
        sec_base = offs[:-1] + 1 + n  # after n, first, deltas
        for f in range(F):
            out[np.repeat(sec_base + f * n, n) + ia2] = tfs[f][src2]
        for f in range(F):
            out[np.repeat(sec_base + (F + f) * n, n) + ia2] = lens[f][src2]
        return out, offs[1:]

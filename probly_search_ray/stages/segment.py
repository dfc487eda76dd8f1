"""Segment encoding stage: the heart of the index build.

One ``map_batches`` call turns a batch of documents into *segment
dictionary rows*: per distinct term in the batch, one row carrying a
delta+varint posting block set for the docs of this batch
(``SEGMENT_SCHEMA``, the wire format from the encoders to the build's
driver; nothing stores it).  The batch's docmeta (per-doc field
lengths, the reference's ``DocumentDetails``, ``src/index.rs:348``)
comes back beside the rows as NumPy arrays: the build stores it once,
in the group's segment (``state/segments.py``).

This replaces the reference's one-doc-at-a-time trie mutation
(``src/index.rs:77-158``) with a fully vectorized, shuffle-free local
build; the driver merges these compact rows into the group's segment.

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

from probly_search_ray.functions.codec import encode_rows, grouped_arange
from probly_search_ray.functions.tokenize import get_tokenizer

POS_BITS = 20
POS_MASK = (1 << POS_BITS) - 1

SEGMENT_SCHEMA = pa.schema([
    ("term", pa.string()),
    ("df", pa.uint64()),
    ("first_pos", pa.uint64()),
    ("first_off", pa.uint32()),
    ("blob", pa.large_binary()),
])


class SegmentEncoder:
    """Per-batch encoder, set up once per worker (the tokenizer).  A
    call returns the batch's segment rows and its docmeta arrays:
    ``doc_id``; ``len_f``, the reference's stored ``field_length`` (the
    LAST value's kept-token count for multi-value fields,
    src/index.rs:114 — used for BM25 normalization and the remove-path
    stat subtraction); ``tot_f``, the kept-token count over all values
    (what ``fields[i].sum`` accumulates, src/index.rs:112), equal to
    ``len_f`` for single-value fields; and ``hv_f``, whether the doc's
    accessor yielded ≥1 VALUE for the field (1 for every doc of a
    single-value string column, even empty text).  The reference
    updates ``fields[i].avg`` only inside the per-value loop
    (src/index.rs:112-113), so a doc with an EMPTY value list leaves
    avg stale — ``hv_f`` is what lets the build reproduce that stale
    avg exactly."""

    def __init__(self, key_col: str, field_cols: list[str],
                 tokenizer="whitespace", block_postings: int = 4096):
        from probly_search_ray.functions.mem import tune_allocator
        tune_allocator()
        self.key_col = key_col
        self.field_cols = list(field_cols)
        self.tok = get_tokenizer(tokenizer)
        self.block_postings = int(block_postings)

    def __call__(self, batch: pa.Table) -> tuple[pa.Table, dict]:
        F = len(self.field_cols)
        doc_ids = batch[self.key_col].to_numpy().astype(np.uint64)
        B = len(doc_ids)

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

        meta = {"doc_id": doc_ids}
        for name, cols in (("len", lens), ("tot", tots), ("hv", hvs)):
            meta.update((f"{name}_{f}", c) for f, c in enumerate(cols))
        if total_tokens == 0:
            return SEGMENT_SCHEMA.empty_table(), meta

        # --- occurrence-stream positions (docs asc, fields in order) -----
        # Stable sort of the field-major concat by doc index preserves the
        # per-doc field-then-token order == the reference insertion stream.
        stream_order = np.argsort(all_didx, kind="stable")
        didx_s = all_didx[stream_order]
        per_doc_counts = np.bincount(didx_s, minlength=B)
        pos_in_doc = grouped_arange(per_doc_counts[per_doc_counts > 0])
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

        # --- one row (blob) per term run ---------------------------------
        term_start = np.flatnonzero(
            np.concatenate(([True], rank_s[1:] != rank_s[:-1])))
        term_end = np.concatenate((term_start[1:], [len(rank_s)]))
        term_lens = term_end - term_start
        blobs = encode_rows(doc_s, tfs_s, term_lens, self.block_postings)

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

        out = pa.table({
            "term": term_per_row.cast(pa.string()),
            "df": pa.array(df_per_term.astype(np.uint64), type=pa.uint64()),
            "first_pos": pa.array(fp_doc, type=pa.uint64()),
            "first_off": pa.array(fp_off, type=pa.uint32()),
            "blob": pa.array(blobs, type=pa.large_binary()),
        }, schema=SEGMENT_SCHEMA)
        return out, meta

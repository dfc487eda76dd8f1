"""Vectorized LEB128 varint + delta posting-block codec: the wire
format of the index build's encoder rows.

The build's fused encode stage (``stages/segment.py``) turns each batch
of documents into one row per term whose blob holds that batch's
postings of the term; Ray moves those compact rows from the encoders
to the driver, which decodes each block once (``build._block_segment``)
and merges the group's segment (``state/segments.py``), the index's one
stored copy.  No blob is stored: this module owns the layout of rows in
flight only.  ``encode_rows`` writes it and ``decode_rows`` reads it,
both numpy-vectorized with no Python loop over values: encoding N
values costs ~10 vectorized passes (one per possible varint byte
position), decoding a whole buffer is a single vectorized scan
(``varint_decode_all``).

Posting block layout (a *row* is one term's postings within one
encoder batch, its blob an ordered sequence of blocks of at most
``block_postings`` postings):

    varint stream of:
      n                      number of postings in the block
      first_doc              absolute doc_id of the first posting
      delta[1..n-1]          doc_id deltas (uint64 differences)
      for f in fields: tf_f[0..n-1]    per-field term frequency

A doc's field lengths travel beside the rows, as the encoders' docmeta
side files (``build._FusedEncoder``).  The per-doc occurrence count
(df is occurrence-counted, src/index.rs:281-297) is NOT stored: occ ≡
Σ_f tf_f — postings exist only for docs where the term occurs, and the
reference creates exactly one pointer per occurrence across all fields.
"""

from __future__ import annotations

import numpy as np

# bump when the stored index layout changes; stored in the manifest and
# checked at load so a stale index is rebuilt, not misread
FORMAT_VERSION = 7  # v7: one segments/group=G.npz per group


def check_format_version(index_dir: str, ver) -> None:
    """Refuse an index written in another format: no older layout is
    read, the index is rebuilt instead."""
    if ver != FORMAT_VERSION:
        raise ValueError(
            f"index at {index_dir} has format_version={ver}, engine "
            f"expects {FORMAT_VERSION}; rebuild with "
            f"build_index(..., overwrite=True)")


_POW7 = [np.uint64(1) << np.uint64(7 * k) for k in range(10)]


def varint_byte_lengths(values: np.ndarray) -> np.ndarray:
    """Byte length of the LEB128 encoding of each uint64 value."""
    a = values.astype(np.uint64, copy=False)
    nb = np.ones(len(a), dtype=np.int64)
    for k in range(1, 10):
        nb[a >= _POW7[k]] = k + 1
    return nb


def varint_encode(values: np.ndarray) -> bytes:
    """Encode an array of uint64 as a concatenated LEB128 stream."""
    a = np.ascontiguousarray(values, dtype=np.uint64)
    if len(a) == 0:
        return b""
    nb = varint_byte_lengths(a)
    total = int(nb.sum())
    out = np.zeros(total, dtype=np.uint8)
    ends = np.cumsum(nb)
    starts = ends - nb
    for j in range(10):
        sel = nb > j
        if not sel.any():
            break
        vals = (a[sel] >> np.uint64(7 * j)) & np.uint64(0x7F)
        cont = (nb[sel] - 1 > j).astype(np.uint8) << 7  # continuation bit
        out[starts[sel] + j] = vals.astype(np.uint8) | cont
    return out.tobytes()


def varint_decode_all(buf: bytes | np.ndarray) -> np.ndarray:
    """Decode an entire LEB128 stream into a uint64 array (vectorized)."""
    b = np.frombuffer(buf, dtype=np.uint8) if not isinstance(buf, np.ndarray) else buf
    if len(b) == 0:
        return np.empty(0, dtype=np.uint64)
    term_mask = (b & 0x80) == 0
    ends = np.flatnonzero(term_mask)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    n = len(ends)
    vals = np.zeros(n, dtype=np.uint64)
    maxlen = int(lengths.max())
    for j in range(maxlen):
        sel = lengths > j
        vals[sel] |= (b[starts[sel] + j].astype(np.uint64) & np.uint64(0x7F)) << np.uint64(7 * j)
    return vals


def encode_many(values: np.ndarray, boundaries: np.ndarray) -> list[bytes]:
    """Varint-encode one big value array and split the byte stream at
    ``boundaries`` (value indices), returning one ``bytes`` per segment.

    Used to encode all posting blocks of a batch in one vectorized pass.
    """
    a = np.ascontiguousarray(values, dtype=np.uint64)
    nb = varint_byte_lengths(a)
    byte_ends = np.cumsum(nb)
    raw = varint_encode(a)
    out = []
    prev = 0
    for b in boundaries:
        end = int(byte_ends[b - 1]) if b > 0 else 0
        out.append(raw[prev:end])
        prev = end
    return out


def grouped_arange(lengths: np.ndarray) -> np.ndarray:
    """[0..l0), [0..l1), ... concatenated (vectorized per-group arange)."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)


def encode_rows(docs: np.ndarray, tfs: list[np.ndarray],
                row_counts: np.ndarray, block_postings: int) -> list[bytes]:
    """One blob per row: row ``r`` holds the next ``row_counts[r]``
    (at least one) postings of ``docs``/``tfs[F]`` in their order,
    split into blocks of at most ``block_postings`` postings.  All
    blocks go through one vectorized varint pass."""
    docs = np.asarray(docs, dtype=np.uint64)
    F = len(tfs)
    rc = np.asarray(row_counts, dtype=np.int64)
    r_start = np.cumsum(rc) - rc
    nblocks = (rc + block_postings - 1) // block_postings
    b_start = np.repeat(r_start, nblocks) + \
        grouped_arange(nblocks) * block_postings
    n = np.minimum(b_start + block_postings,
                   np.repeat(r_start + rc, nblocks)) - b_start
    # blocks tile the postings in order: block j's postings are
    # docs[b_start[j]:b_start[j] + n[j]]
    offs = np.concatenate(([0], np.cumsum(1 + n * (1 + F))))
    vals = np.empty(int(offs[-1]), dtype=np.uint64)
    vals[offs[:-1]] = n
    dd = docs.copy()
    dd[1:] -= docs[:-1]
    dd[b_start] = docs[b_start]   # [first, deltas…] per block
    ia = grouped_arange(n)
    sec = offs[:-1] + 1
    vals[np.repeat(sec, n) + ia] = dd
    for f in range(F):
        vals[np.repeat(sec + (1 + f) * n, n) + ia] = tfs[f]
    return encode_many(vals, offs[np.cumsum(nblocks)])


def blob_buffers(col) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy ``(bytes, offsets)`` of one Arrow ``large_binary``
    array (not chunked): blob ``i`` is ``bytes[offsets[i]:offsets[i+1]]``."""
    bufs = col.buffers()
    offs = np.frombuffer(bufs[1], dtype=np.int64)
    return (np.frombuffer(bufs[2], dtype=np.uint8),
            offs[col.offset: col.offset + len(col) + 1])


def decode_rows(data: np.ndarray, offsets: np.ndarray, F: int):
    """Decode the contiguous rows (each of at least one posting) whose
    blobs are ``data[offsets[i]:offsets[i+1]]`` → ``(docs, tfs[F],
    postings per row)``, docs uint64 and tfs uint32 (exact small ints;
    half the bytes)."""
    offsets = np.asarray(offsets, dtype=np.int64)
    nrows = len(offsets) - 1
    stream = data[offsets[0]:offsets[-1]]
    vals = varint_decode_all(stream)
    nvals = len(vals)
    # rows start at value boundaries: a row's first value is the count
    # of values that end before its first byte.  Block headers are
    # parsed in rounds (#rounds = max blocks per row, small by
    # construction)
    v_row = np.searchsorted(np.flatnonzero((stream & 0x80) == 0),
                            offsets[:-1] - offsets[0])
    act_v, act_row = v_row, np.arange(nrows, dtype=np.int64)
    act_end = np.concatenate((v_row[1:], [nvals]))
    bv_parts, bn_parts, brow_parts = [], [], []
    while act_v.size:
        n = vals[act_v].astype(np.int64)
        bv_parts.append(act_v)
        bn_parts.append(n)
        brow_parts.append(act_row)
        nxt = act_v + 1 + n * (1 + F)
        cont = nxt < act_end
        act_v, act_row, act_end = nxt[cont], act_row[cont], act_end[cont]
    bv = np.concatenate(bv_parts)
    bn = np.concatenate(bn_parts)
    brow = np.concatenate(brow_parts)
    order = np.lexsort((bv, brow))  # block order within each row
    bv, bn, brow = bv[order], bn[order], brow[order]

    # doc ids: gather [first, deltas…] per block, segmented cumsum
    ia = grouped_arange(bn)
    raw = vals[np.repeat(bv + 1, bn) + ia]
    cs = np.cumsum(raw)
    seg_starts = np.cumsum(bn) - bn
    base = cs[seg_starts] - raw[seg_starts]
    docs = (cs - np.repeat(base, bn)).astype(np.uint64)
    tf_base = bv + 1 + bn
    tfs = [vals[np.repeat(tf_base + f * bn, bn) + ia].astype(np.uint32)
           for f in range(F)]
    row_counts = np.bincount(brow, weights=bn, minlength=nrows) \
        .astype(np.int64)
    return docs, tfs, row_counts

"""Vectorized hashing primitives for dedup / fingerprinting stages.

All hashes are deterministic (fixed seeds), 64-bit, and computed with
numpy uint64 wraparound arithmetic — no Python loop over tokens.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_MERSENNE61 = np.uint64((1 << 61) - 1)

_HEX = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def content_hash_hex(values: np.ndarray) -> np.ndarray:
    """Vectorized 128-bit content hash for exact dedup: two independent
    64-bit SipHash lanes (pandas' C ``hash_array`` with distinct keys)
    over the full byte stream of each string, rendered as 32 hex chars.
    Collision probability ≈ n²/2^129 — safe at 10^12 docs — with no
    per-row Python (the old per-row ``hashlib.md5`` loop was the one
    row-wise Python pass in a full-corpus stage).

    Takes an object ndarray of str; returns a ``U32`` unicode ndarray.
    """
    arr = np.asarray(values, dtype=object)
    h1 = pd.util.hash_array(arr, hash_key="psr_dedup_lane_0")
    h2 = pd.util.hash_array(arr, hash_key="psr_dedup_lane_1")
    raw = np.empty((len(arr), 2), dtype=">u8")  # big-endian for stable hex
    raw[:, 0] = h1
    raw[:, 1] = h2
    b = raw.view(np.uint8).reshape(len(arr), 16)
    out = np.empty((len(arr), 32), dtype=np.uint8)
    out[:, 0::2] = _HEX[b >> 4]
    out[:, 1::2] = _HEX[b & 0x0F]
    return out.reshape(-1).view("S32").astype("U32")


def hash_tokens_u64(tokens: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit hash per token string (vectorized FNV-1a
    over a fixed-width byte view; exact on tokens ≤ 16 bytes, still
    deterministic and well-mixed beyond)."""
    # pad/truncate to 16 bytes and run 2 fnv rounds on uint64 views.
    # Object arrays (Arrow string -> to_numpy) must go through utf-8:
    # a bare astype("S16") encodes with the ASCII codec and raises on
    # the first non-ASCII token.  ASCII tokens hash identically on
    # either path (same bytes).  The utf-8 re-encode chain is ~10×
    # the cost of the old ASCII cast, so large token streams are
    # first factorized (C-level hash table): natural-language token
    # vocab ≪ token count, so only the distinct tokens pay the
    # encode and the stream gets a cheap int gather.
    # Only all-str uniques take this path: pd.factorize groups by
    # object equality (1 == 1.0 == True share a code; None becomes
    # nan) while the direct path hashes each value's str() — so any
    # other value takes the direct path, or a token's hash would depend
    # on its batch and break partition routing.
    if tokens.dtype.kind == "O" and len(tokens) > 4096:
        codes, uniq = pd.factorize(tokens, use_na_sentinel=False)
        if len(uniq) < len(tokens) and all(isinstance(u, str)
                                           for u in uniq):
            return hash_tokens_u64(
                np.asarray(uniq, dtype=object))[codes]
    if tokens.dtype.kind == "O":
        tokens = tokens.astype(np.str_)
    if tokens.dtype.kind == "U":
        tokens = np.char.encode(tokens, "utf-8")
    as_bytes = tokens.astype("S16")
    raw = as_bytes.view(np.uint8).reshape(len(tokens), 16)
    h = np.full(len(tokens), _FNV_OFFSET, dtype=np.uint64)
    words = raw.view(np.uint64)  # (n, 2)
    for k in range(2):
        h ^= words[:, k]
        h *= _FNV_PRIME
    # extra avalanche (splitmix64 finalizer)
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return h


def rolling_fingerprint(token_hashes: np.ndarray,
                        doc_lengths: np.ndarray,
                        base: int = 1000003) -> np.ndarray:
    """Karp-Rabin-style per-document polynomial fingerprint over the
    token-hash stream (mod 2^64), vectorized across all docs at once.

    ``token_hashes`` is the concatenation of all docs' token hashes;
    ``doc_lengths`` the token count per doc.
    """
    total = int(doc_lengths.sum())
    starts = np.cumsum(doc_lengths) - doc_lengths
    # per-token position within its doc
    pos = np.arange(total, dtype=np.int64) - np.repeat(starts, doc_lengths)
    B = np.uint64(base)
    # B^pos mod 2^64 via exponentiation on the bits of pos (vectorized);
    # uint64 wraparound IS the mod — silence the (intentional) overflow
    with np.errstate(over="ignore"):
        p = np.ones(total, dtype=np.uint64)
        cur = B
        maxbits = int(pos.max()).bit_length() if total else 0
        pos_u = pos.astype(np.uint64)
        for bit in range(maxbits):
            mask = (pos_u >> np.uint64(bit)) & np.uint64(1)
            p = np.where(mask == 1, p * cur, p)
            cur = cur * cur
        weighted = token_hashes.astype(np.uint64) * p
    out = np.zeros(len(doc_lengths), dtype=np.uint64)
    nz = doc_lengths > 0
    if nz.any():
        sums = np.add.reduceat(weighted, starts[nz])
        out[nz] = sums
    return out


def shingle_hashes(token_hashes: np.ndarray, doc_lengths: np.ndarray,
                   w: int = 3):
    """w-token shingle hashes per doc (vectorized rolling combine).
    Returns (shingles concat array, shingle counts per doc).
    Docs shorter than w tokens have no shingles (count 0)."""
    starts = np.cumsum(doc_lengths) - doc_lengths
    n_sh = np.maximum(doc_lengths - (w - 1), 0)
    sh_starts = np.cumsum(n_sh) - n_sh
    total_sh = int(n_sh.sum())
    idx = np.arange(total_sh, dtype=np.int64) - np.repeat(sh_starts, n_sh)
    src = np.repeat(starts, n_sh) + idx
    h = np.zeros(total_sh, dtype=np.uint64)
    C = np.uint64(0x9E3779B97F4A7C15)
    for j in range(w):
        h = (h * C) ^ token_hashes[src + j]
    return h, n_sh


def minhash_signatures(sh_hashes: np.ndarray, sh_counts: np.ndarray,
                       k: int = 128, seed: int = 1234) -> np.ndarray:
    """(n_docs, k) MinHash signature matrix over per-doc shingle sets.
    One vectorized pass per permutation: h' = (a*h + b) mod 2^61-1."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, (1 << 61) - 1, size=k, dtype=np.uint64)
    b = rng.integers(0, (1 << 61) - 1, size=k, dtype=np.uint64)
    n_docs = len(sh_counts)
    starts = (np.cumsum(sh_counts) - sh_counts)
    nz = sh_counts > 0
    sig = np.full((n_docs, k), np.iinfo(np.uint64).max, dtype=np.uint64)
    hm = sh_hashes & _MERSENNE61  # reduce into field
    for j in range(k):
        pj = (a[j] * hm + b[j]) & np.uint64((1 << 64) - 1)
        pj = (pj >> np.uint64(61)) + (pj & _MERSENNE61)  # partial mod 2^61-1
        if nz.any():
            sig[nz, j] = np.minimum.reduceat(pj, starts[nz])
    return sig


def band_hashes(sig: np.ndarray, bands: int = 16) -> np.ndarray:
    """(n_docs, bands) LSH band hashes from a (n_docs, k) signature."""
    n, k = sig.shape
    r = k // bands
    C = np.uint64(0x9E3779B97F4A7C15)
    out = np.zeros((n, bands), dtype=np.uint64)
    for b in range(bands):
        h = np.zeros(n, dtype=np.uint64)
        for j in range(b * r, (b + 1) * r):
            h = (h * C) ^ sig[:, j]
        out[:, b] = h
    return out


def simhash64(token_hashes: np.ndarray, doc_lengths: np.ndarray) -> np.ndarray:
    """64-bit SimHash per doc (unweighted token multiset)."""
    total = len(token_hashes)
    bits = np.unpackbits(
        token_hashes.view(np.uint8).reshape(total, 8), axis=1,
        bitorder="little").astype(np.int32)  # (total, 64) in {0,1}
    contrib = bits * 2 - 1
    starts = np.cumsum(doc_lengths) - doc_lengths
    nz = doc_lengths > 0
    out = np.zeros(len(doc_lengths), dtype=np.uint64)
    if nz.any():
        sums = np.add.reduceat(contrib, starts[nz], axis=0)
        bitvals = (sums > 0).astype(np.uint8)
        packed = np.packbits(bitvals, axis=1, bitorder="little")
        out[nz] = packed.copy().view(np.uint64).reshape(-1)
    return out


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = np.bitwise_xor(a, b)
    cnt = np.zeros(len(x) if x.ndim else 1, dtype=np.int64)
    v = x.view(np.uint8).reshape(-1, 8)
    return np.unpackbits(v, axis=1).sum(axis=1).astype(np.int64)

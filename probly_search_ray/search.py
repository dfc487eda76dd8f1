"""Query engine: term-range shard readers + coordinator.

Distributed query model (SURVEY.md §3.2 "Ray shape"):

- the index's terms are split into **disjoint term ranges**; each range
  is served by a ``ShardData`` (in-process for tests / small corpora,
  or inside a Ray actor pool for serving).  A term's complete posting
  list and global df live in exactly one shard (rows of the same term
  from all build groups are merged at load; df = sum of partials,
  first_pos = min of partials).
- a query runs on a coordinator: per query term it (1) looks up the
  prefix's expansions — one contiguous range of the sorted dictionary
  per shard, (2) orders them by the precomputed trie rank, the
  reference's trie-DFS order (children in reverse creation order,
  reference ``src/query.rs:130-147``; see ``trie_rank``),
  (3) computes BM25 ``before_each`` inputs from global stats
  (``src/score/default/bm25.rs:34-58``), (4) has shards score posting
  lists vectorized, and (5) merges with the exact
  ``max_score_merger`` semantics (``src/query.rs:150-164``): for one
  query term the doc's contribution is ``max(prev + s_first, s_rest…)``
  where ``s_first`` is the score of the doc's *first-visited* expansion
  in trie order — the reference's (quirky) behaviour, reproduced
  faithfully.

Tombstones (``src/index.rs:30-32``): a small broadcast set; postings of
removed docs are skipped and df is reduced by their occurrence counts
(``src/index.rs:281-297``), matching latent-delete semantics exactly.
"""

from __future__ import annotations

import bisect
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads

from probly_search_ray.functions.tokenize import get_tokenizer
from probly_search_ray.state.manifest import Manifest, Stats, Tombstones


def _grouped_arange(lengths: np.ndarray) -> np.ndarray:
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)


def _tie_floor(kth: float) -> float:
    """One ulp below ``kth`` — the safe threshold for comparing an
    UPPER BOUND against the running kth score.  The bounds evaluate
    BM25 with a different float64 op order than the scoring kernel
    ((boost·tn)·idf vs tn·(idf·boost)), so an exact bound can land one
    ulp below an achievable real score; filtering at ``>= kth`` would
    then drop a doc that ties the kth and wins the canonical doc-id
    tie-break.  Bound and kernel each apply (at least) two independent
    roundings, so the drift can reach a few ulps — 4 ulps of slack
    covers it; the only cost is the odd extra candidate scored.  Real
    scores still compare against ``kth`` directly — they share the
    kernel's op order exactly."""
    if not np.isfinite(kth):
        return kth
    return float(kth - 4.0 * np.spacing(abs(kth)))


def _frontier_channels(F: int):
    """(support_mask, field) channels for the tight per-term bound.
    A posting's score is Σ_f w_f·tf_norm_f, and postings with DISJOINT
    field support can't be combined — yet the naive bound sums each
    field's max over ALL postings, overshooting ~2x on corpora where a
    term sits in the title of one doc and the body of another.  So for
    F ≤ 2 the frontier is computed per support CLASS (mask of fields
    with tf > 0): the bound for class m sums only f ∈ m, and the
    per-term bound is the max over classes — exact for single-field
    postings, loose only within the (rare) both-fields class.  For
    F ≥ 3 the class count would grow 2^F; mask 0 = "all postings"
    keeps the valid one-class-per-field bound."""
    if F <= 2:
        return [(m, f) for m in range(1, 1 << F)
                for f in range(F) if (m >> f) & 1]
    return [(0, f) for f in range(F)]


def _pareto_filter(tid, tf, ln, nt):
    """Per-term Pareto frontier of (tf, field_length) pairs.  tf_norm is
    increasing in tf and decreasing in length, so for ANY (k1, b, avg)
    the max posting tf_norm of a term is attained on this frontier —
    the basis of the EXACT per-term score upper bound (the loose
    tf_norm(tf_max, len_min) cross-combination overshoots the true max
    on zipf prefixes, halving what the top-k prune loop can skip).
    Frontier width per term ≤ #distinct tf values (small ints), so the
    arrays are a few % of the postings.  Zero-tf rows (field absent)
    contribute score 0 and are dropped.  Returns (off[nt+1], tf, ln)
    CSR arrays, int64/uint32/uint32."""
    if not len(tid):
        return (np.zeros(nt + 1, np.int64), np.empty(0, np.uint32),
                np.empty(0, np.uint32))
    tf64 = np.asarray(tf, np.int64)
    ln64 = np.asarray(ln, np.int64)
    order = np.lexsort((ln64, -tf64, tid))
    t_s, tf_s, ln_s = tid[order], tf64[order], ln64[order]
    # segmented running-min of length over the tf-descending order via
    # an offset trick: give earlier terms LARGER offsets so a prefix
    # min never leaks across a term boundary
    big = int(ln64.max()) + 1
    v = (np.int64(nt) - t_s) * np.int64(big) + ln_s
    runmin = np.minimum.accumulate(v)
    prev = np.empty_like(runmin)
    prev[0] = np.iinfo(np.int64).max
    prev[1:] = runmin[:-1]
    keep = (v < prev) & (tf_s > 0)
    ktid, ktf, kln = t_s[keep], tf_s[keep], ln_s[keep]
    cnt = np.bincount(ktid, minlength=nt)
    off = np.concatenate(([0], np.cumsum(cnt))).astype(np.int64)
    return off, ktf.astype(np.uint32), kln.astype(np.uint32)


def _score_ub(tfm, lmn, idf_boosts, fields_boost, avgs, k1, b):
    """Vectorized per-expansion BM25 score upper bounds: tf_norm is
    increasing in tf and decreasing in field length, so
    tf_norm(tf_max, len_min) bounds every posting per field.  Shared by
    the coordinator (multi-shard pruning) and the shard-local pushed-
    down top-k loop (``ShardData.score_bm25_topk_pruned``)."""
    s = np.zeros(len(idf_boosts), dtype=np.float64)
    for f, bb in enumerate(fields_boost):
        if bb == 0.0 or avgs[f] <= 0.0:
            continue
        tf = tfm[:, f]
        s += bb * ((k1 + 1.0) * tf) / (
            k1 * ((1.0 - b) + b * (lmn[:, f] / avgs[f])) + tf)
    return s * np.asarray(idf_boosts, dtype=np.float64)


def trie_rank(terms: list[str], first_pos, first_off,
              depth: int = 0) -> np.ndarray:
    """Position of each term in the reference trie's DFS order
    (reference ``src/query.rs:130-147``): a node's own term comes
    first, then its child subtrees newest first — descending minimum
    ``(first_pos, first_off)`` over the subtree, ties by char ascending.
    ``terms`` are sorted, distinct and share their first ``depth``
    chars.  Vectorized level by level: a subtree is a contiguous run of
    the sorted terms, so each level sorts the child runs under each node
    and lays out their position blocks.  The DFS order inside a subtree
    depends only on the subtree, so ranking the whole dictionary once
    orders every prefix's range: argsort the rank slice."""
    n = len(terms)
    rank = np.empty(n, np.uint32)  # stored in the CSR cache: 4 B/term
    if not n:
        return rank
    lens = np.fromiter(map(len, terms), np.int64, count=n)
    # code-point matrix of the leading chars, capped like the fuzzy
    # matrix; deeper levels (rare long terms) read chars one by one
    width = min(int(lens.max()), ShardData._FUZZY_WIDTH_CAP)
    cps = np.array([t[:width] for t in terms]).view(np.uint32) \
        .reshape(n, -1)
    fp = np.asarray(first_pos, np.uint64)
    fo = np.asarray(first_off, np.uint32)
    alive = np.arange(n)
    node = np.zeros(n, np.int64)       # node of each alive term
    node_pos = np.zeros(1, np.int64)   # first position of each node
    d = depth
    while len(alive):
        own = lens[alive] == d
        rank[alive[own]] = node_pos[node[own]]
        has_own = np.zeros(len(node_pos), np.int64)
        has_own[node[own]] = 1
        alive, node = alive[~own], node[~own]
        if not len(alive):
            break
        c = cps[alive, d] if d < width else np.fromiter(
            (ord(terms[i][d]) for i in alive), np.uint32, count=len(alive))
        new = np.ones(len(alive), bool)
        new[1:] = (node[1:] != node[:-1]) | (c[1:] != c[:-1])
        st = np.flatnonzero(new)
        size = np.diff(np.append(st, len(alive)))
        afp = fp[alive]
        mfp = np.minimum.reduceat(afp, st)
        mfo = np.minimum.reduceat(np.where(
            afp == np.repeat(mfp, size), fo[alive], np.uint32(0xFFFFFFFF)),
            st)
        par = node[st]
        o = np.lexsort((c[st], ~mfo, ~mfp, par))
        sz, po = size[o], par[o]
        before = np.cumsum(sz) - sz
        first = np.flatnonzero(np.r_[True, po[1:] != po[:-1]])
        before -= np.repeat(before[first], np.diff(np.append(first, len(o))))
        child_pos = np.empty(len(st), np.int64)
        child_pos[o] = node_pos[po] + has_own[po] + before
        node, node_pos = np.repeat(np.arange(len(st)), size), child_pos
        d += 1
    return rank


def _levenshtein_capped(a: bytes, b: bytes, cap: int) -> int:
    """Byte-level edit distance with early exit once every cell of a
    row exceeds ``cap``.  Used only for the rare over-cap dictionary
    terms the padded fuzzy matrix excludes."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (ca != cb))
        if min(cur) > cap:
            return cap + 1
        prev = cur
    return prev[-1]


class ShardData:
    """Term dictionary + postings for one term range, merged across
    build groups.  Loaded once (actor ``__init__``), served per query.

    The on-disk varint blobs are decoded ONCE at load into flat CSR
    posting arrays (``p_docs`` / ``p_tf`` / ``p_len`` indexed by
    ``post_off`` per term): query-time posting access is a zero-copy
    numpy slice, with no per-expansion decode loop — the round-1 p95
    tail was thousands of rare prefix expansions each paying a Python
    per-block decode.  The whole load path is vectorized (one varint
    scan over the concatenated blob stream, block headers parsed in
    rounds, segmented cumsum for the doc-id deltas)."""

    def __init__(self, index_dir: str, term_lo: str | None = None,
                 term_hi: str | None = None, use_cache: bool = True,
                 doc_mod: tuple[int, int] | None = None):
        """``doc_mod=(i, D)``: DOC-sharded view — keep the FULL term
        dictionary (terms/df/first_pos/impact bounds stay the GLOBAL
        values) but restrict postings to docs with ``doc_id % D == i``.
        This is the 10^12-doc serving layout from SCALE.md: every doc's
        records live wholly in one shard, so cross-term intersection,
        accumulator merges and per-doc reductions are shard-local, and
        per-query coordinator traffic is D·k rows instead of O(df).
        Hash (mod) partitioning balances arbitrary/skewed id spaces
        with no quantile estimation.  Mutually exclusive with a term
        range; the view is derived from the full-range CSR cache (or a
        fresh decode) and never writes range-specific caches."""
        from probly_search_ray.functions.codec import FORMAT_VERSION
        from probly_search_ray.functions.mem import tune_allocator
        tune_allocator()  # shard actors are fresh processes; reuse arena
        # pages so per-query numpy temporaries don't re-fault cold pages
        if doc_mod is not None and (term_lo, term_hi) != (None, None):
            raise ValueError("doc_mod and a term range are exclusive")
        self._doc_mod = doc_mod
        man = Manifest(index_dir)
        if not man.data["config"]:
            raise FileNotFoundError(
                f"no index at {index_dir} (missing/empty manifest.json); "
                f"build one with build_index(...) or the CLI 'build' command")
        ver = man.data["config"].get("format_version")
        if ver != FORMAT_VERSION:
            raise ValueError(
                f"index at {index_dir} has format_version={ver}, engine "
                f"expects {FORMAT_VERSION}; rebuild with build_index(...)")
        self.num_fields = man.data["config"]["num_fields"]
        # mmap'd decoded-CSR cache: the first load of a (range, manifest
        # state) decodes the varint blobs and persists the flat arrays;
        # later loads np.load(mmap_mode="r") them — engine startup is
        # metadata-only and postings page in lazily per query (the
        # north star's "actor pools holding mmap'd index shards")
        self._cache_dir = None
        if use_cache:
            self._cache_dir = self._cache_path(index_dir, man,
                                               term_lo, term_hi)
            if self._load_from_cache(self._cache_dir):
                self._apply_doc_mod()
                return
            if (term_lo, term_hi) != (None, None):
                # a FULL-range cache serves any shard layout: memmap it
                # and take term-range slices (views, no copies)
                full_dir = self._cache_path(index_dir, man, None, None)
                if self._load_from_cache(full_dir,
                                         slice_range=(term_lo, term_hi)):
                    return
        tables = []
        for rec in man.term_files():
            if term_hi is not None and rec["term_min"] is not None \
                    and rec["term_min"] >= term_hi:
                continue
            if term_lo is not None and rec["term_max"] is not None \
                    and rec["term_max"] < term_lo:
                continue
            path = os.path.join(index_dir, rec["path"])
            flt = pads.field("term") != ""
            if term_lo is not None:
                flt = flt & (pads.field("term") >= term_lo)
            if term_hi is not None:
                flt = flt & (pads.field("term") < term_hi)
            t = pads.dataset(path).to_table(
                filter=flt, columns=["term", "doc_lo", "df", "first_pos",
                         "first_off", "blob"])
            if len(t):
                from probly_search_ray.stages.segment import SEGMENT_SCHEMA
                want = pa.schema([SEGMENT_SCHEMA.field(n)
                                  for n in t.column_names])
                tables.append(t.cast(want))

        F = self.num_fields
        self.terms: list[str] = []
        self.df: np.ndarray = np.empty(0, np.int64)
        self.first_pos: np.ndarray = np.empty(0, np.uint64)
        self.first_off: np.ndarray = np.empty(0, np.uint32)
        self.trie_rank: np.ndarray = np.empty(0, np.uint32)
        self.post_off: np.ndarray = np.zeros(1, np.int64)
        self.p_docs: np.ndarray = np.empty(0, np.uint64)
        self.p_tf: list[np.ndarray] = [np.empty(0, np.uint32)] * F
        self.p_len: list[np.ndarray] = [np.empty(0, np.uint32)] * F
        self.tf_max: list[np.ndarray] = [np.empty(0, np.uint32)] * F
        self.len_min: list[np.ndarray] = [np.empty(0, np.uint32)] * F
        self.fr = {ch: (np.zeros(1, np.int64), np.empty(0, np.uint32),
                        np.empty(0, np.uint32))
                   for ch in _frontier_channels(F)}
        if not tables:
            return
        full = pa.concat_tables(tables).sort_by(
            [("term", "ascending"), ("doc_lo", "ascending")])
        if not len(full):
            return
        self._load_csr(full, F)
        self.trie_rank = trie_rank(self.terms, self.first_pos,
                                   self.first_off)
        if self._cache_dir:
            # also for doc-mod views: at this point the arrays ARE the
            # full-range cache content (the view filter applies below),
            # so a cache-cold doc-sharded pool seeds the cache for every
            # later load instead of leaving D actors to re-decode
            self._write_cache(self._cache_dir)
        self._apply_doc_mod()

    # -- mmap'd decoded-CSR cache ------------------------------------------

    @staticmethod
    def _cache_path(index_dir: str, man: Manifest, term_lo, term_hi):
        import hashlib
        import json as _json
        from probly_search_ray.functions.codec import FORMAT_VERSION
        sig_src = _json.dumps([
            5,  # cache layout version (v5: v4 + trie_rank)
            FORMAT_VERSION,
            [(r["group"], r["path"], r["rows"]) for r in man.term_files()],
        ], sort_keys=True)
        sig = hashlib.md5(sig_src.encode()).hexdigest()[:12]
        rng = hashlib.md5(repr((term_lo, term_hi)).encode()).hexdigest()[:8]
        return os.path.join(index_dir, "cache", f"csr-{rng}-{sig}")

    _CACHE_ARRAYS = ("df", "first_pos", "first_off", "trie_rank",
                     "post_off", "p_docs")

    def _write_cache(self, cdir: str) -> None:
        _write_cache_arrays(cdir, self.num_fields, self.terms, self.df,
                            self.first_pos, self.first_off, self.trie_rank,
                            self.post_off, self.p_docs,
                            self.p_tf, self.p_len, self.tf_max,
                            self.len_min, self.fr)

    def _load_from_cache(self, cdir: str, slice_range=None) -> bool:
        if not os.path.isdir(cdir):
            return False
        try:
            with open(os.path.join(cdir, "terms.bin"), "rb") as fh:
                raw = fh.read()
            lens = np.load(os.path.join(cdir, "term_lens.npy"))
            offs = np.concatenate(([0], np.cumsum(lens)))
            terms = [raw[offs[i]:offs[i + 1]].decode()
                     for i in range(len(lens))]
            # posting arrays stay mmap'd but as plain ndarray views (no
            # copy, same pages): memmap slicing pays __array_finalize__
            # on every per-query slice
            def mapped(name):
                return np.load(os.path.join(cdir, name + ".npy"),
                               mmap_mode="r").view(np.ndarray)
            for name in self._CACHE_ARRAYS:
                setattr(self, name, mapped(name))
            self.p_tf = [mapped(f"p_tf_{f}") for f in range(self.num_fields)]
            self.p_len = [mapped(f"p_len_{f}")
                          for f in range(self.num_fields)]
            # small (per-term) metadata arrays are hot — materialize them
            self.terms = terms
            self.df = np.array(self.df)
            self.first_pos = np.array(self.first_pos)
            self.first_off = np.array(self.first_off)
            self.trie_rank = np.array(self.trie_rank)
            self.tf_max = [np.load(os.path.join(cdir, f"tf_max_{f}.npy"))
                           for f in range(self.num_fields)]
            self.len_min = [np.load(os.path.join(cdir, f"len_min_{f}.npy"))
                            for f in range(self.num_fields)]
            # Pareto frontiers (v3): offsets materialize (dictionary-
            # sized, hot), points load small (≤ a few % of postings)
            self.fr = {}
            for m, f in _frontier_channels(self.num_fields):
                self.fr[(m, f)] = tuple(
                    np.load(os.path.join(cdir, f"fr_{part}_{m}_{f}.npy"))
                    for part in ("off", "tf", "len"))
            post_off = np.array(self.post_off)
            if slice_range is not None:
                lo, hi = slice_range
                i0 = bisect.bisect_left(terms, lo) if lo is not None else 0
                i1 = bisect.bisect_left(terms, hi) if hi is not None \
                    else len(terms)
                p0, p1 = int(post_off[i0]), int(post_off[i1])
                self.terms = terms[i0:i1]
                self.df = self.df[i0:i1]
                self.first_pos = self.first_pos[i0:i1]
                self.first_off = self.first_off[i0:i1]
                self.trie_rank = self.trie_rank[i0:i1]
                self.tf_max = [t[i0:i1] for t in self.tf_max]
                self.len_min = [l[i0:i1] for l in self.len_min]
                fr = {}
                for ch, (off, ftf, fln) in self.fr.items():
                    q0, q1 = int(off[i0]), int(off[i1])
                    fr[ch] = (off[i0:i1 + 1] - q0, ftf[q0:q1],
                              fln[q0:q1])
                self.fr = fr
                post_off = post_off[i0:i1 + 1] - p0
                self.p_docs = self.p_docs[p0:p1]
                self.p_tf = [t[p0:p1] for t in self.p_tf]
                self.p_len = [l[p0:p1] for l in self.p_len]
            self.post_off = post_off
            return True
        except (OSError, ValueError):
            return False

    def _apply_doc_mod(self) -> None:
        """Restrict postings to this view's hash partition of the doc
        space (``doc_id % D == i``) — one vectorized pass; dictionary
        and per-term stats keep their GLOBAL values (df/idf/bounds must
        not depend on the shard layout)."""
        if self._doc_mod is None or not len(self.p_docs):
            return
        i, D = self._doc_mod
        docs = np.asarray(self.p_docs)
        # Chunked selection: the old one-shot pass allocated ~2 full-
        # size temporaries (the % result and an (n+1) int64 cumsum) in
        # FRESH anonymous pages — on this host page-zeroing dominates
        # and made doc-shard pool start ~6x the term-sharded one.
        # Chunk-sized temporaries are REUSED from the tuned arena, and
        # the kept-index array is output-sized (n/D), so fresh pages
        # shrink to just the 1/D-sized copies this view actually keeps.
        CH = 1 << 22
        parts = []
        for a in range(0, len(docs), CH):
            sel = np.flatnonzero(
                docs[a:a + CH] % np.uint64(D) == np.uint64(i))
            parts.append((a + sel).astype(np.int64))
        idx = (np.concatenate(parts) if parts
               else np.empty(0, np.int64))
        # kept-count strictly before each term boundary == position of
        # the boundary in the sorted kept-index list
        self.post_off = np.searchsorted(
            idx, np.asarray(self.post_off)).astype(np.int64)
        self.p_docs = docs[idx]
        self.p_tf = [np.asarray(t)[idx] for t in self.p_tf]
        self.p_len = [np.asarray(li)[idx] for li in self.p_len]

    # rows per decode chunk: bounds the varint-scan temporaries (which
    # the tuned allocator then REUSES across chunks) — an unchunked scan
    # allocates ~40 bytes of fresh pages per varint value, and
    # first-touch page faults dominate this host
    _DECODE_CHUNK_ROWS = 1_000_000

    @staticmethod
    def _decode_rows(stream: np.ndarray, row_byte_start: np.ndarray, F: int):
        """Vectorized decode of a contiguous run of rows → (docs,
        tfs[F], lens[F], postings-per-row)."""
        nrows = len(row_byte_start)
        term_mask = (stream & 0x80) == 0
        v_ends = np.flatnonzero(term_mask)
        v_starts = np.empty_like(v_ends)
        if len(v_ends):
            v_starts[0] = 0
            v_starts[1:] = v_ends[:-1] + 1
        lengths = v_ends - v_starts + 1
        nvals = len(v_ends)
        vals = np.zeros(nvals, dtype=np.uint64)
        maxlen = int(lengths.max()) if nvals else 0
        for j in range(maxlen):
            sel = lengths > j
            vals[sel] |= (stream[v_starts[sel] + j].astype(np.uint64)
                          & np.uint64(0x7F)) << np.uint64(7 * j)

        # rows start at value boundaries; parse block headers in rounds
        # (#rounds = max blocks per row, small by construction)
        v_row = np.searchsorted(v_starts, row_byte_start)
        v_row_end = np.concatenate((v_row[1:], [nvals]))
        # zero-byte rows (df-0 creation-order witnesses kept by vacuum)
        # own no values — drop them before the first header round or
        # they would misread the NEXT row's block header
        alive = v_row < v_row_end
        act_v, act_row, act_end = (v_row[alive],
                                   np.arange(nrows, dtype=np.int64)[alive],
                                   v_row_end[alive])
        if not act_v.size:
            return (np.empty(0, np.uint64),
                    [np.empty(0, np.uint32)] * F,
                    [np.empty(0, np.uint32)] * F,
                    np.zeros(nrows, dtype=np.int64))
        bv_parts, bn_parts, brow_parts = [], [], []
        while act_v.size:
            n = vals[act_v].astype(np.int64)
            bv_parts.append(act_v)
            bn_parts.append(n)
            brow_parts.append(act_row)
            nxt = act_v + 1 + n * (1 + 2 * F)
            cont = nxt < act_end
            act_v, act_row, act_end = nxt[cont], act_row[cont], act_end[cont]
        bv = np.concatenate(bv_parts)
        bn = np.concatenate(bn_parts)
        brow = np.concatenate(brow_parts)
        order = np.lexsort((bv, brow))  # doc-range order within each row
        bv, bn, brow = bv[order], bn[order], brow[order]

        # doc ids: gather [first, deltas…] per block, segmented cumsum
        gidx = np.repeat(bv + 1, bn) + _grouped_arange(bn)
        raw = vals[gidx]
        cs = np.cumsum(raw)
        seg_starts = np.cumsum(bn) - bn
        base = cs[seg_starts] - raw[seg_starts]
        docs = (cs - np.repeat(base, bn)).astype(np.uint64)
        # per-field tf / len stored uint32 (exact small ints — cast to
        # float64 after the per-query gather): halves resident bytes
        ia = _grouped_arange(bn)
        sec_base = bv + 1 + bn
        tfs = [vals[np.repeat(sec_base + f * bn, bn) + ia]
               .astype(np.uint32) for f in range(F)]
        lens = [vals[np.repeat(sec_base + (F + f) * bn, bn) + ia]
                .astype(np.uint32) for f in range(F)]
        row_counts = np.bincount(brow, weights=bn, minlength=nrows) \
            .astype(np.int64)
        return docs, tfs, lens, row_counts

    def _load_csr(self, full: pa.Table, F: int) -> None:
        nrows = len(full)
        blob_col = full["blob"].combine_chunks()
        # zero-copy view of the concatenated blob bytes + per-row offsets
        off_buf = np.frombuffer(blob_col.buffers()[1], dtype=np.int64)
        off_arr = off_buf[blob_col.offset: blob_col.offset + nrows + 1]
        data = np.frombuffer(blob_col.buffers()[2], dtype=np.uint8)

        CH = self._DECODE_CHUNK_ROWS
        docs_p, rc_p = [], []
        tf_p = [[] for _ in range(F)]
        len_p = [[] for _ in range(F)]
        for i0 in range(0, nrows, CH):
            i1 = min(i0 + CH, nrows)
            stream = data[off_arr[i0]:off_arr[i1]]
            rbs = (off_arr[i0:i1] - off_arr[i0]).astype(np.int64)
            d, tfs, lens, rc = self._decode_rows(stream, rbs, F)
            docs_p.append(d)
            rc_p.append(rc)
            for f in range(F):
                tf_p[f].append(tfs[f])
                len_p[f].append(lens[f])
        self.p_docs = np.concatenate(docs_p)
        self.p_tf = [np.concatenate(x) for x in tf_p]
        self.p_len = [np.concatenate(x) for x in len_p]
        row_counts = np.concatenate(rc_p)

        # term dictionary: rows are term-sorted, so runs of equal codes
        # are term runs
        codes = full["term"].combine_chunks().dictionary_encode() \
            .indices.to_numpy().astype(np.int64)
        row_ts = np.flatnonzero(
            np.concatenate(([True], codes[1:] != codes[:-1])))
        term_col = full["term"].combine_chunks()
        self.terms = term_col.take(pa.array(row_ts)).to_pylist()
        dfs = full["df"].to_numpy().astype(np.int64)
        fps = full["first_pos"].to_numpy()
        fos = full["first_off"].to_numpy()
        self.df = np.add.reduceat(dfs, row_ts)
        # per-term first occurrence across files/batches: lexicographic
        # min of (doc, off) pairs — rows within a term run come from
        # multiple groups, so the run is not necessarily doc-ascending
        self.first_pos = np.minimum.reduceat(fps, row_ts)
        run_lens = np.diff(np.concatenate((row_ts, [len(fps)])))
        at_min = fps == np.repeat(self.first_pos, run_lens)
        fo_masked = np.where(at_min, fos, np.uint32(0xFFFFFFFF))
        self.first_off = np.minimum.reduceat(fo_masked, row_ts) \
            .astype(np.uint32)
        term_counts = np.add.reduceat(row_counts, row_ts)
        self.post_off = np.concatenate(
            ([0], np.cumsum(term_counts))).astype(np.int64)
        # With sequential doc ids, batch ranges are disjoint and the
        # doc_lo-ordered block concat is already doc-sorted per term;
        # hashed string keys overlap across batches — detect and do one
        # segmented sort so "newest-first = descending doc id" holds.
        if len(self.p_docs) > 1:
            tid = np.repeat(np.arange(len(term_counts)), term_counts)
            bad = self.p_docs[1:] < self.p_docs[:-1]
            if bad.any() and (tid[:-1][bad] == tid[1:][bad]).any():
                order = np.lexsort((self.p_docs, tid))
                self.p_docs = self.p_docs[order]
                self.p_tf = [t[order] for t in self.p_tf]
                self.p_len = [l[order] for l in self.p_len]
        self._compute_bounds()

    def _compute_bounds(self) -> None:
        """Per-term impact-bound inputs: (a) max tf and min field length
        over each term's postings — the cheap coordinator-side bound —
        and (b) the per-(term, field) Pareto frontier of (tf, len)
        pairs, which yields the EXACT max posting score for any query
        params (see ``_pareto_filter``) and drives the shard-local
        top-k prune."""
        F = self.num_fields
        seg = self.post_off[:-1]
        nt = len(self.terms)
        if nt == 0:
            self.tf_max = [np.empty(0, np.uint32)] * F
            self.len_min = [np.empty(0, np.uint32)] * F
            self.fr = {ch: (np.zeros(1, np.int64),
                            np.empty(0, np.uint32),
                            np.empty(0, np.uint32))
                       for ch in _frontier_channels(F)}
            return
        seg_n = np.diff(self.post_off)
        if (seg_n == 0).any():
            # zero-posting terms (df-0 vacuum witnesses): reduceat on a
            # zero-length segment misreads the neighbour (or walks off
            # the end), so clip the offsets and zero the results
            np_total = int(self.post_off[-1])
            segc = np.minimum(seg, max(np_total - 1, 0))
            empty = seg_n == 0
            self.tf_max = []
            self.len_min = []
            for f in range(F):
                if np_total:
                    tm = np.maximum.reduceat(self.p_tf[f], segc) \
                        .astype(np.uint32)
                    lm = np.minimum.reduceat(self.p_len[f], segc) \
                        .astype(np.uint32)
                else:
                    tm = np.zeros(nt, np.uint32)
                    lm = np.zeros(nt, np.uint32)
                tm[empty] = 0
                lm[empty] = 0
                self.tf_max.append(tm)
                self.len_min.append(lm)
        else:
            self.tf_max = [np.maximum.reduceat(self.p_tf[f], seg)
                           .astype(np.uint32) for f in range(F)]
            self.len_min = [np.minimum.reduceat(self.p_len[f], seg)
                            .astype(np.uint32) for f in range(F)]
        tid = np.repeat(np.arange(nt, dtype=np.int64), seg_n)
        support = np.zeros(len(tid), dtype=np.int64)
        for f in range(F):
            support |= (np.asarray(self.p_tf[f]) > 0).astype(np.int64) << f
        self.fr = {}
        for m, f in _frontier_channels(F):
            if m:
                sel = support == m
                self.fr[(m, f)] = _pareto_filter(
                    tid[sel], np.asarray(self.p_tf[f])[sel],
                    np.asarray(self.p_len[f])[sel], nt)
            else:
                self.fr[(m, f)] = _pareto_filter(
                    tid, np.asarray(self.p_tf[f]),
                    np.asarray(self.p_len[f]), nt)

    def frontier_ub(self, term_idx, idf_boosts, fields_boost, avgs,
                    k1: float, b: float) -> np.ndarray:
        """TIGHT per-term BM25 score upper bounds: per support class,
        the per-field max posting tf_norm over the precomputed (tf, len)
        Pareto frontier (every frontier point IS a real posting), summed
        within the class and maxed across classes — exact for postings
        whose support is a single field (see ``_frontier_channels``).
        Absent terms (idx < 0) bound to 0.  Used by the shard-local
        top-k prune loop; the coordinator keeps the cheap two-scalar
        bound for its cross-shard RPCs."""
        ti = np.asarray(term_idx, np.int64)
        present = ti >= 0
        ic = np.where(present, ti, 0)
        if not len(self.terms):
            # empty shard: off[ic + 1] below would index past the
            # single-element offsets array even with present all-False
            return np.zeros(len(ti), dtype=np.float64)
        per_mask: dict[int, np.ndarray] = {}
        for (m, f), (off, ftf, fln) in self.fr.items():
            bb = fields_boost[f]
            if bb == 0.0 or avgs[f] <= 0.0:
                continue
            lo = off[ic]
            n_f = np.where(present, off[ic + 1] - lo, 0)
            g = np.repeat(lo, n_f) + _grouped_arange(n_f)
            if not len(g):
                continue
            tf = np.asarray(ftf)[g].astype(np.float64)
            ln = np.asarray(fln)[g].astype(np.float64)
            tn = ((k1 + 1.0) * tf) / (
                k1 * ((1.0 - b) + b * (ln / avgs[f])) + tf)
            st = np.cumsum(n_f) - n_f
            nz = n_f > 0
            val = np.zeros(len(ti))
            val[nz] = np.maximum.reduceat(tn, st[nz])
            acc = per_mask.setdefault(m, np.zeros(len(ti)))
            acc += bb * val
        out = np.zeros(len(ti), np.float64)
        for v in per_mask.values():
            np.maximum(out, v, out=out)
        return out * np.asarray(idf_boosts, dtype=np.float64)

    def prefault(self, warm_arena: bool = True,
                 arena_cap: int = 64 << 20) -> int:
        """Serving-replica warmup: (1) touch every page of the mmap'd
        posting arrays so gathers never pay lazy page-in; (2) pre-fault
        an allocator arena sized to a worst-case QUERY's temporaries
        (~56 B/posting over the query's expanded df sum — NOT the whole
        shard: query working sets are bounded by their terms' postings,
        and this host zeroes anonymous pages at ~30 MB/s, so the old
        whole-shard arena alone cost a measured 52 s on a 1.6 GB shard
        while the mmap touch took 0.04 s).  The 64 MB default covers a
        ~1.2M-posting query; a rare larger expansion faults its excess
        once and the pages then stay in the arena (``tune_allocator``'s
        high trim threshold).  Returns bytes touched."""
        total = 0
        fr_arrays = [a for tup in self.fr.values() for a in tup[1:]]
        for arr in [self.p_docs, *self.p_tf, *self.p_len, *fr_arrays]:
            if len(arr):
                # one touch per 4 KiB page faults the whole mapping
                np.add.reduce(arr[:: max(1, 4096 // arr.itemsize)])
            total += arr.nbytes
        if warm_arena and len(self.p_docs):
            want = min(int(len(self.p_docs)) * 56, arena_cap)
            # sub-threshold chunks so they come from (and return to) the
            # arena, not one-shot mmaps the allocator gives back
            chunks = []
            left = want
            while left > 0:
                n = min(left, 256 << 20)
                chunks.append(np.ones(n // 8, dtype=np.float64))
                left -= n
            total += want
            del chunks
        return total

    # -- dictionary --------------------------------------------------------

    def range_of(self, prefix: str, exact: bool = False) -> tuple[int, int]:
        """Dictionary positions ``[i0, i1)`` of the stored terms with this
        prefix (or equal to it, ``exact``): one contiguous range of the
        sorted dictionary, found by two bisects."""
        i0 = bisect.bisect_left(self.terms, prefix)
        if exact:
            return i0, i0 + (i0 < len(self.terms)
                             and self.terms[i0] == prefix)
        if prefix and ord(prefix[-1]) < 0x10FFFF:
            succ = prefix[:-1] + chr(ord(prefix[-1]) + 1)
            return i0, bisect.bisect_left(self.terms, succ, i0)
        i1 = i0
        while i1 < len(self.terms) and self.terms[i1].startswith(prefix):
            i1 += 1
        return i0, i1

    def _entries(self, idx: np.ndarray) -> "DictRange":
        return DictRange(idx, [self.terms[i] for i in idx], self.df[idx],
                         self.trie_rank[idx], self.first_pos[idx],
                         self.first_off[idx])

    def expand(self, prefix: str, exact: bool = False) -> "DictRange":
        """The stored terms with this prefix (the term itself, ``exact``)
        with raw df, trie rank and first occurrence: the reference's
        trie DFS collection (``src/query.rs:108-126``) as one dictionary
        range."""
        i0, i1 = self.range_of(prefix, exact)
        return DictRange(np.arange(i0, i1), self.terms[i0:i1],
                         self.df[i0:i1], self.trie_rank[i0:i1],
                         self.first_pos[i0:i1], self.first_off[i0:i1])

    def expand_with_bounds(self, prefix: str, exact: bool = False):
        """``expand`` fused with the entries' impact bounds — one RPC
        instead of two for an actor pool's prefetch."""
        r = self.expand(prefix, exact)
        return (r, *self.bounds_arrays(r.idx))

    # padded-matrix width cap: one pathological kilobyte-long dictionary
    # term must not inflate the whole vocab's padding (10M terms × 1KB
    # = 10GB).  Terms longer than the cap (vanishingly rare in real
    # text) take a per-term DP in the tail scan instead.
    _FUZZY_WIDTH_CAP = 48

    def _dict_matrix(self):
        """Lazily-built padded byte matrix of the dictionary (UTF-8),
        shared by every fuzzy expansion on this shard.  One-time O(vocab)
        setup (like the ``terms`` list itself), then every query is pure
        vectorized numpy.  Memory is bounded at vocab × _FUZZY_WIDTH_CAP
        bytes; over-cap terms live in a separate (tiny) index list."""
        dm = getattr(self, "_dmat", None)
        if dm is None:
            cap = self._FUZZY_WIDTH_CAP
            enc = [t.encode() for t in self.terms]
            all_lens = np.fromiter((len(e) for e in enc), np.int64,
                                   count=len(enc))
            short = np.flatnonzero(all_lens <= cap)
            long_idx = np.flatnonzero(all_lens > cap)
            lens = all_lens[short]
            width = int(lens.max()) if len(short) else 0
            mat = np.zeros((len(short), width), dtype=np.uint8)
            if len(short):
                kept = [enc[i] for i in short]
                flat = np.frombuffer(b"".join(kept), dtype=np.uint8)
                rows = np.repeat(np.arange(len(short)), lens)
                cols = _grouped_arange(lens)
                mat[rows, cols] = flat
            dm = self._dmat = (mat, lens, short, long_idx)
        return dm

    def expand_fuzzy(self, term: str, d: int) -> "DictRange":
        """Dictionary terms within byte-level Levenshtein distance ≤ d
        of ``term``, as dictionary entries in term order.  An EXTENSION beyond
        the reference (its trie only supports prefix expansion,
        ``src/query.rs:108-126``); distance is over UTF-8 bytes (≡
        characters for ASCII terms).  Vectorized banded-free DP: the
        row loop runs len(term)+width times, each step an O(vocab)
        numpy kernel — no Python loop over dictionary terms."""
        q = np.frombuffer(term.encode(), dtype=np.uint8)
        mat, lens, short, long_idx = self._dict_matrix()
        # over-cap dictionary terms: candidates only when the length
        # window allows (|len - len(q)| <= d) — a handful at most
        qb = term.encode()
        tail_hits = np.asarray(
            [i for i in long_idx
             if abs(len(self.terms[i].encode()) - len(qb)) <= d
             and _levenshtein_capped(qb, self.terms[i].encode(), d) <= d],
            np.int64)
        cand = np.flatnonzero(np.abs(lens - len(q)) <= d)
        if not len(cand):
            return self._entries(tail_hits)
        sub = mat[cand]
        sl = lens[cand]
        n, width = sub.shape
        # classic DP over (query chars) x (candidate positions), the
        # candidate axis fully vectorized; early-exit rows whose running
        # minimum already exceeds d
        prev = np.broadcast_to(np.arange(width + 1, dtype=np.int32),
                               (n, width + 1)).copy()
        alive = np.arange(n)
        for i in range(1, len(q) + 1):
            cur = np.empty_like(prev)
            cur[:, 0] = i
            cost = (sub != q[i - 1]).astype(np.int32)
            for j in range(1, width + 1):
                np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1,
                           out=cur[:, j])
                np.minimum(cur[:, j], prev[:, j - 1] + cost[:, j - 1],
                           out=cur[:, j])
            keep = cur.min(axis=1) <= d
            if not keep.all():
                alive = alive[keep]
                if not len(alive):
                    # over-cap terms were matched by the tail scan and
                    # are independent of the in-matrix DP — keep them
                    return self._entries(tail_hits)
                cur = cur[keep]
                sub = sub[keep]
            prev = cur
        dist = prev[np.arange(len(alive)), sl[alive]]
        hit = alive[dist <= d]
        return self._entries(np.sort(np.concatenate(
            (short[cand[hit]], tail_hits))))

    def _term_index(self, term: str) -> int:
        i = bisect.bisect_left(self.terms, term)
        if i >= len(self.terms) or self.terms[i] != term:
            return -1
        return i

    def _span(self, idx):
        """Posting positions of dictionary entries ``idx`` and each
        entry's posting count: a plain slice of the CSR arrays when
        ``idx`` is one ascending run (a prefix range), else a gather."""
        idx = np.asarray(idx, np.int64)
        lo = self.post_off[idx]
        n = self.post_off[idx + 1] - lo
        if len(idx) and (np.diff(idx) == 1).all():
            return slice(int(lo[0]), int(lo[0] + n.sum())), n
        return np.repeat(lo, n) + _grouped_arange(n), n

    def tomb_hits_many(self, idx, tomb: np.ndarray) -> np.ndarray:
        """Occurrence-counted df mass that tombstoned docs carry in this
        shard's postings of each entry ``idx``: one membership test over
        the entries' concatenated postings, summed per entry.  The
        coordinator subtracts the sum over every shard holding the
        entries' postings from the dictionary df (``src/index.rs:281-297``;
        a doc's postings live wholly in one shard)."""
        out = np.zeros(len(idx), dtype=np.int64)
        if not len(tomb) or not len(idx):
            return out
        g, n = self._span(idx)
        hit = np.flatnonzero(_in_sorted(self.p_docs[g], tomb))
        if len(hit):
            occ = sum(t[g][hit].astype(np.int64) for t in self.p_tf)
            np.add.at(out, np.searchsorted(np.cumsum(n), hit, "right"), occ)
        return out

    def df_adjusted_many(self, idx, tomb: np.ndarray) -> np.ndarray:
        """Dictionary df of entries ``idx`` less their tombstoned
        occurrences in this shard."""
        idx = np.asarray(idx, np.int64)
        return self.df[idx] - self.tomb_hits_many(idx, tomb)

    def df_adjusted(self, term: str, tomb: np.ndarray) -> int:
        """Occurrence-counted df excluding tombstoned docs
        (``src/index.rs:281-297``)."""
        i0, i1 = self.range_of(term, exact=True)
        return int(self.df_adjusted_many(np.arange(i0, i1), tomb).sum())

    # -- scoring -----------------------------------------------------------

    def score_bm25_batch(self, terms: list[str], idf_boosts, fields_boost,
                         avgs, k1: float, b: float, tomb: np.ndarray,
                         keep_nonpositive: bool = False,
                         topk: int | None = None,
                         floor: float = -np.inf,
                         only_docs: np.ndarray | None = None,
                         term_idx: np.ndarray | None = None):
        """Vectorized BM25 over ALL requested terms' posting lists in one
        pass (``src/score/default/bm25.rs:60-93``): gather the CSR
        slices, concatenate, score the whole concatenation with numpy —
        no per-expansion Python in the hot loop.  Returns
        ``(rank_idx, docs, scores)`` parallel arrays, where rank_idx is
        the position in ``terms`` (or in their dictionary positions
        ``term_idx``, which callers holding them pass instead).

        ``keep_nonpositive=True`` also returns docs whose score is <= 0
        (where the reference's ``score()`` returns ``None``): the
        reference still marks those docs *visited* for the term
        (``src/query.rs:88``, insert outside the ``if let Some``), which
        changes the ``max_score_merger`` outcome for later expansions
        when ``fields_boost`` contains zeros."""
        if term_idx is not None:
            idx = term_idx
        else:
            idx = np.fromiter((self._term_index(t) for t in terms),
                              dtype=np.int64, count=len(terms))
        idx = np.asarray(idx, np.int64)
        present = np.flatnonzero(idx >= 0)
        if not len(present):
            return (np.empty(0, np.int64), np.empty(0, np.uint64),
                    np.empty(0, np.float64))
        gidx, seg_n = self._span(idx[present])
        ranks = np.repeat(present, seg_n)
        docs = self.p_docs[gidx]
        coef = np.repeat(np.asarray(idf_boosts, dtype=np.float64)[present],
                         seg_n)
        if only_docs is not None and len(docs):
            # TAAT suffix restriction: remaining terms can only rescore
            # docs already in the accumulator (sorted broadcast array)
            m = _in_sorted(docs, only_docs)
            if isinstance(gidx, slice):
                gidx = np.arange(gidx.start, gidx.stop)
            gidx, ranks, docs, coef = gidx[m], ranks[m], docs[m], coef[m]
        s = np.zeros(len(docs), dtype=np.float64)
        for x in range(self.num_fields):
            tf = self.p_tf[x][gidx]
            pos = tf > 0.0
            if not pos.any():
                continue
            fl = self.p_len[x][gidx][pos]
            tfp = tf[pos]
            tf_norm = ((k1 + 1.0) * tfp) / (
                k1 * ((1.0 - b) + b * (fl / avgs[x])) + tfp)
            s[pos] += tf_norm * (coef[pos] * fields_boost[x])
        keep = None
        if len(tomb):
            keep = ~_in_sorted(docs, tomb)
        if not keep_nonpositive:
            keep = (s > 0.0) if keep is None else keep & (s > 0.0)
        if keep is not None:
            ranks, docs, s = ranks[keep], docs[keep], s[keep]
        if topk is not None and floor > -np.inf and len(docs):
            # rows below the coordinator's running kth can never enter
            # the top-k under max-merge (== floor kept for tie-break)
            m = s >= floor
            ranks, docs, s = ranks[m], docs[m], s[m]
        if topk is not None and len(docs) > topk:
            # per-doc max then per-shard top-k (ties kept): sound for the
            # single-term prune path because the global score is the max
            # over expansions, and every doc's best appearance lives in
            # exactly one shard — k docs already beat anything cut here.
            d_u, s_u = _reduce_max_by_doc(docs, s)
            if len(d_u) > topk:
                kth = -np.partition(-s_u, topk - 1)[topk - 1]
                m = s_u >= kth
                d_u, s_u = d_u[m], s_u[m]
            return np.zeros(len(d_u), np.int64), d_u, s_u
        return ranks, docs, s

    def score_bm25_topk_pruned(self, idx, idf_boosts, fields_boost,
                               avgs, k1: float, b: float,
                               tomb: np.ndarray, k: int):
        """Single-term exact top-k over dictionary entries ``idx`` with
        impact-bound pruning, run shard-local: the adaptive chunk loop
        (64, 128, 256, ... expansions in descending upper-bound order,
        tie-safe kth cutoff, per-doc max-merge) costs one call per shard
        instead of one RPC round per chunk.  Returns ``(docs, scores)``:
        this shard's top-k with ties kept, which holds every globally
        top-k doc whose best expansion lives here, so a coordinator
        merges shards by per-doc max."""
        idx_all = np.asarray(idx, np.int64)
        idf = np.asarray(idf_boosts, dtype=np.float64)
        # Two bounds, two jobs.  ORDER by the loose tf_max/len_min
        # cross-combination (``_score_ub``): its idf dominance front-
        # loads rare SMALL-df expansions, so round 1 scores few postings
        # yet still establishes the true kth (high-idf terms produce the
        # top scores).  FILTER each chunk by the tight Pareto-frontier
        # bound (``frontier_ub``, ~2x tighter on zipf prefixes): a term
        # survives only if a REAL posting of it could reach the kth.
        # Ordering by the tight bound instead is a measured trap — it
        # promotes hot big-df terms into round 1 ('qua' on the 600k
        # bench index: 195k postings scored vs 39k loose-ordered); the
        # hybrid is never worse and cuts the worst prefix 3x ('cra'
        # 536k → 159k postings, 27 → 9 ms).
        ub_tight = self.frontier_ub(idx_all, idf, fields_boost, avgs,
                                    k1, b)
        ub_loose = _score_ub(*self.bounds_arrays(idx_all), idf,
                             fields_boost, avgs, k1, b)
        order_ub = np.argsort(-ub_loose, kind="stable")
        g_docs = np.empty(0, dtype=np.uint64)
        g_scores = np.empty(0, dtype=np.float64)
        chunk_n = 64
        pos = 0
        while pos < len(order_ub):
            if len(g_scores) >= k:
                kth = np.partition(g_scores, len(g_scores) - k)[
                    len(g_scores) - k]
            else:
                kth = -np.inf
            cand = order_ub[pos:pos + chunk_n]
            # sound break: cand is loose-desc, so every later term's
            # loose ub (>= its actual max score) is below kth too; the
            # _tie_floor threshold keeps kth TIES scoring — a tight
            # bound can EQUAL (or, by float op order, sit one ulp
            # under) a real posting score, and a doc tying the running
            # kth may still win the canonical (score desc, doc id asc)
            # tie-break
            kth_f = _tie_floor(kth)
            if ub_loose[cand[0]] < kth_f:
                break
            sel = cand[ub_tight[cand] >= kth_f]
            # an empty sel is NOT terminal: the tight filter is not the
            # ordering key, so later chunks may still qualify
            if len(sel):
                _, d, s = self.score_bm25_batch(
                    None, idf[sel], fields_boost, avgs, k1, b, tomb,
                    False, k, float(kth), term_idx=idx_all[sel])
                if len(d):
                    g_docs, g_scores = _merge_max(
                        g_docs, g_scores, *_reduce_max_by_doc(d, s))
            pos += chunk_n
            chunk_n *= 2
        return g_docs, g_scores

    def score_bm25_reduced(self, idx, pos, idf_boosts, fields_boost,
                           avgs, k1: float, b: float, tomb: np.ndarray,
                           only_docs=None):
        """Multi-term building block over dictionary entries ``idx``
        whose expansion ranks are ``pos``: like ``score_bm25_batch`` with
        ``keep_nonpositive=True``, but REDUCED PER DOC shard-side so the
        coordinator receives one row per touched doc instead of one per
        (expansion, posting) — the expansion multiplicity never crosses
        the wire.  Returns per-doc parallel arrays:

          docs,  r = min expansion rank visiting the doc,
          f = raw score of that first-visited record (sign matters:
              <=0 is the reference's visited-with-None case),
          p = max positive score over this shard's records,
          q = max positive score excluding the shard-first record.

        The coordinator replaces the globally-first shard's p with its
        q, so ``rest_max`` excludes exactly the one globally-first
        record (``src/query.rs:150-164``)."""
        ranks, docs, s = self.score_bm25_batch(
            None, idf_boosts, fields_boost, avgs, k1, b, tomb,
            keep_nonpositive=True, only_docs=only_docs, term_idx=idx)
        ranks = np.asarray(pos, np.int64)[ranks]
        if not len(docs):
            e = np.empty(0, np.float64)
            return (np.empty(0, np.uint64), np.empty(0, np.int64), e,
                    e.copy(), e.copy())
        order = np.lexsort((ranks, docs))
        d_s, r_s, s_s = docs[order], ranks[order], s[order]
        st = np.flatnonzero(np.concatenate(([True], d_s[1:] != d_s[:-1])))
        pos = np.where(s_s > 0.0, s_s, -np.inf)
        p_u = np.maximum.reduceat(pos, st)
        pos[st] = -np.inf
        q_u = np.maximum.reduceat(pos, st)
        return d_s[st], r_s[st], s_s[st], p_u, q_u

    def bounds_arrays(self, idx):
        """Impact-bound inputs of dictionary entries ``idx``: (tf_max,
        len_min), each (n, F) float64 — the BM25 score upper bounds of
        the top-k prune and the multi-term suffix restriction."""
        idx = np.asarray(idx, np.int64)
        return tuple(np.stack([a[idx] for a in arrs], axis=1)
                     .astype(np.float64)
                     for arrs in (self.tf_max, self.len_min))

    def gather_postings_many(self, idx, tomb: np.ndarray):
        """Live postings of dictionary entries ``idx``, concatenated in
        entry order: (entry of each posting, docs, tfs[F], lens[F]) —
        one slice of the entries' CSR span, tombstoned docs dropped.
        Raw inputs for the scorer plugins (zero_to_one etc.)."""
        g, n = self._span(idx)
        ent = np.repeat(np.arange(len(n)), n)
        docs = self.p_docs[g]
        tfs = [t[g] for t in self.p_tf]
        lens = [ln[g] for ln in self.p_len]
        if len(tomb) and len(docs):
            keep = ~_in_sorted(docs, tomb)
            ent, docs = ent[keep], docs[keep]
            tfs = [t[keep] for t in tfs]
            lens = [ln[keep] for ln in lens]
        return ent, docs, tfs, lens

    def gather_postings(self, term: str, tomb: np.ndarray):
        """Live (docs, tfs, lens) of one stored term, or None."""
        i0, i1 = self.range_of(term, exact=True)
        if i0 == i1:
            return None
        return self.gather_postings_many(np.arange(i0, i1), tomb)[1:]

    def union_docs(self, idx, tomb: np.ndarray) -> np.ndarray:
        """Sorted-unique live doc ids in ANY of entries ``idx``' postings
        (the conjunctive candidates and the exclude set: one call per
        query term covering all its expansions; O(df) ids)."""
        g, _ = self._span(idx)
        d = np.unique(self.p_docs[g])
        if len(tomb) and len(d):
            d = d[~_in_sorted(d, tomb)]
        return d


@dataclass(slots=True)
class DictRange:
    """A shard's dictionary entries for one query term: positions
    ``idx`` (ascending) with their terms, raw df, trie rank and first
    occurrence ``(first_pos, first_off)``.  ``len`` is the entry
    count."""
    idx: np.ndarray
    terms: list
    df: np.ndarray
    rank: np.ndarray
    first_pos: np.ndarray
    first_off: np.ndarray

    def __len__(self) -> int:
        return len(self.terms)


def _write_cache_arrays(cdir: str, num_fields: int, terms, df, first_pos,
                        first_off, rank,
                        post_off, p_docs, p_tf, p_len, tf_max,
                        len_min, fr) -> None:
    """Persist decoded-CSR arrays as the mmap cache dir (atomic rename;
    best-effort — a read-only index dir just skips caching)."""
    import shutil
    import tempfile
    try:
        parent = os.path.dirname(cdir)
        os.makedirs(parent, exist_ok=True)
        # GC caches for the same range but stale manifest states
        prefix = os.path.basename(cdir).rsplit("-", 1)[0] + "-"
        for d in os.listdir(parent):
            if d.startswith(prefix) and os.path.join(parent, d) != cdir:
                shutil.rmtree(os.path.join(parent, d), ignore_errors=True)
        tmp = tempfile.mkdtemp(dir=parent)
        for name, arr in zip(ShardData._CACHE_ARRAYS,
                             (df, first_pos, first_off, rank,
                              post_off, p_docs)):
            np.save(os.path.join(tmp, name + ".npy"), arr)
        for f in range(num_fields):
            np.save(os.path.join(tmp, f"p_tf_{f}.npy"), p_tf[f])
            np.save(os.path.join(tmp, f"p_len_{f}.npy"), p_len[f])
            np.save(os.path.join(tmp, f"tf_max_{f}.npy"), tf_max[f])
            np.save(os.path.join(tmp, f"len_min_{f}.npy"), len_min[f])
        for (m, f), (off, ftf, fln) in fr.items():
            np.save(os.path.join(tmp, f"fr_off_{m}_{f}.npy"), off)
            np.save(os.path.join(tmp, f"fr_tf_{m}_{f}.npy"), ftf)
            np.save(os.path.join(tmp, f"fr_len_{m}_{f}.npy"), fln)
        # length-prefixed utf8 (terms may contain any byte but NUL)
        enc = [t.encode() for t in terms]
        np.save(os.path.join(tmp, "term_lens.npy"),
                np.asarray([len(e) for e in enc], dtype=np.int64))
        with open(os.path.join(tmp, "terms.bin"), "wb") as fh:
            fh.write(b"".join(enc))
        os.replace(tmp, cdir) if not os.path.exists(cdir) else \
            shutil.rmtree(tmp)
    except OSError:
        pass


def _decode_term_file(path: str, F: int):
    """Decode ONE term-sorted parquet shard file into partial CSR arrays
    (runs as a Ray task in the parallel cache build).  Returns
    dictionary-size metadata inline; the posting-size arrays stay in
    the OBJECT STORE (ref) so the driver never touches them."""
    import ray
    from probly_search_ray.functions.mem import tune_allocator
    from probly_search_ray.stages.segment import SEGMENT_SCHEMA
    tune_allocator()
    t = pads.dataset(path).to_table(
        filter=pads.field("term") != "",
        columns=["term", "doc_lo", "df", "first_pos",
                         "first_off", "blob"])
    if not len(t):
        return None
    want = pa.schema([SEGMENT_SCHEMA.field(n) for n in t.column_names])
    sd = ShardData.__new__(ShardData)
    sd.num_fields = F
    sd._load_csr(t.cast(want), F)  # file rows are (term, doc_lo)-sorted
    cnt = np.diff(sd.post_off)
    # zero-posting terms (df-0 vacuum witnesses) own no doc range
    doc_lo = np.zeros(len(cnt), np.uint64)
    doc_hi = np.zeros(len(cnt), np.uint64)
    nz = cnt > 0
    if nz.any():
        doc_lo[nz] = sd.p_docs[sd.post_off[:-1][nz]]
        doc_hi[nz] = sd.p_docs[(sd.post_off[1:] - 1)[nz]]
    big = ray.put((sd.p_docs, sd.p_tf, sd.p_len))
    # per-part Pareto frontier CANDIDATES (already computed by
    # _compute_bounds inside _load_csr): dictionary-scale, returned
    # inline; the driver re-filters the per-term union across parts
    return (sd.terms, sd.df, sd.first_pos, cnt, sd.tf_max, sd.len_min,
            doc_lo, doc_hi, big, sd.fr, sd.first_off)


def _write_cache_slices(tmp_dir: str, F: int, big, dest_starts,
                        counts):
    """Phase-2 writer task: place one part's posting arrays into the
    preallocated memmap .npy files at the destination offsets computed
    by the driver (disjoint ranges across tasks → safe parallel
    writes).  ``big`` arrives as an auto-dereferenced object-store
    ref."""
    from probly_search_ray.functions.mem import tune_allocator
    tune_allocator()
    p_docs, p_tf, p_len = big
    idx = np.repeat(dest_starts, counts) + _grouped_arange(counts)
    mm = np.load(os.path.join(tmp_dir, "p_docs.npy"), mmap_mode="r+")
    mm[idx] = p_docs
    del mm
    for f in range(F):
        mm = np.load(os.path.join(tmp_dir, f"p_tf_{f}.npy"),
                     mmap_mode="r+")
        mm[idx] = p_tf[f]
        del mm
        mm = np.load(os.path.join(tmp_dir, f"p_len_{f}.npy"),
                     mmap_mode="r+")
        mm[idx] = p_len[f]
        del mm
    return True


def build_csr_cache(index_dir: str) -> bool:
    """Build the FULL-RANGE decoded-CSR mmap cache fully in parallel —
    so the first serving engine after a fresh build starts from the
    cache instead of paying a cold single-process varint decode of the
    whole index (minutes at 10⁶+ docs).  Any shard layout slices it.

    Shape (the driver only ever touches DICTIONARY-sized data):
      phase 1 — one Ray task per term file decodes partial CSR arrays;
        posting-sized arrays stay in the object store, only per-term
        metadata returns to the driver;
      merge — the driver stable-sorts dictionary rows by (term, group)
        (groups carry ascending doc ranges for sequential ids, so
        appends keep this path) and computes each part's destination
        offsets — all vocab-sized arithmetic;
      phase 2 — writer tasks place each part's postings into
        PREALLOCATED memmap .npy files at disjoint offsets (parallel
        writes; the driver never materializes a posting array).

    Falls back to the in-process sorted ``ShardData`` load (which also
    writes the cache) for hashed string keys or overlapping per-term
    doc ranges, where postings need a global re-sort.  Returns True
    when a cache exists on exit."""
    import shutil
    import tempfile

    import ray

    man = Manifest(index_dir)
    if not man.data["config"]:
        return False
    F = man.data["config"]["num_fields"]
    cdir = ShardData._cache_path(index_dir, man, None, None)
    if os.path.isdir(cdir):
        return True
    if man.data["config"].get("string_key"):
        ShardData(index_dir)  # hashed ids interleave → needs the re-sort
        return os.path.isdir(cdir)
    recs = sorted(man.term_files(),
                  key=lambda r: (r["term_min"] or "", r["path"]))
    if not recs:
        return False
    task = ray.remote(num_cpus=1)(_decode_term_file)
    results = ray.get([task.remote(os.path.join(index_dir, r["path"]), F)
                       for r in recs])
    grank = {g: i for i, g in
             enumerate(sorted({r["group"] for r in recs}))}
    parts = [(p, grank[r["group"]])
             for p, r in zip(results, recs) if p is not None]
    if not parts:
        return False
    # --- dictionary-level merge (everything here is vocab-sized) -----
    terms = np.asarray([t for p, _ in parts for t in p[0]], dtype=object)
    nrows = len(terms)
    df = np.concatenate([p[1] for p, _ in parts])
    fp = np.concatenate([p[2] for p, _ in parts])
    fo = np.concatenate([p[10] for p, _ in parts])
    cnt = np.concatenate([p[3] for p, _ in parts])
    tfm = [np.concatenate([p[4][f] for p, _ in parts]) for f in range(F)]
    lmn = [np.concatenate([p[5][f] for p, _ in parts]) for f in range(F)]
    doc_lo = np.concatenate([p[6] for p, _ in parts])
    doc_hi = np.concatenate([p[7] for p, _ in parts])
    row_g = np.concatenate([np.full(len(p[0]), g, dtype=np.int64)
                            for p, g in parts])
    o1 = np.argsort(row_g, kind="stable")
    order = o1[np.argsort(terms[o1], kind="stable")]
    t_o = terms[order]
    lo_o, hi_o = doc_lo[order], doc_hi[order]
    if nrows > 1:
        same = t_o[1:] == t_o[:-1]
        if (same & (lo_o[1:] <= hi_o[:-1])).any():
            ShardData(index_dir)  # overlapping doc ranges: global sort
            return os.path.isdir(cdir)
    cnt_o = cnt[order]
    new = np.ones(nrows, dtype=bool)
    new[1:] = t_o[1:] != t_o[:-1]
    runs = np.flatnonzero(new)
    terms_m = [str(t) for t in t_o[runs]]
    df_m = np.add.reduceat(df[order], runs)
    fp_m = np.minimum.reduceat(fp[order], runs)
    run_l = np.diff(np.concatenate((runs, [nrows])))
    fo_o = np.where(fp[order] == np.repeat(fp_m, run_l),
                    fo[order], np.uint32(0xFFFFFFFF))
    fo_m = np.minimum.reduceat(fo_o, runs).astype(np.uint32)
    cnt_m = np.add.reduceat(cnt_o, runs)
    tfm_m = [np.maximum.reduceat(t[order], runs).astype(np.uint32)
             for t in tfm]
    # df-0 witness rows own no postings: their len_min 0 must not drag
    # a merged term's bound down, so they carry the uint32 max instead
    # (a term with ONLY witness rows keeps 0, like _compute_bounds)
    wit = cnt_o == 0
    lmn_m = [np.minimum.reduceat(np.where(wit, np.uint32(0xFFFFFFFF),
                                          l[order]), runs).astype(np.uint32)
             for l in lmn]
    for l in lmn_m:
        l[cnt_m == 0] = 0
    # merge per-part Pareto frontier candidates: union each merged
    # term's candidates across parts, re-filter (dictionary-scale work
    # — candidate width per term is ≤ #distinct tf values; a posting's
    # support class is a per-posting property, so per-part classes
    # union cleanly)
    n_m = len(runs)
    mrow = np.cumsum(new) - 1          # merged term id per ordered row
    fr_m = {}
    for ch in _frontier_channels(F):
        c_cnt = np.concatenate([np.diff(p[9][ch][0]) for p, _ in parts])
        c_tf = np.concatenate([p[9][ch][1] for p, _ in parts])
        c_ln = np.concatenate([p[9][ch][2] for p, _ in parts])
        starts = np.cumsum(c_cnt) - c_cnt
        oc = c_cnt[order]
        gi = np.repeat(starts[order], oc) + _grouped_arange(oc)
        ctid = np.repeat(mrow, oc)
        fr_m[ch] = _pareto_filter(ctid, c_tf[gi], c_ln[gi], n_m)
    post_off = np.concatenate(([0], np.cumsum(cnt_m))).astype(np.int64)
    total = int(post_off[-1])
    # destination offset of each source row: by construction post_off
    # follows the same (term, group) order, so it's the running count
    dest_o = np.cumsum(cnt_o) - cnt_o
    dest = np.empty(nrows, dtype=np.int64)
    dest[order] = dest_o
    # --- preallocate memmaps + phase-2 parallel slice writes ---------
    try:
        parent = os.path.join(index_dir, "cache")
        os.makedirs(parent, exist_ok=True)
        prefix = os.path.basename(cdir).rsplit("-", 1)[0] + "-"
        for d in os.listdir(parent):
            if d.startswith(prefix) and os.path.join(parent, d) != cdir:
                shutil.rmtree(os.path.join(parent, d), ignore_errors=True)
        tmp = tempfile.mkdtemp(dir=parent)
        mm = np.lib.format.open_memmap(
            os.path.join(tmp, "p_docs.npy"), mode="w+",
            dtype=np.uint64, shape=(total,))
        del mm
        for f in range(F):
            for name in (f"p_tf_{f}.npy", f"p_len_{f}.npy"):
                mm = np.lib.format.open_memmap(
                    os.path.join(tmp, name), mode="w+",
                    dtype=np.uint32, shape=(total,))
                del mm
        wtask = ray.remote(num_cpus=1)(_write_cache_slices)
        futs = []
        row0 = 0
        for p, _ in parts:
            nr = len(p[0])
            futs.append(wtask.remote(tmp, F, p[8],
                                     dest[row0:row0 + nr],
                                     cnt[row0:row0 + nr]))
            row0 += nr
        ray.get(futs)
        np.save(os.path.join(tmp, "df.npy"), df_m)
        np.save(os.path.join(tmp, "first_pos.npy"), fp_m)
        np.save(os.path.join(tmp, "first_off.npy"), fo_m)
        np.save(os.path.join(tmp, "trie_rank.npy"),
                trie_rank(terms_m, fp_m, fo_m))
        np.save(os.path.join(tmp, "post_off.npy"), post_off)
        for f in range(F):
            np.save(os.path.join(tmp, f"tf_max_{f}.npy"), tfm_m[f])
            np.save(os.path.join(tmp, f"len_min_{f}.npy"), lmn_m[f])
        for (m, f), (off, ktf, kln) in fr_m.items():
            np.save(os.path.join(tmp, f"fr_off_{m}_{f}.npy"), off)
            np.save(os.path.join(tmp, f"fr_tf_{m}_{f}.npy"), ktf)
            np.save(os.path.join(tmp, f"fr_len_{m}_{f}.npy"), kln)
        enc = [t.encode() for t in terms_m]
        np.save(os.path.join(tmp, "term_lens.npy"),
                np.asarray([len(e) for e in enc], dtype=np.int64))
        with open(os.path.join(tmp, "terms.bin"), "wb") as fh:
            fh.write(b"".join(enc))
        os.replace(tmp, cdir) if not os.path.exists(cdir) else \
            shutil.rmtree(tmp)
    except OSError:
        return False  # cache is best-effort (read-only dir etc.)
    return os.path.isdir(cdir)


def _reduce_max_by_doc(d, s):
    """(docs, scores) → (sorted-unique docs, per-doc MAX score).  The
    one per-doc reduction shape shared by the shard-local top-k cut,
    both prune loops and ``_merge_max`` — the stable sort + run-starts
    + ``maximum.reduceat`` tie subtleties live here once."""
    if not len(d):
        return d, s
    o = np.argsort(d, kind="stable")
    d_s, s_s = d[o], s[o]
    st = np.flatnonzero(np.concatenate(([True], d_s[1:] != d_s[:-1])))
    return d_s[st], np.maximum.reduceat(s_s, st)


def _merge_max(d1, s1, d2, s2):
    """Merge two (sorted docs, scores) maps taking the per-doc max."""
    if not len(d1):
        return d2, s2
    return _reduce_max_by_doc(np.concatenate((d1, d2)),
                              np.concatenate((s1, s2)))


class _SizeOnlyDict(dict):
    """Stand-in for the reference's ``docs`` map in ``before_each`` —
    calculators only use ``len(docs)`` (= N); the actual doc-meta is
    denormalized into the postings."""

    def __init__(self, n: int):
        super().__init__()
        self._n = n

    def __len__(self):
        return self._n


def _in_sorted(values: np.ndarray, sorted_arr: np.ndarray) -> np.ndarray:
    """Membership of values in a sorted array (vectorized anti-join)."""
    idx = np.searchsorted(sorted_arr, values)
    idx = np.minimum(idx, len(sorted_arr) - 1)
    return sorted_arr[idx] == values


class _Exp(NamedTuple):
    """A query term's live expansions in reference trie order with
    their adjusted df and UTF-8 byte lengths.  ``parts`` are the shards
    holding their postings as (shard, dictionary positions, positions in
    ``terms``); ``meta`` holds one such triple per distinct dictionary
    (doc shards share one), for per-term metadata such as bounds."""
    terms: list
    df: np.ndarray
    blen: np.ndarray
    parts: list
    meta: list


_NO_EXP = _Exp([], np.empty(0, np.int64), np.empty(0), [], [])


def _top_k(docs, scores, k, restrict=None, exclude=None):
    """The one result finisher of every scorer: drop docs outside
    ``restrict`` or inside ``exclude`` (sorted arrays), cut to the top
    k keeping every tie of the kth score, and return canonical (score
    desc, doc id asc) order — no Python pass over the full result."""
    keep = np.ones(len(docs), dtype=bool)
    if restrict is not None and len(docs):
        keep &= _in_sorted(docs, restrict)
    if exclude is not None and len(exclude) and len(docs):
        keep &= ~_in_sorted(docs, exclude)
    docs, scores = docs[keep], scores[keep]
    if k is not None and len(docs) > k:
        kth = -np.partition(-scores, k - 1)[k - 1]
        keep = scores >= kth  # tie-safe candidate cut
        docs, scores = docs[keep], scores[keep]
    order = np.lexsort((docs, -scores))
    if k is not None:
        order = order[:k]
    return [(int(d), float(s)) for d, s in zip(docs[order], scores[order])]


class SearchEngine:
    """User-facing query API over a built index (the reference's
    ``Index::query``, ``/root/reference/src/query.rs:21-106``)."""

    def __init__(self, index_dir: str, num_shards: int = 1,
                 use_actors: bool = False, shard_handles=None,
                 prefault: bool = False, doc_shards: int = 0,
                 shard_ranges=None):
        """``shard_handles``: pre-created ``ShardData`` actor handles to
        SHARE across engines (e.g. many bulk-search coordinators over
        one resident shard pool) instead of loading the index again.
        ``prefault=True`` touches every posting page at startup (a
        serving replica's warmup) so queries never pay lazy mmap
        page-in; default off keeps engine start metadata-only.

        ``doc_shards=D``: DOC-sharded serving (SCALE.md "what would
        change first beyond one node") — D shards each hold the full
        term dictionary but only the postings of docs with
        ``doc_id % D == i``.  All of a doc's records are shard-local,
        so per-doc reductions, the TAAT accumulator and conjunctive
        intersection never cross shards, and stopword-scale merges
        shrink from O(df) coordinator rows to D·k.  Results are
        bit-identical to the default layout (df/idf/stats stay global).
        Mutually exclusive with ``num_shards > 1``."""
        if doc_shards and num_shards > 1:
            raise ValueError("doc_shards and num_shards>1 are exclusive")
        self._shared_ranges = shard_ranges
        self.index_dir = index_dir
        self.num_shards = num_shards
        self.doc_shards = int(doc_shards)
        self.use_actors = use_actors or shard_handles is not None
        self._shared_handles = shard_handles
        self._prefault = prefault
        self._load()

    def _load(self):
        man = Manifest(self.index_dir)
        cfg = man.data["config"]
        if not cfg:
            raise FileNotFoundError(
                f"no index at {self.index_dir} (missing/empty manifest.json); "
                f"build one with build_index(...) or the CLI 'build' command")
        self.num_fields = cfg["num_fields"]
        self.tokenizer = get_tokenizer(cfg["tokenizer"])
        self.stats = Stats(self.index_dir)
        self._reload_tombstones()
        self._manifest_sig = self._sig(man)
        if self._shared_handles is not None:
            import ray
            self.shards = list(self._shared_handles)
            self._ray = ray
            # shared pools may pass their term ranges along for routing
            # (unknown → conservative full fan-out)
            self._ranges = getattr(self, "_shared_ranges", None)
            return
        if self.doc_shards:
            D = self.doc_shards
            kwargs = [dict(doc_mod=(i, D)) for i in range(D)]
            self._ranges = None
        else:
            bounds = self._shard_bounds(man, self.num_shards)
            kwargs = [dict(term_lo=lo, term_hi=hi) for lo, hi in bounds]
            # per-shard term ranges → per-term RPC routing (a unigram
            # query touches ONE shard, not the whole pool)
            self._ranges = bounds
        # On a doc-sharded pool a query's temporaries split ~1/D per
        # shard (every shard scores only its own docs), so each actor's
        # arena shrinks accordingly — pool-wide warm cost stays ~one
        # query working set, not D of them.
        arena_cap = max(16 << 20, (64 << 20) // max(self.doc_shards, 1))
        if self.use_actors:
            import ray
            # size CPU requests so the whole pool always schedules, even
            # when shards outnumber available CPUs (else: deadlock)
            avail = ray.cluster_resources().get("CPU", len(kwargs))
            cpus = max(0.1, min(1.0, (avail - 1) / max(len(kwargs), 1)))
            Actor = ray.remote(num_cpus=cpus)(ShardData)
            self.shards = [Actor.remote(self.index_dir, **kw)
                           for kw in kwargs]
            self._ray = ray
            if self._prefault:
                ray.get([s.prefault.remote(arena_cap=arena_cap)
                         for s in self.shards])
        else:
            self.shards = [ShardData(self.index_dir, **kw) for kw in kwargs]
            if self._prefault:
                for s in self.shards:
                    s.prefault(arena_cap=arena_cap)

    @staticmethod
    def _sig(man: Manifest):
        return [(gid, rec.get("vacuum_gen", 0), len(rec["term_files"]))
                for gid, rec in sorted(man.groups.items())]

    def refresh(self) -> bool:
        """Pick up index changes made since load — appended groups
        (incremental ``build_index``), vacuum swaps, removals.  The
        analogue of the reference's shared-``Mutex<Index>`` concurrent
        add+query (``tests/integrations_tests.rs:151-168``): an engine
        serves a consistent snapshot, and ``refresh()`` moves it to the
        latest committed state.  Returns True if shards were reloaded
        (manifest changed); tombstones/stats reload is always applied
        (cheap)."""
        man = Manifest(self.index_dir)
        if self._sig(man) != self._manifest_sig:
            if self._shared_handles is not None:
                # the actors belong to another engine/pool; reloading
                # only this coordinator's stats would mix NEW idf
                # inputs with the actors' OLD postings — refuse loudly
                raise RuntimeError(
                    "index changed under an engine with shared shard "
                    "handles; rebuild the owning pool (the handles) "
                    "instead — this engine cannot reload actors it "
                    "does not own")
            self._load()
            return True
        self.stats = Stats(self.index_dir)
        self._reload_tombstones()
        return False

    def _reload_tombstones(self):
        tids = Tombstones(self.index_dir).doc_ids
        self.tomb = np.sort(np.asarray(tids, dtype=np.uint64))
        # cached entries carry df adjusted for THIS tombstone set (and
        # bounds for this snapshot): a new set starts a new cache
        self._exp_cache: dict[tuple, tuple] = {}

    def _shard_bounds(self, man: Manifest, num_shards: int):
        if num_shards <= 1:
            return [(None, None)]
        mins = sorted(r["term_min"] for r in man.term_files()
                      if r["term_min"] is not None and r["term_min"] != "")
        if not mins:
            return [(None, None)]
        qs = [mins[int(len(mins) * i / num_shards)] for i in range(1, num_shards)]
        qs = sorted(set(qs))
        bounds = []
        lo = None
        for q in qs:
            bounds.append((lo, q))
            lo = q
        bounds.append((lo, None))
        return bounds

    # -- shard fan-out helpers --------------------------------------------

    def _submit(self, calls):
        """Start ``[(shard, method, args)]``: actor refs, all in flight
        at once; in-process shards just run."""
        if self.use_actors:
            return [getattr(s, m).remote(*a) for s, m, a in calls]
        return [getattr(s, m)(*a) for s, m, a in calls]

    def _collect(self, handles):
        return self._ray.get(handles) if self.use_actors else handles

    def _fan(self, calls):
        return self._collect(self._submit(calls))

    def _route(self, term: str):
        """Shards whose term range can contain ``term`` or any term
        prefixed by it.  In a term-sharded pool every per-term call
        routes here: a unigram query touches ONE shard instead of
        broadcasting to the pool (the shape a multi-node deployment
        needs — per-query RPC fan-out is O(terms), not O(shards)).
        Doc-sharded / unknown-range pools fall back to full fan-out
        (routed-away shards would only ever contribute empties, so
        routing is a pure traffic optimization, never a semantics
        change)."""
        ranges = getattr(self, "_ranges", None)
        if ranges is None or len(self.shards) == 1 or not term:
            return self.shards
        last = term[-1]
        if ord(last) >= 0x10FFFF:          # unsuccessorable: stay safe
            return self.shards
        hi_t = term[:-1] + chr(ord(last) + 1)   # prefix-range upper bound
        out = [s for (lo, hi), s in zip(ranges, self.shards)
               if (hi is None or term < hi) and (lo is None or lo < hi_t)]
        return out or [self.shards[0]]

    # -- string keys (reference generic T, src/index.rs:35) ----------------

    def keys_for(self, results) -> list[tuple[str, float]]:
        """Map [(doc_id, score)] back to [(key, score)] for a
        string-keyed index (keymap sidecar, pushdown read of just the
        result ids)."""
        from probly_search_ray.state.keymap import urls_for
        man = Manifest(self.index_dir)
        key_col = man.data["config"].get("orig_key_col", "url")
        m = urls_for(self.index_dir, [d for d, _ in results], key_col)
        return [(m.get(int(d), str(d)), s) for d, s in results]

    # -- query -------------------------------------------------------------

    def query(self, q: str, scorer: str = "bm25", k: int | None = None,
              fields_boost: list[float] | None = None, expand: bool = True,
              k1: float = 1.2, b: float = 0.75,
              require_all: bool = False,
              fuzzy: int = 0,
              exclude: str | None = None) -> list[tuple[int, float]]:
        """Free-text disjunctive query; returns [(doc_id, score)] in
        canonical (score desc, doc_id asc) order, optionally top-k.
        ``expand=False`` disables prefix expansion (exact-term mode, an
        extension over the reference used for SQL-checkable oracles).
        ``require_all=True`` switches to conjunctive (AND) semantics —
        only docs matching EVERY query term (any expansion counts) are
        returned, scored identically to the disjunctive path (an
        extension; the reference is OR-only).
        ``exclude="..."`` (an extension; the reference is OR-only)
        drops every doc matching ANY exclude term (same tokenizer and
        expansion mode as the query) from the result — the NOT side of
        a boolean query.  Exclusion is applied BEFORE top-k selection
        (shard-side top-k pruning is disabled for the query, since a
        pruned candidate set could let excluded docs displace
        legitimate ones), so `k` results are exactly the best k
        surviving docs.
        ``fuzzy=d`` (d > 0, bm25 only) replaces prefix expansion with
        Levenshtein-distance-≤-d dictionary expansion: each query term
        expands to every stored term within edit distance d, scored
        like a prefix expansion (idf · boost, per-doc max merge) with
        boost = 1 for the exact term else
        ln(1 + 1/(1 + |bytes(e)| − |bytes(term)| as abs)) — the
        reference's byte-length-delta boost shape applied to the
        absolute length difference (an extension; the reference trie
        is prefix-only)."""
        fields_boost = fields_boost or [1.0] * self.num_fields
        if fuzzy and scorer != "bm25":
            raise ValueError("fuzzy expansion is bm25-only")
        query_terms = self.tokenizer.py_fn(q)
        qlen = len(query_terms)  # includes empty tokens (src/query.rs:32)
        n_docs = self.stats.num_docs
        avgs = [self.stats.field_avg(f) for f in range(self.num_fields)]

        restrict = None
        if require_all:
            restrict = self._conjunctive_candidates(query_terms, expand,
                                                    fuzzy)
            if restrict is not None and not len(restrict):
                return []
        excl = None
        if exclude:
            excl = self._excluded_docs(self.tokenizer.py_fn(exclude),
                                       expand, fuzzy)

        if scorer == "bm25":
            docs, scores = self._query_bm25(query_terms, fields_boost,
                                            n_docs, avgs, k1, b, expand,
                                            None if (excl is not None
                                                     and len(excl)) else k,
                                            restrict_docs=restrict,
                                            fuzzy=fuzzy)
        elif scorer == "zero_to_one":
            docs, scores = self._query_zero_to_one(query_terms, qlen, expand)
        elif hasattr(scorer, "score"):  # custom calculator (U3)
            docs, scores = self._query_custom(scorer, query_terms, qlen,
                                              fields_boost, avgs, n_docs,
                                              expand)
        else:
            raise ValueError(f"unknown scorer {scorer!r}")
        return _top_k(docs, scores, k, restrict, excl)

    def complete(self, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        """Query autocomplete (an extension; the reference trie walks
        prefixes but exposes no completion API): the stored dictionary
        terms with this prefix ranked by (tombstone-adjusted df desc,
        term asc), top-k.  Term-sharded pools route to only the shards
        whose range can hold the prefix; the per-shard range lookup is
        the same one prefix expansion uses."""
        e = self._exp(prefix, True)
        if not e.terms:
            return []
        top = np.lexsort((np.asarray(e.terms), -e.df))[:k]
        return [(e.terms[i], int(e.df[i])) for i in top]

    def _docs_matching(self, term, expand, fuzzy) -> np.ndarray:
        """Sorted-unique live doc ids in any of the term's expansions'
        postings: one ``union_docs`` call per shard holding them."""
        parts = [d for d in self._fan(
            [(s, "union_docs", (idx, self.tomb))
             for s, idx, _ in self._exp(term, expand, fuzzy).parts
             if len(idx)]) if len(d)]
        return np.unique(np.concatenate(parts)) if parts else \
            np.empty(0, np.uint64)

    def _excluded_docs(self, excl_terms, expand, fuzzy=0) -> np.ndarray:
        """Doc ids matching ANY exclude term — the NOT side of a boolean
        query."""
        parts = [self._docs_matching(t, expand, fuzzy)
                 for t in dict.fromkeys(excl_terms) if t != ""]
        return np.unique(np.concatenate(parts)) if parts else \
            np.empty(0, np.uint64)

    def _conjunctive_candidates(self, query_terms, expand, fuzzy=0):
        """Doc ids matching EVERY distinct non-empty query term, folded
        by intersection on the coordinator; the result is O(min df) and
        restricts all later scoring.  None for a query with no terms."""
        cand = None
        for term in dict.fromkeys(query_terms):
            if term == "":
                continue
            docs = self._docs_matching(term, expand, fuzzy)
            cand = docs if cand is None else \
                np.intersect1d(cand, docs, assume_unique=True)
            if not len(cand):
                return cand
        return cand

    # .. expansions ........................................................

    def _prefetch_expansions(self, query_terms, expand: bool) -> None:
        """Actor-pool RTT eliminator: for every uncached query term, fire
        ONE fused ``expand_with_bounds`` RPC per routed shard — all
        terms' requests in flight CONCURRENTLY — and populate both the
        expansion cache and the bounds cache from the responses.  No-ops
        in-process (no RTT to save) and under tombstones (the responses
        carry raw df; the adjusted df needs the tombstone fan-out)."""
        if not self.use_actors or len(self.tomb):
            return
        todo = [t for t in dict.fromkeys(query_terms)
                if t and (t, expand, 0) not in self._exp_cache]
        asked = {t: self._dict_shards(t, 0) for t in todo}
        refs = {t: [s.expand_with_bounds.remote(t, not expand)
                    for s in asked[t]] for t in todo}
        F = self.num_fields
        for t in todo:
            res = self._ray.get(refs[t])
            e = self._entry(t, 0, asked[t], [r for r, _, _ in res])
            res = [x for x in res if len(x[0])]
            if len(self._exp_cache) >= 65536:
                return
            self._exp_cache[(t, expand, 0)] = e
            if e.terms:
                tfm = np.zeros((len(e.terms), F), dtype=np.float64)
                lmn = np.zeros((len(e.terms), F), dtype=np.float64)
                for (_, idx, pos), (r, t_s, l_s) in zip(e.meta, res):
                    rows = np.searchsorted(r.idx, idx)
                    tfm[pos], lmn[pos] = t_s[rows], l_s[rows]
                self._exp_cache[("__bounds__", t, expand, 0)] = (tfm, lmn)

    def _dict_shards(self, term: str, fuzzy: int):
        """Shards whose dictionary answers for ``term``: shard 0 of a
        doc-sharded pool (one global dictionary), every shard for fuzzy
        expansion (variants need not share the term's prefix range),
        else the term-range routed shards."""
        if self.doc_shards:
            return [self.shards[0]]
        return self.shards if fuzzy else self._route(term)

    def _exp(self, term: str, expand: bool, fuzzy: int = 0) -> "_Exp":
        """A query term's expansion entry, memoized per engine snapshot:
        the dictionary is immutable between refreshes and the adjusted
        df is valid for the tombstone set it was computed under, which
        only ``_reload_tombstones`` changes — and it empties the cache."""
        key = (term, expand, fuzzy)
        e = self._exp_cache.get(key)
        if e is None:
            e = self._expansions_for_uncached(term, expand, fuzzy)
            if len(self._exp_cache) < 65536:
                self._exp_cache[key] = e
        return e

    def _expansions_for(self, term: str, expand: bool, fuzzy: int = 0):
        """(live expansions in reference order, {expansion: adjusted
        df}) — terms with df == 0 are skipped (``src/query.rs:44-48``)
        but still shape the order."""
        e = self._exp(term, expand, fuzzy)
        return e.terms, dict(zip(e.terms, e.df.tolist()))

    def _expansions_for_uncached(self, term: str, expand: bool,
                                 fuzzy: int = 0) -> "_Exp":
        asked = self._dict_shards(term, fuzzy)
        if fuzzy:
            calls = [(s, "expand_fuzzy", (term, fuzzy)) for s in asked]
        else:
            calls = [(s, "expand", (term, not expand)) for s in asked]
        return self._entry(term, fuzzy, asked, self._fan(calls))

    def _entry(self, term, fuzzy, asked, ranges) -> "_Exp":
        """A term's expansion entry from the dictionary ranges the
        ``asked`` shards returned.  One range (in-process, doc-sharded,
        or a prefix inside one term-range shard) is ordered by its
        stored trie rank; ranges from several shards are merged by term
        and ranked afresh over the merged list — the global trie order
        restricted to a prefix's subtree is the subtree's own order.
        Fuzzy expansions order the exact term first, then by term."""
        got = [(s, r) for s, r in zip(asked, ranges) if len(r)]
        if not got:
            return _NO_EXP
        if self.doc_shards:
            # one global dictionary: every shard holds postings of
            # shard 0's entries
            got = [(s, got[0][1]) for s in self.shards]
        distinct = list({id(r): (s, r) for s, r in reversed(got)}.values())
        distinct.reverse()
        if len(distinct) == 1:
            r = distinct[0][1]
            terms_all, raw, rank = r.terms, r.df, r.rank
            where = {id(r): np.arange(len(r))}
        else:
            cat = np.concatenate([np.asarray(r.terms) for _, r in distinct])
            u, first, inv = np.unique(cat, return_index=True,
                                      return_inverse=True)
            terms_all = u.tolist()

            def merged(field):
                return np.concatenate([getattr(r, field)
                                       for _, r in distinct])[first]
            raw = merged("df")
            rank = None if fuzzy else trie_rank(
                terms_all, merged("first_pos"), merged("first_off"),
                len(term))
            offs = np.cumsum([0] + [len(r) for _, r in distinct])
            where = {id(r): inv[o:o + len(r)]
                     for (_, r), o in zip(distinct, offs)}
        if fuzzy:
            rank = np.arange(len(terms_all))
            i = bisect.bisect_left(terms_all, term)
            if i < len(terms_all) and terms_all[i] == term:
                rank[i] = -1
        df = np.array(raw, dtype=np.int64)
        if len(self.tomb):
            hits = self._fan([(s, "tomb_hits_many", (r.idx, self.tomb))
                              for s, r in got])
            for (_, r), h in zip(got, hits):
                df[where[id(r)]] -= h
        order = np.argsort(rank, kind="stable")
        order = order[df[order] > 0]
        pos_all = np.full(len(terms_all), -1, dtype=np.int64)
        pos_all[order] = np.arange(len(order))
        terms = [terms_all[i] for i in order]

        def part(s, r):
            p = pos_all[where[id(r)]]
            live = p >= 0
            return s, np.asarray(r.idx, np.int64)[live], p[live]
        return _Exp(terms, df[order],
                    np.fromiter((len(t.encode()) for t in terms),
                                np.float64, count=len(terms)),
                    [part(s, r) for s, r in got],
                    [part(s, r) for s, r in distinct])

    def _bounds_for(self, term: str, expand: bool, fuzzy: int = 0):
        """Impact-bound matrices (tf_max, len_min — each (n, F) float64,
        aligned to the term's live expansions) for the multi-term
        suffix restriction; fetched LAZILY (only top-k queries pay the
        shard round-trip) and memoized with the expansion cache."""
        key = ("__bounds__", term, expand, fuzzy)
        if key in self._exp_cache:
            return self._exp_cache[key]
        e = self._exp(term, expand, fuzzy)
        tfm = np.zeros((len(e.terms), self.num_fields), dtype=np.float64)
        lmn = np.zeros((len(e.terms), self.num_fields), dtype=np.float64)
        meta = [m for m in e.meta if len(m[1])]
        for (_, _, pos), (t_s, l_s) in zip(meta, self._fan(
                [(s, "bounds_arrays", (idx,)) for s, idx, _ in meta])):
            tfm[pos], lmn[pos] = t_s, l_s
        if len(self._exp_cache) < 65536:
            self._exp_cache[key] = (tfm, lmn)
        return tfm, lmn

    # .. BM25 ..............................................................

    def _query_bm25(self, query_terms, fields_boost, n_docs, avgs, k1, b,
                    expand, k=None, restrict_docs=None, fuzzy=0):
        if not fuzzy:
            self._prefetch_expansions(query_terms, expand)
        term_infos = []
        for term in query_terms:
            if term == "":
                continue
            e = self._exp(term, expand, fuzzy)
            if not e.terms:
                continue
            # vectorized idf × byte-length expansion boost (bit-identical
            # to the scalar formulas: same float64 op order, np.log is
            # the same libm log as math.log)
            freq = np.minimum(float(n_docs), e.df.astype(np.float64))
            idf = np.log(1.0 + (n_docs - freq + 0.5) / (freq + 0.5))
            boost = np.log(1.0 + 1.0 / (1.0 + np.abs(
                e.blen - len(term.encode()))))
            if e.terms[0] == term:  # the exact term leads its expansions
                boost[0] = 1.0
            term_infos.append((term, e, idf * boost))
        parts = [[(s, idx, pos, w[pos]) for s, idx, pos in e.parts
                  if len(idx)] for _, e, w in term_infos]
        if k is not None and len(term_infos) == 1:
            # Exact top-k pruning is valid only when ONE query term
            # contributes postings: the merge is then a pure per-doc max
            # over expansions (prev is always None, so expansion order
            # cannot affect scores).  Every shard runs the prune loop
            # over its own entries in one concurrent round; a doc's best
            # expansion lives in one shard, whose local top-k (ties
            # kept) holds it, so the per-doc max of the union is exact.
            res = self._fan([(s, "score_bm25_topk_pruned",
                              (idx, w, fields_boost, avgs, k1, b,
                               self.tomb, k))
                             for s, idx, _, w in parts[0]])
            if len(res) == 1:
                return res[0]
            return _reduce_max_by_doc(np.concatenate([d for d, _ in res]),
                                      np.concatenate([s for _, s in res]))

        def reduced(ti, only_docs):
            return [(s, "score_bm25_reduced",
                     (idx, pos, w, fields_boost, avgs, k1, b, self.tomb,
                      only_docs)) for s, idx, pos, w in parts[ti]]
        # short multi-term queries on an actor pool: dispatch every
        # term's reduced-scoring RPC CONCURRENTLY — the sequential
        # per-term round-trips dominate warm latency, while the TAAT
        # suffix restriction they enable (a shard-traffic optimization
        # that never changes scores: docs outside the accumulator
        # provably cannot enter the top-k) rarely fires this early.  The
        # merge below still consumes results in term order, so the
        # ranking is byte-identical.  7+-term queries keep the
        # sequential loop: the restriction's savings compound with term
        # count and the remaining-UB sum shrinks as terms are consumed.
        concurrent = None
        if self.use_actors and 2 <= len(term_infos) <= 6:
            concurrent = [self._submit(reduced(ti, restrict_docs))
                          for ti in range(len(term_infos))]
        # per-term score upper bounds for the multi-term TAAT suffix
        # restriction (bounds fetched lazily — only top-k queries pay)
        term_ubs = None
        if k is not None and len(term_infos) > 1 and concurrent is None:
            term_ubs = [float(_score_ub(
                *self._bounds_for(term, expand, fuzzy), w, fields_boost,
                avgs, k1, b).max()) for term, _, w in term_infos]
        g_docs = np.empty(0, dtype=np.uint64)
        g_scores = np.empty(0, dtype=np.float64)
        # conjunctive restriction (if any) applies from the first term;
        # the TAAT suffix restriction below can only tighten it further
        only_docs = restrict_docs
        for ti in range(len(term_infos)):
            if term_ubs is not None and only_docs is None \
                    and ti > 0 and len(g_scores) >= k:
                # docs outside the accumulator can gain at most the sum
                # of the remaining terms' bounds; strictly below the
                # running kth they can neither enter nor tie the top-k,
                # so the remaining terms only rescore accumulator docs
                kth = np.partition(g_scores, len(g_scores) - k)[
                    len(g_scores) - k]
                if sum(term_ubs[ti:]) < kth:
                    only_docs = g_docs.copy()
            # ONE per-doc-REDUCED call per shard for all expansions of
            # this term: shards locally fold their (expansion, posting)
            # records into per-doc (min rank, first score, max positive,
            # max positive excl. shard-first) rows, so coordinator
            # traffic and merge work scale with #docs touched, never
            # with expansion multiplicity.  Docs whose score would be
            # None in the reference are still *visited* (src/query.rs:88)
            # — f carries the raw first-record score, sign and all.
            if concurrent is not None:
                per_shard = self._collect(concurrent[ti])
            else:
                per_shard = self._fan(reduced(ti, only_docs))
            per_shard = [t for t in per_shard if len(t[0])]
            if not per_shard:
                continue
            d_all = np.concatenate([t[0] for t in per_shard])
            r_all = np.concatenate([t[1] for t in per_shard])
            f_all = np.concatenate([t[2] for t in per_shard])
            p_all = np.concatenate([t[3] for t in per_shard])
            q_all = np.concatenate([t[4] for t in per_shard])
            order = np.lexsort((r_all, d_all))
            d_s, f_s = d_all[order], f_all[order]
            p_s, q_s = p_all[order], q_all[order]
            starts = np.flatnonzero(
                np.concatenate(([True], d_s[1:] != d_s[:-1])))
            term_docs = d_s[starts]
            s_first = f_s[starts]
            sf_pos = s_first > 0.0
            # rest_max over *positive* scores only (None-scores never
            # merge); the globally-first shard row contributes q (its
            # max excluding the one globally-first record), others p
            val = p_s
            val[starts] = q_s[starts]
            rest_max = np.maximum.reduceat(val, starts)
            # merge into global scores (max_score_merger semantics):
            #   prev exists, s_first>0 → max(prev + s_first, rest…)
            #   prev exists, s_first<=0 → max(prev, rest…)   (visited-only)
            #   no prev               → max(s_first if >0, rest…)
            idx = np.searchsorted(g_docs, term_docs)
            has_prev = np.zeros(len(term_docs), dtype=bool)
            prev = np.zeros(len(term_docs), dtype=np.float64)
            if len(g_docs):
                idx_c = np.minimum(idx, len(g_docs) - 1)
                has_prev = g_docs[idx_c] == term_docs
                prev = np.where(has_prev, g_scores[idx_c], 0.0)
            base = np.where(
                has_prev,
                np.where(sf_pos, prev + s_first, prev),
                np.where(sf_pos, s_first, -np.inf))
            new_vals = np.maximum(base, rest_max)
            # docs with no positive score this term and no prior entry
            # never enter the scores map
            valid = new_vals > -np.inf
            term_docs = term_docs[valid]
            new_vals = new_vals[valid]
            # build merged arrays
            keep_mask = np.ones(len(g_docs), dtype=bool)
            if len(g_docs) and len(term_docs):
                keep_mask = ~_in_sorted(g_docs, term_docs)
            md = np.concatenate((g_docs[keep_mask], term_docs))
            ms = np.concatenate((g_scores[keep_mask], new_vals))
            o = np.argsort(md, kind="stable")
            g_docs, g_scores = md[o], ms[o]
        return g_docs, g_scores

    def _gather(self, e: "_Exp"):
        """Live postings of all of ``e``'s expansions, one
        ``gather_postings_many`` call per shard holding them:
        (expansion rank of each posting, docs, tfs[F], lens[F])."""
        live = [(s, idx, pos) for s, idx, pos in e.parts if len(idx)]
        res = self._fan([(s, "gather_postings_many", (idx, self.tomb))
                         for s, idx, _ in live])
        F = self.num_fields
        if not res:
            z = np.empty(0, np.int64)
            return z, z.astype(np.uint64), [z] * F, [z] * F
        return (np.concatenate([pos[r[0]] for (_, _, pos), r
                                in zip(live, res)]),
                np.concatenate([r[1] for r in res]),
                [np.concatenate([r[2][x] for r in res]) for x in range(F)],
                [np.concatenate([r[3][x] for r in res]) for x in range(F)])

    # .. custom ScoreCalculator (U3 hook, src/score/calculator.rs:33-70) ....

    def _query_custom(self, calc, query_terms, qlen, fields_boost, avgs,
                      n_docs, expand):
        """Generic path for user ScoreCalculator implementations
        (``probly_search_ray.refmodel.ScoreCalculator`` contract).

        Faithful to the reference visit order: expansions in trie order,
        postings newest-first (descending doc id), ``score()`` invoked
        once per *occurrence* — so stateful calculators observe exactly
        what the reference's posting-list walk would produce.
        """
        from probly_search_ray.refmodel import FieldDetails, TermData, ZeroToOne
        self._prefetch_expansions(query_terms, expand)
        fields = []
        for f in range(self.num_fields):
            fd = FieldDetails()
            fd.sum = self.stats.field_sum(f)
            fd.avg = self.stats.field_avg(f)
            fields.append(fd)
        docs_proxy = _SizeOnlyDict(n_docs)
        scores: dict[int, float] = {}
        node_uid: dict[str, int] = {}
        is_z2o = isinstance(calc, ZeroToOne)
        for qti, term in enumerate(query_terms):
            if term == "":
                continue
            e = self._exp(term, expand)
            visited: set[int] = set()
            rank, docs, tfs, lens = self._gather(e)
            # expansion rank order, postings ascending by doc id within
            # an expansion (doc shards return doc-disjoint slices)
            o = np.lexsort((docs, rank))
            rank, docs = rank[o], docs[o]
            tfs = [t[o] for t in tfs]
            lens = [ln[o] for ln in lens]
            bounds = np.flatnonzero(np.r_[True, rank[1:] != rank[:-1]])
            for a, z in zip(bounds, np.append(bounds[1:], len(rank))):
                if a == z:
                    continue
                ex = e.terms[rank[a]]
                uid = node_uid.setdefault(ex, len(node_uid))
                td = TermData(qti, qlen, term, ex)
                pre = calc.before_each(td, int(e.df[rank[a]]), docs_proxy)
                # newest-first = descending doc id (postings prepended,
                # src/index.rs:422-433); one score() call per occurrence
                for di in range(z - 1, a - 1, -1):
                    key = int(docs[di])
                    tf = [int(t[di]) for t in tfs]
                    fl = [int(ln[di]) for ln in lens]
                    n_vis = int(sum(tf))
                    for _ in range(max(n_vis, 1)):
                        if is_z2o:
                            calc._current_key = key
                        s = calc.score(pre, tf, fl, uid, fields_boost,
                                       fields, td)
                        if s is not None:
                            prev = scores.get(key)
                            if prev is None:
                                new = s
                            elif key in visited:
                                new = max(prev, s)
                            else:
                                new = prev + s
                            scores[key] = new
                        visited.add(key)
        results = [[k, v] for k, v in scores.items()]
        calc.finalize(results)
        return (np.asarray([r[0] for r in results], dtype=np.uint64),
                np.asarray([r[1] for r in results], dtype=np.float64))

    # .. zero_to_one ........................................................

    def _query_zero_to_one(self, query_terms, qlen, expand):
        """Vectorized record gathering + per-(doc,field) pool consumption
        (``src/score/default/zero_to_one.rs:84-126``) over the
        concatenated postings of every query term's expansions.

        Record order within a (doc, field) group must equal the
        reference's stable sort: score desc, ties in insertion order =
        (query term index asc, trie-expansion rank asc)."""
        self._prefetch_expansions(query_terms, expand)
        ents = [(qti, t, self._exp(t, expand))
                for qti, t in enumerate(query_terms) if t != ""]
        ents = [x for x in ents if x[2].terms]
        if not ents:
            return np.empty(0, np.uint64), np.empty(0, np.float64)
        # node uid: one id per distinct expansion term, across query terms
        _, uid_cat = np.unique(
            np.concatenate([np.asarray(e.terms) for _, _, e in ents]),
            return_inverse=True)
        F = self.num_fields
        cols = {n: [] for n in ("doc", "rank", "qti", "score", "uid")}
        tf_p, fl_p = [[] for _ in range(F)], [[] for _ in range(F)]
        u0 = 0
        for qti, term, e in ents:
            rank, docs, tfs, lens = self._gather(e)
            tl = float(len(term.encode()))
            cols["doc"].append(docs)
            cols["rank"].append(rank)
            cols["qti"].append(np.full(len(docs), qti, np.int64))
            cols["score"].append((1.0 - np.abs(e.blen - tl) / e.blen)[rank])
            cols["uid"].append(uid_cat[u0 + rank])
            u0 += len(e.terms)
            for x in range(F):
                tf_p[x].append(tfs[x])
                fl_p[x].append(lens[x])
        P = {n: np.concatenate(v) for n, v in cols.items()}
        candidates = np.unique(P["doc"])
        # one record per (posting, field with tf > 0)
        TF = [np.concatenate(v) for v in tf_p]
        FL = [np.concatenate(v) for v in fl_p]
        sel = [np.flatnonzero(TF[x] > 0) for x in range(F)]
        pi = np.concatenate(sel)
        if not len(pi):
            return candidates, np.zeros(len(candidates))
        fld = np.repeat(np.arange(F, dtype=np.int64), [len(m) for m in sel])
        tf_a = np.concatenate([TF[x][m] for x, m in enumerate(sel)]) \
            .astype(np.int64)
        fl_a = np.concatenate([FL[x][m] for x, m in enumerate(sel)]) \
            .astype(np.int64)
        doc, sc, qti_a, uid_a = (P["doc"][pi], P["score"][pi],
                                 P["qti"][pi], P["uid"][pi])
        order = np.lexsort((P["rank"][pi], qti_a, -sc, fld, doc))
        doc, fld, sc = doc[order], fld[order], sc[order]
        qti_a, uid_a, tf_a, fl_a = (qti_a[order], uid_a[order],
                                    tf_a[order], fl_a[order])
        # group boundaries per (doc, field); records within a group are
        # already in the reference walk order (score desc, then
        # (query term, expansion rank) asc)
        newgrp = np.concatenate(
            ([True], (doc[1:] != doc[:-1]) | (fld[1:] != fld[:-1])))
        starts = np.flatnonzero(newgrp)
        ends = np.concatenate((starts[1:], [len(doc)]))
        n = len(doc)
        gid = (np.cumsum(newgrp) - 1).astype(np.int64)
        ngroups = len(starts)
        # Vectorized pool walk.  The greedy walk consumes the FIRST
        # record of each (group, qti) in walk order — UNLESS the node
        # pool is exhausted when that record arrives, which can only
        # happen if the ignore-pool selection would consume more records
        # of one (group, node) than its tf.  So: select ignoring the
        # pool, then detect violating groups and replay only those with
        # the exact per-record loop (rare: needs the same expansion term
        # under enough distinct query terms to out-count its tf).
        o2 = np.lexsort((np.arange(n, dtype=np.int64), qti_a, gid))
        g2, q2 = gid[o2], qti_a[o2]
        first = np.ones(n, dtype=bool)
        first[1:] = (g2[1:] != g2[:-1]) | (q2[1:] != q2[:-1])
        consumed = np.zeros(n, dtype=bool)
        consumed[o2[first]] = True
        ci = np.flatnonzero(consumed)
        o3 = np.lexsort((ci, uid_a[ci], gid[ci]))
        gc_, uc_, tfc = gid[ci][o3], uid_a[ci][o3], tf_a[ci][o3]
        newrun = np.ones(len(ci), dtype=bool)
        newrun[1:] = (gc_[1:] != gc_[:-1]) | (uc_[1:] != uc_[:-1])
        runs = np.flatnonzero(newrun)
        runlen = np.diff(np.append(runs, len(ci)))
        bad_groups = np.unique(gc_[runs[runlen > tfc[runs]]])
        good = consumed
        if len(bad_groups):
            good = consumed & ~np.isin(gid, bad_groups)
        tf_f = tf_a.astype(np.float64)
        contrib = np.minimum(sc / tf_f, 1.0) * tf_f \
            / np.maximum(fl_a, qlen).astype(np.float64)
        # bincount returns int64 for EMPTY weighted input — cast, or the
        # replay assignments below silently truncate to integers
        acc = np.bincount(gid[good], weights=contrib[good],
                          minlength=ngroups).astype(np.float64)
        for g in bad_groups:  # exact replay of the reference walk
            pool: dict[int, int] = {}
            consumed_q: set[int] = set()
            accv = 0.0
            for i in range(starts[g], ends[g]):
                q = int(qti_a[i])
                if q in consumed_q:
                    continue
                nid = int(uid_a[i])
                if nid in pool:
                    if pool[nid] <= 0:
                        continue
                    pool[nid] -= 1
                else:
                    pool[nid] = int(tf_a[i]) - 1
                consumed_q.add(q)
                accv += min(sc[i] / tf_a[i], 1.0) * tf_a[i] / float(
                    max(fl_a[i], qlen))
            acc[g] = accv
        # doc score = max over its (doc, field) pools; candidates with
        # no positive record score 0
        d0 = doc[starts]
        o = np.argsort(d0, kind="stable")
        d_s, v_s = d0[o], acc[o]
        st2 = np.flatnonzero(np.concatenate(([True], d_s[1:] != d_s[:-1])))
        scores = np.zeros(len(candidates))
        scores[np.searchsorted(candidates, d_s[st2])] = \
            np.maximum.reduceat(v_s, st2)
        return candidates, scores

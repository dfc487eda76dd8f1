"""Query engine: doc-sharded shard readers + coordinator.

Distributed query model (SURVEY.md §3.2 "Ray shape"):

- the index's docs are split into D **disjoint doc partitions**
  (``doc_id % D``); each is served by a ``ShardData`` (in-process, or
  inside a Ray actor pool for serving), and in-process serving is the
  D = 1 case.  Every shard holds the whole term dictionary with its
  GLOBAL df and first occurrence (rows of the same term from all build
  groups are merged at load; df = sum of partials, first_pos = min of
  partials), and the postings of its own docs only.
- a query runs on a coordinator: per query term it (1) looks up the
  prefix's expansions — one contiguous range of shard 0's sorted
  dictionary, (2) orders them by the precomputed trie rank, the
  reference's trie-DFS order (children in reverse creation order,
  reference ``src/query.rs:130-147``; see ``trie_rank``),
  (3) computes BM25 ``before_each`` inputs from global stats
  (``src/score/default/bm25.rs:34-58``), (4) has every shard score its
  own docs' posting lists vectorized, and (5) merges the shards'
  disjoint rows with the exact ``max_score_merger`` semantics
  (``src/query.rs:150-164``): for one query term the doc's contribution
  is ``max(prev + s_first, s_rest…)`` where ``s_first`` is the score of
  the doc's *first-visited* expansion in trie order — the reference's
  (quirky) behaviour, reproduced faithfully.

Tombstones (``src/index.rs:30-32``): shard state per snapshot.
``refresh()`` hands each shard the removed-doc set once; the shard marks
the new docs' postings dead and keeps their occurrence counts per
dictionary entry, so queries skip dead postings with a mask gather and
read df less those counts (``src/index.rs:281-297``), matching
latent-delete semantics exactly.
"""

from __future__ import annotations

import bisect
import contextlib
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from probly_search_ray.functions.codec import (
    FORMAT_VERSION, check_format_version, grouped_arange)
from probly_search_ray.functions.tokenize import get_tokenizer
from probly_search_ray.state.manifest import Manifest, Stats, Tombstones
from probly_search_ray.state.segments import (
    _find_sorted, _in_sorted, _narrow, merge_segments, named_segments,
    read_segment)


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
    # sort by (term, tf desc, length): one np.sort of the three packed
    # into an int64 key, unpacked after, where their bits fit in 63 —
    # no permutation to gather — else a lexsort
    tmax, lmax = int(tf64.max()), int(ln64.max())
    b_tf, b_ln = tmax.bit_length(), lmax.bit_length()
    if (nt - 1).bit_length() + b_tf + b_ln <= 63:
        key = np.sort((np.asarray(tid, np.int64) << (b_tf + b_ln))
                      | ((tmax - tf64) << b_ln) | ln64)
        t_s = key >> (b_tf + b_ln)
        tf_s = tmax - ((key >> b_ln) & ((1 << b_tf) - 1))
        ln_s = key & ((1 << b_ln) - 1)
    else:
        order = np.lexsort((ln64, -tf64, tid))
        t_s, tf_s, ln_s = tid[order], tf64[order], ln64[order]
    # segmented running-min of length over the tf-descending order via
    # an offset trick: give earlier terms LARGER offsets so a prefix
    # min never leaks across a term boundary
    big = lmax + 1
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
    the coordinator (multi-term suffix restriction) and the shard-local
    pushed-down top-k loop (``ShardData.score_bm25_topk_pruned``)."""
    s = np.zeros(len(idf_boosts), dtype=np.float64)
    for f, bb in enumerate(fields_boost):
        if bb == 0.0 or avgs[f] <= 0.0:
            continue
        tf = tfm[:, f]
        s += bb * ((k1 + 1.0) * tf) / (
            k1 * ((1.0 - b) + b * (lmn[:, f] / avgs[f])) + tf)
    return s * np.asarray(idf_boosts, dtype=np.float64)


def trie_rank(terms: list[str], first_pos, first_off) -> np.ndarray:
    """Position of each term in the reference trie's DFS order
    (reference ``src/query.rs:130-147``): a node's own term comes
    first, then its child subtrees newest first — descending minimum
    ``(first_pos, first_off)`` over the subtree, ties by char ascending.
    ``terms`` are sorted and distinct.  Vectorized level by level: a
    subtree is a contiguous run of the sorted terms, so each level sorts
    the child runs under each node and lays out their position blocks.
    The DFS order inside a subtree depends only on the subtree, so
    ranking the whole dictionary once orders every prefix's range:
    argsort the rank slice."""
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
    d = 0
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
    """Term dictionary + postings of one doc partition, merged across
    build groups.  Loaded once (actor ``__init__``), served per query.

    The groups' segments are merged ONCE at load into flat CSR posting
    arrays indexed by ``post_off`` per term: query-time posting access
    is a zero-copy numpy slice, with no per-expansion decode loop — the
    round-1 p95 tail was thousands of rare prefix expansions each
    paying a Python per-block decode.  A cold load (``merge_segments``
    over the segments the manifest names, NumPy only) writes the mmap'd
    cache that later loads read; ``build_csr_cache`` is that same load,
    run ahead of serving.

    A posting holds only what is its own: ``p_ord``, the doc's rank in
    the per-doc table ``doc_ids`` (sorted, so ordinals keep doc-id
    order), and ``p_tf[f]``.  A doc's field lengths live once, in
    ``doc_len[f]``, taken from docmeta (the reference's
    ``DocumentDetails.field_length``, ``src/index.rs:348``).  Shards
    work in ordinal space and map to doc ids only for the rows they
    return."""

    def __init__(self, index_dir: str, use_cache: bool = True,
                 doc_mod: tuple[int, int] | None = None):
        """``doc_mod=(i, D)``: DOC-sharded view — keep the FULL term
        dictionary (terms/df/first_pos/impact bounds stay the GLOBAL
        values) but restrict postings to docs with ``doc_id % D == i``.
        This is the 10^12-doc serving layout from SCALE.md: every doc's
        records live wholly in one shard, so cross-term intersection,
        accumulator merges and per-doc reductions are shard-local, and
        per-query coordinator traffic is D·k rows instead of O(df).
        Hash (mod) partitioning balances arbitrary/skewed id spaces
        with no quantile estimation.  The view is derived from the
        index's one CSR cache (or a fresh merge) and writes no cache of
        its own."""
        self._open(index_dir, use_cache, doc_mod)
        self._index_docs()

    def _open(self, index_dir, use_cache, doc_mod):
        from probly_search_ray.functions.mem import tune_allocator
        tune_allocator()  # shard actors are fresh processes; reuse arena
        # pages so per-query numpy temporaries don't re-fault cold pages
        self._doc_mod = doc_mod
        man = Manifest(index_dir)
        if not man.data["config"]:
            raise FileNotFoundError(
                f"no index at {index_dir} (missing/empty manifest.json); "
                f"build one with build_index(...) or the CLI 'build' command")
        check_format_version(index_dir, man.data["config"].get(
            "format_version"))
        self.num_fields = man.data["config"]["num_fields"]
        # mmap'd CSR cache: the first load of a manifest state merges
        # the segments and persists the flat arrays; later loads
        # np.load(mmap_mode="r") them — engine startup is metadata-only
        # and postings page in lazily per query (the north star's
        # "actor pools holding mmap'd index shards")
        self._cache_dir = None
        if use_cache:
            self._cache_dir = self._cache_path(index_dir, man)
            if self._load_from_cache(self._cache_dir):
                self._apply_doc_mod()
                return
        F = self.num_fields
        seg = merge_segments([read_segment(os.path.join(index_dir, p))
                              for p in named_segments(man.groups)], F)
        self.terms: list[str] = seg["terms"]
        self.df = seg["df"]
        self.first_pos, self.first_off = seg["first_pos"], seg["first_off"]
        self.post_off = seg["post_off"]
        self.p_tf = [_narrow(t) for t in seg["p_tf"]]
        meta = seg["meta"]
        self._attach_docs(seg["p_doc"], meta["doc_id"],
                          [meta[f"len_{f}"] for f in range(F)])
        self._compute_bounds()
        self.trie_rank = trie_rank(self.terms, self.first_pos,
                                   self.first_off)
        if self._cache_dir and self.terms:
            # also for doc-mod views: at this point the arrays ARE the
            # cache content (the view filter applies below),
            # so a cache-cold doc-sharded pool seeds the cache for every
            # later load instead of leaving D actors to re-merge
            self._write_cache(self._cache_dir)
        self._apply_doc_mod()

    # -- mmap'd CSR cache ------------------------------------------------

    @staticmethod
    def _cache_path(index_dir: str, man: Manifest):
        import hashlib
        import json as _json
        sig_src = _json.dumps([
            7,  # cache layout version (v7: named by the segments alone)
            FORMAT_VERSION, named_segments(man.groups)])
        sig = hashlib.md5(sig_src.encode()).hexdigest()[:12]
        return os.path.join(index_dir, "cache", f"csr-{sig}")

    def _write_cache(self, cdir: str) -> None:
        """Save the arrays into a temp dir beside ``cdir``, after
        removing the caches of stale manifest states, and publish it as
        ``cdir`` by an atomic rename.  Best-effort: a read-only index
        dir serves without a cache."""
        import shutil
        import tempfile
        F = self.num_fields
        arrays = {"df": self.df, "first_pos": self.first_pos,
                  "first_off": self.first_off, "trie_rank": self.trie_rank,
                  "post_off": self.post_off, "doc_ids": self.doc_ids,
                  "p_ord": self.p_ord}
        for f in range(F):
            arrays[f"p_tf_{f}"] = self.p_tf[f]
            arrays[f"doc_len_{f}"] = self.doc_len[f]
            arrays[f"tf_max_{f}"] = self.tf_max[f]
            arrays[f"len_min_{f}"] = self.len_min[f]
        for (m, f), arrs in self.fr.items():
            for part, arr in zip(("off", "tf", "len"), arrs):
                arrays[f"fr_{part}_{m}_{f}"] = arr
        # length-prefixed utf8 (terms may contain any byte but NUL)
        enc = [t.encode() for t in self.terms]
        arrays["term_lens"] = np.asarray([len(e) for e in enc],
                                         dtype=np.int64)
        parent = os.path.dirname(cdir)
        prefix = os.path.basename(cdir).rsplit("-", 1)[0] + "-"
        tmp = None
        try:
            os.makedirs(parent, exist_ok=True)
            for d in os.listdir(parent):
                if d.startswith(prefix) and os.path.join(parent, d) != cdir:
                    shutil.rmtree(os.path.join(parent, d), ignore_errors=True)
            tmp = tempfile.mkdtemp(dir=parent)
            for name, arr in arrays.items():
                np.save(os.path.join(tmp, name + ".npy"), arr)
            with open(os.path.join(tmp, "terms.bin"), "wb") as fh:
                fh.write(b"".join(enc))
            if not os.path.exists(cdir):
                os.replace(tmp, cdir)
        except OSError:
            pass
        finally:
            if tmp is not None:
                shutil.rmtree(tmp, ignore_errors=True)

    def _load_from_cache(self, cdir: str) -> bool:
        if not os.path.isdir(cdir):
            return False
        F = self.num_fields
        try:
            with open(os.path.join(cdir, "terms.bin"), "rb") as fh:
                raw = fh.read()
            lens = np.load(os.path.join(cdir, "term_lens.npy"))
            offs = np.concatenate(([0], np.cumsum(lens)))
            terms = [raw[offs[i]:offs[i + 1]].decode()
                     for i in range(len(lens))]

            def load(name, mmap=False):
                # posting arrays stay mmap'd but as plain ndarray views
                # (no copy, same pages): memmap slicing pays
                # __array_finalize__ on every per-query slice.  Per-term
                # and per-doc arrays are small and hot: materialized.
                a = np.load(os.path.join(cdir, name + ".npy"),
                            mmap_mode="r" if mmap else None)
                return a.view(np.ndarray) if mmap else a
            self.p_ord = load("p_ord", True)
            self.p_tf = [load(f"p_tf_{f}", True) for f in range(F)]
            self.terms = terms
            for name in ("df", "first_pos", "first_off", "trie_rank",
                         "doc_ids"):
                setattr(self, name, load(name))
            self.doc_len = [load(f"doc_len_{f}") for f in range(F)]
            self.tf_max = [load(f"tf_max_{f}") for f in range(F)]
            self.len_min = [load(f"len_min_{f}") for f in range(F)]
            self.fr = {(m, f): tuple(load(f"fr_{part}_{m}_{f}")
                                     for part in ("off", "tf", "len"))
                       for m, f in _frontier_channels(F)}
            self.post_off = load("post_off")
            return True
        except (OSError, ValueError):
            return False

    def _apply_doc_mod(self) -> None:
        """Restrict postings to this view's hash partition of the doc
        space (``doc_id % D == i``) — the modulus is taken once per doc,
        and the postings are filtered by one gather of that per-doc
        mask; dictionary and per-term stats keep their GLOBAL values
        (df/idf/bounds must not depend on the shard layout).  The
        per-doc tables keep only this view's docs, renumbered in order,
        so a view's state scales with its own docs."""
        if self._doc_mod is None:
            return
        i, D = self._doc_mod
        mine = self.doc_ids % np.uint64(D) == np.uint64(i)
        # new ordinal of each kept doc (read only where ``mine``)
        remap = (np.cumsum(mine) - 1).astype(_ord_dtype(int(mine.sum())))
        self.doc_ids = self.doc_ids[mine]
        self.doc_len = [dl[mine] for dl in self.doc_len]
        ords = self.p_ord
        # Chunked selection: a one-shot pass allocates posting-sized
        # temporaries in FRESH anonymous pages — where page-zeroing is
        # slow it dominates pool start (a measured ~6x).  Chunk-sized
        # temporaries are REUSED from the tuned arena, and the
        # kept-index array is output-sized (n/D).
        CH = 1 << 22
        parts = [a + np.flatnonzero(mine[ords[a:a + CH]])
                 for a in range(0, len(ords), CH)]
        idx = np.concatenate(parts or [np.empty(0, np.int64)])
        # kept-count strictly before each term boundary == position of
        # the boundary in the sorted kept-index list
        self.post_off = np.searchsorted(
            idx, np.asarray(self.post_off)).astype(np.int64)
        self.p_ord = remap[ords[idx]]
        self.p_tf = [np.asarray(t)[idx] for t in self.p_tf]

    # -- tombstones ----------------------------------------------------------

    def _index_docs(self) -> None:
        """Doc-ordered posting index, built once at load and never
        persisted: ``_doc_perm`` lists posting positions grouped by doc
        ordinal, the postings of ordinal ``o`` being
        ``_doc_perm[_doc_off[o]:_doc_off[o + 1]]`` (offsets from a
        ``bincount`` of ``p_ord``).  It makes applying a removal O(the
        removed docs' postings).  uint32 where it fits: 4 B a posting
        plus 4 B a doc.  Starts with no tombstones."""
        ords = self.p_ord
        wide = len(ords) >= 1 << 32
        cnt = np.bincount(ords.astype(np.int64, copy=False),
                          minlength=len(self.doc_ids))
        perm = np.argsort(ords)
        self._doc_perm = perm if wide else perm.astype(np.uint32)
        self._doc_off = np.concatenate(([0], np.cumsum(cnt))).astype(
            np.int64 if wide else np.uint32)
        self._tomb = np.empty(0, np.uint64)
        self._dead = None       # per-posting mask, once a posting dies
        self._tomb_occ = None   # per-entry df mass of dead postings

    def set_tombstones(self, tomb) -> None:
        """Serve the snapshot whose removed docs are ``tomb`` (sorted,
        unique).  A superset of the current set marks only the new
        docs' postings dead and adds their occurrence counts to
        ``_tomb_occ``; any other set (vacuum clears it) starts again
        from no tombstones.  Queries then skip dead postings with one
        mask gather and read live df as ``df - _tomb_occ``
        (``src/index.rs:281-297``)."""
        tomb = np.asarray(tomb, np.uint64)
        old = self._tomb
        if not _in_sorted(old, tomb).all():
            self._dead = self._tomb_occ = None
            old = old[:0]
        new = tomb[~_in_sorted(tomb, old)]
        self._tomb = tomb
        j = self._ords_of(new)
        lo = self._doc_off[j].astype(np.int64)
        n = self._doc_off[j + 1] - lo
        g = self._doc_perm[np.repeat(lo, n) + grouped_arange(n)] \
            .astype(np.int64)
        if not len(g):
            return
        if self._dead is None:
            self._dead = np.zeros(len(self.p_ord), dtype=bool)
            self._tomb_occ = np.zeros(len(self.terms), dtype=np.int64)
        self._dead[g] = True
        occ = sum(t[g].astype(np.int64) for t in self.p_tf)
        np.add.at(self._tomb_occ,
                  np.searchsorted(self.post_off, g, "right") - 1, occ)

    def _ords_of(self, docs) -> np.ndarray:
        """Ordinals of the doc ids ``docs`` (sorted) that the per-doc
        table holds, ascending."""
        o, hit = _find_sorted(np.asarray(docs, np.uint64), self.doc_ids)
        return o[hit]

    def tombstones(self) -> np.ndarray:
        """The removed-doc set this shard serves (see ``set_tombstones``)."""
        return self._tomb

    def _attach_docs(self, p_docs, doc_ids, doc_len) -> None:
        """Set the per-doc tables and each posting's ordinal.  Every
        segment holds the docmeta of every doc it posts, so a
        posting whose doc the table lacks is a damaged index: a
        ``ValueError``."""
        doc_ids = np.asarray(doc_ids, np.uint64)
        n = len(doc_ids)
        span = int(doc_ids[-1]) - int(doc_ids[0]) + 1 if n else 0
        if n and len(p_docs) and span <= 2 * n \
                and doc_ids[0] <= p_docs.min() and p_docs.max() <= doc_ids[-1]:
            # dense ids (sequential ids, a few files' ranges): look each
            # posting's ordinal up by its offset from the first id, one
            # gather instead of a per-posting binary search
            pos = np.full(span, -1, np.int64)
            pos[(doc_ids - doc_ids[0]).astype(np.intp)] = np.arange(n)
            o = pos[(p_docs - doc_ids[0]).astype(np.intp)]
            hit = o >= 0
        else:
            o, hit = _find_sorted(p_docs, doc_ids)
        if not hit.all():
            miss = np.unique(p_docs[~hit])
            raise ValueError(
                f"{len(miss)} posted doc(s) have no docmeta row (doc "
                f"{int(miss[0])}, ...); rebuild with "
                f"build_index(..., overwrite=True)")
        self.doc_ids = doc_ids
        self.doc_len = [_narrow(np.asarray(dl)) for dl in doc_len]
        self.p_ord = o.astype(_ord_dtype(len(doc_ids)))

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
        # the lengths scoring reads, so the bounds bound real scores
        p_len = [dl[self.p_ord] for dl in self.doc_len]
        seg_n = np.diff(self.post_off)
        # zero-posting terms (df-0 vacuum witnesses): reduceat on a
        # zero-length segment misreads the neighbour (or walks off the
        # end), so the offsets are clipped and those terms read 0
        n_post = int(self.post_off[-1])
        segc = np.minimum(seg, max(n_post - 1, 0))
        empty = seg_n == 0

        def per_term(red, a):
            out = red.reduceat(a, segc).astype(np.uint32) if n_post \
                else np.zeros(nt, np.uint32)
            out[empty] = 0
            return out
        self.tf_max = [per_term(np.maximum, t) for t in self.p_tf]
        self.len_min = [per_term(np.minimum, ln) for ln in p_len]
        tid = np.repeat(np.arange(nt, dtype=np.int64), seg_n)
        support = np.zeros(len(tid), dtype=np.int64)
        for f in range(F):
            support |= (np.asarray(self.p_tf[f]) > 0).astype(np.int64) << f
        self.fr = {}
        for m, f in _frontier_channels(F):
            if m:
                sel = support == m
                self.fr[(m, f)] = _pareto_filter(
                    tid[sel], self.p_tf[f][sel], p_len[f][sel], nt)
            else:
                self.fr[(m, f)] = _pareto_filter(
                    tid, self.p_tf[f], p_len[f], nt)

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
            g = np.repeat(lo, n_f) + grouped_arange(n_f)
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
        for arr in [self.p_ord, *self.p_tf, *fr_arrays]:
            if len(arr):
                # one touch per 4 KiB page faults the whole mapping
                np.add.reduce(arr[:: max(1, 4096 // arr.itemsize)])
            total += arr.nbytes
        if warm_arena and len(self.p_ord):
            want = min(int(len(self.p_ord)) * 56, arena_cap)
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
                cols = grouped_arange(lens)
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
        return np.repeat(lo, n) + grouped_arange(n), n

    def tomb_hits_many(self, idx) -> np.ndarray:
        """Occurrence-counted df mass that tombstoned docs carry in this
        shard's postings of each entry ``idx`` (kept by
        ``set_tombstones``).  The coordinator subtracts the sum over
        every shard holding the entries' postings from the dictionary df
        (``src/index.rs:281-297``; a doc's postings live wholly in one
        shard)."""
        idx = np.asarray(idx, np.int64)
        if self._tomb_occ is None:
            return np.zeros(len(idx), dtype=np.int64)
        return self._tomb_occ[idx]

    def df_adjusted_many(self, idx) -> np.ndarray:
        """Dictionary df of entries ``idx`` less their tombstoned
        occurrences in this shard."""
        idx = np.asarray(idx, np.int64)
        return self.df[idx] - self.tomb_hits_many(idx)

    def df_adjusted(self, term: str) -> int:
        """Occurrence-counted df excluding tombstoned docs
        (``src/index.rs:281-297``)."""
        i0, i1 = self.range_of(term, exact=True)
        return int(self.df_adjusted_many(np.arange(i0, i1)).sum())

    # -- scoring -----------------------------------------------------------

    def score_bm25_batch(self, terms: list[str], idf_boosts, fields_boost,
                         avgs, k1: float, b: float,
                         keep_nonpositive: bool = False,
                         topk: int | None = None,
                         floor: float = -np.inf,
                         only_docs: np.ndarray | None = None,
                         term_idx: np.ndarray | None = None,
                         as_ords: bool = False,
                         drop: np.ndarray | None = None):
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
        when ``fields_boost`` contains zeros.

        ``as_ords=True`` returns doc ordinals instead of doc ids (the
        shard-local callers reduce per doc in ordinal space).

        ``only_docs`` (sorted doc ids) keeps only those docs' records;
        ``drop`` (an ``_ord_set`` table: the excluded docs of a boolean
        query) removes its docs' records with the dead postings, so the
        ``floor`` and ``topk`` cuts see surviving docs only."""
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
        ords = self.p_ord[gidx]
        coef = np.repeat(np.asarray(idf_boosts, dtype=np.float64)[present],
                         seg_n)
        if only_docs is not None and len(ords):
            # TAAT suffix restriction: remaining terms can only rescore
            # docs already in the accumulator (sorted broadcast array)
            m = _in_ord_set(ords, self._ord_set(only_docs, len(ords)))
            if isinstance(gidx, slice):
                gidx = np.arange(gidx.start, gidx.stop)
            gidx, ranks, ords, coef = gidx[m], ranks[m], ords[m], coef[m]
        s = np.zeros(len(ords), dtype=np.float64)
        # a zero average (every value empty) or a NaN one (every doc
        # removed) gives Rust f64's x/0 = inf and 0/0 = NaN, unwarned
        positive = all(a > 0 for a in avgs)
        with contextlib.nullcontext() if positive else \
                np.errstate(divide="ignore", invalid="ignore"):
            for x in range(self.num_fields):
                tf = self.p_tf[x][gidx]
                pos = tf > 0.0
                if not pos.any():
                    continue
                # mode="clip" skips the bounds check: ordinals are in
                # range by construction, and the gather is on the hot path
                fl = self.doc_len[x].take(ords[pos], mode="clip")
                tfp = tf[pos]
                tf_norm = ((k1 + 1.0) * tfp) / (
                    k1 * ((1.0 - b) + b * (fl / avgs[x])) + tfp)
                s[pos] += tf_norm * (coef[pos] * fields_boost[x])
        keep = None
        if self._dead is not None:
            keep = ~self._dead[gidx]
        if drop is not None:
            x = ~_in_ord_set(ords, drop)
            keep = x if keep is None else keep & x
        if not keep_nonpositive:
            keep = (s > 0.0) if keep is None else keep & (s > 0.0)
        if keep is not None:
            ranks, ords, s = ranks[keep], ords[keep], s[keep]
        if topk is not None and floor > -np.inf and len(ords):
            # rows below the coordinator's running kth can never enter
            # the top-k under max-merge (== floor kept for tie-break)
            m = s >= floor
            ranks, ords, s = ranks[m], ords[m], s[m]
        if topk is not None and len(ords) > topk:
            # per-doc max then per-shard top-k (ties kept): sound for the
            # single-term prune path because the global score is the max
            # over expansions, and every doc's best appearance lives in
            # exactly one shard — k docs already beat anything cut here.
            ords, s = _reduce_max_by_doc(ords, s)
            if len(ords) > topk:
                kth = -np.partition(-s, topk - 1)[topk - 1]
                m = s >= kth
                ords, s = ords[m], s[m]
            ranks = np.zeros(len(ords), np.int64)
        return ranks, ords if as_ords else self.doc_ids[ords], s

    def score_bm25_topk_pruned(self, idx, idf_boosts, fields_boost,
                               avgs, k1: float, b: float, k: int,
                               exclude=None):
        """Single-term exact top-k over dictionary entries ``idx`` with
        impact-bound pruning, run shard-local: the adaptive chunk loop
        (64, 128, 256, ... expansions in descending upper-bound order,
        tie-safe kth cutoff, per-doc max-merge) costs one call per shard
        instead of one RPC round per chunk.  Returns ``(docs, scores)``:
        this shard's top-k with ties kept, which holds every globally
        top-k doc whose best expansion lives here, so a coordinator
        merges shards by per-doc max.

        ``exclude`` (sorted doc ids) leaves before any kth is taken —
        the eager input filter of an external top-k sort — so the kth
        is that of the surviving docs and the cut stays exact."""
        idx_all = np.asarray(idx, np.int64)
        idf = np.asarray(idf_boosts, dtype=np.float64)
        drop = None if exclude is None else \
            self._ord_set(exclude, self._n_postings(idx_all))
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
        g_docs = np.empty(0, dtype=self.p_ord.dtype)   # ordinals
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
                    None, idf[sel], fields_boost, avgs, k1, b,
                    False, k, float(kth), term_idx=idx_all[sel],
                    as_ords=True, drop=drop)
                if len(d):
                    g_docs, g_scores = _merge_max(
                        g_docs, g_scores, *_reduce_max_by_doc(d, s))
            pos += chunk_n
            chunk_n *= 2
        return self.doc_ids[g_docs], g_scores

    def score_bm25_reduced(self, idx, pos, idf_boosts, fields_boost,
                           avgs, k1: float, b: float, only_docs=None,
                           exclude=None):
        """Multi-term building block over dictionary entries ``idx``
        whose expansion ranks are ``pos``: like ``score_bm25_batch`` with
        ``keep_nonpositive=True``, but REDUCED PER DOC shard-side so the
        coordinator receives one row per touched doc instead of one per
        (expansion, posting) — the expansion multiplicity never crosses
        the wire.  Returns per-doc parallel arrays, rows sorted by doc
        id:

          docs,
          f = raw score of the doc's first-visited record, the one of
              least expansion rank (sign matters: <=0 is the
              reference's visited-with-None case),
          p = max positive score over the doc's records.

        The reference folds a doc's records in expansion order
        (``src/query.rs:130-164``): the first adds to the doc's score
        from earlier terms, later ones take the max — max(prev + f, p),
        where p may include f since scores are positive and
        prev + f >= f.

        The fold is one scatter pass, with no sort: each record gets its
        doc's slot, ``minimum.at`` gives the least rank r, the record
        whose rank equals its slot's r is the doc's first (one record
        per (expansion, doc)) and ``maximum.at`` gives p.  The slot is
        the ordinal where records are dense (``_dense``), else the
        ordinal's index among the unique ones, so a rare term pays no
        O(docs) fill.  ``only_docs`` and ``exclude`` (sorted doc ids)
        restrict the records as in ``score_bm25_batch``."""
        idx = np.asarray(idx, np.int64)
        drop = None if exclude is None else \
            self._ord_set(exclude, self._n_postings(idx))
        ranks, ords, s = self.score_bm25_batch(
            None, idf_boosts, fields_boost, avgs, k1, b,
            keep_nonpositive=True, only_docs=only_docs, term_idx=idx,
            as_ords=True, drop=drop)
        ranks = np.asarray(pos, np.int64)[ranks]
        if not len(ords):
            e = np.empty(0, np.float64)
            return np.empty(0, np.uint64), e, e.copy()
        dense = self._dense(len(ords))
        if dense:
            slot, n = ords, len(self.doc_ids)
        else:
            u, slot = np.unique(ords, return_inverse=True)
            n = len(u)
        none = np.iinfo(np.int64).max
        r = np.full(n, none, dtype=np.int64)
        np.minimum.at(r, slot, ranks)
        first = ranks == r[slot]
        f = np.empty(n, dtype=np.float64)
        f[slot[first]] = s[first]
        p = np.full(n, -np.inf)
        np.maximum.at(p, slot, np.where(s > 0.0, s, -np.inf))
        if dense:
            u = np.flatnonzero(r != none)
            f, p = f[u], p[u]
        return self.doc_ids[u], f, p

    def zero_to_one_winners(self, idx, prio):
        """One query term's zero-to-one records, folded shard-side to
        one row per (doc, field): of the live postings of dictionary
        entries ``idx`` with tf > 0 in the field, the one whose entry
        comes first in ``prio`` (each entry's place in the
        coordinator's (score desc, expansion rank asc) order, a
        permutation of the entries' positions) — the record the
        reference's per-(doc, field) walk takes first for this term
        (``src/score/default/zero_to_one.rs:84-126``).  Returns parallel
        arrays (docs, field, entry = position in ``idx``, tf, field
        length), one field's rows after another.

        One scatter per field, as in ``score_bm25_reduced``:
        ``minimum.at`` puts each slot's least priority, and the posting
        holding it (one posting per (entry, doc)) is the winner.  The
        slot is the doc ordinal where the postings are dense over the
        doc table (``_dense``), else the index among the unique
        ordinals.  Dead postings are dropped as in
        ``gather_postings_many``."""
        g, n = self._span(idx)
        prio = np.asarray(prio, np.int64)
        pr = np.repeat(prio, n)
        ent_of = np.empty(len(prio), np.int64)
        ent_of[prio] = np.arange(len(prio))
        if self._dead is not None:
            live = ~self._dead[g]
            if isinstance(g, slice):
                g = np.arange(g.start, g.stop)
            g, pr = g[live], pr[live]
        ords = self.p_ord[g]
        if self._dense(len(ords)):
            slot, n_slot = ords, len(self.doc_ids)
        else:
            u, slot = np.unique(ords, return_inverse=True)
            n_slot = len(u)
        none = np.iinfo(np.int64).max
        cols = [[] for _ in range(5)]
        for x in range(self.num_fields):
            tf = self.p_tf[x][g]
            m = np.flatnonzero(tf > 0)
            sm, pm = slot[m], pr[m]
            best = np.full(n_slot, none, dtype=np.int64)
            np.minimum.at(best, sm, pm)
            w = m[pm == best[sm]]
            o = ords[w]
            for c, v in zip(cols, (self.doc_ids[o], np.full(len(w), x),
                                   ent_of[pr[w]], tf[w],
                                   self.doc_len[x][o])):
                c.append(v)
        return tuple(np.concatenate(c) for c in cols)

    def bounds_arrays(self, idx):
        """Impact-bound inputs of dictionary entries ``idx``: (tf_max,
        len_min), each (n, F) float64 — the BM25 score upper bounds of
        the top-k prune and the multi-term suffix restriction."""
        idx = np.asarray(idx, np.int64)
        return tuple(np.stack([a[idx] for a in arrs], axis=1)
                     .astype(np.float64)
                     for arrs in (self.tf_max, self.len_min))

    def gather_postings_many(self, idx):
        """Live postings of dictionary entries ``idx``, concatenated in
        entry order: (entry of each posting, docs, tfs[F], lens[F]) —
        one slice of the entries' CSR span, dead postings dropped, the
        doc ids and field lengths gathered from the per-doc tables.
        Raw inputs for the custom scorer path and for zero_to_one's
        exact walk over docs whose node pool runs dry (the common case
        folds shard-side, ``zero_to_one_winners``)."""
        g, n = self._span(idx)
        ent = np.repeat(np.arange(len(n)), n)
        if self._dead is not None:
            live = ~self._dead[g]
            if isinstance(g, slice):
                g = np.arange(g.start, g.stop)
            g, ent = g[live], ent[live]
        ords = self.p_ord[g]   # in range: "clip" skips the bounds check
        return (ent, self.doc_ids.take(ords, mode="clip"),
                [t[g] for t in self.p_tf],
                [dl.take(ords, mode="clip") for dl in self.doc_len])

    def gather_postings(self, term: str):
        """Live (docs, tfs, lens) of one stored term, or None."""
        i0, i1 = self.range_of(term, exact=True)
        if i0 == i1:
            return None
        return self.gather_postings_many(np.arange(i0, i1))[1:]

    def union_docs(self, idx) -> np.ndarray:
        """Sorted-unique live doc ids in ANY of entries ``idx``' postings
        (the conjunctive candidates and the exclude set: one call per
        query term covering all its expansions; O(df) ids).  Dense
        postings mark a per-doc mask instead of sorting."""
        g, _ = self._span(idx)
        o = self.p_ord[g]
        if self._dead is not None:
            o = o[~self._dead[g]]
        if not self._dense(len(o)):
            return self.doc_ids[np.unique(o)]
        m = np.zeros(len(self.doc_ids), dtype=bool)
        m[o] = True
        return self.doc_ids[np.flatnonzero(m)]

    # -- per-doc sets --------------------------------------------------------

    def _dense(self, n: int) -> bool:
        """Whether ``n`` records are dense over the doc table: then an
        O(docs) per-doc array costs no more than O(n) work on the
        records (one rule for every per-doc mask, scatter and set)."""
        return len(self.doc_ids) <= 256 * n

    def _n_postings(self, idx) -> int:
        """Stored postings of dictionary entries ``idx``."""
        return int((self.post_off[idx + 1] - self.post_off[idx]).sum())

    def _ord_set(self, docs, n: int) -> np.ndarray:
        """Doc ids ``docs`` (sorted) as a membership table over ordinals
        for ``n`` records (``_in_ord_set``): a per-doc bool mask where
        they are dense, else the sorted ordinals."""
        o = self._ords_of(docs)
        if not self._dense(n):
            return o
        m = np.zeros(len(self.doc_ids), dtype=bool)
        m[o] = True
        return m


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


def _ord_dtype(n_docs: int) -> np.dtype:
    """Doc ordinals are uint32 up to 2³² docs."""
    return np.dtype(np.uint32 if n_docs <= 1 << 32 else np.uint64)


def build_csr_cache(index_dir: str) -> bool:
    """Write the CSR mmap cache of the index's current manifest state,
    so the first serving engine after a build or a maintenance step
    starts from the cache instead of a cold segment merge.  It is
    ``ShardData``'s own cold load (one in-process merge, the same
    bytes any cold load writes) without the serving-only parts: no
    doc-ordered posting index, no doc-mod view.  Every doc shard
    filters this one cache.  Returns True when a cache exists on
    exit."""
    man = Manifest(index_dir)
    if not man.data["config"]:
        return False
    if os.path.isdir(ShardData._cache_path(index_dir, man)):
        return True
    sd = ShardData.__new__(ShardData)
    sd._open(index_dir, use_cache=True, doc_mod=None)
    # read the removal lookup's docmeta of the new segments now: the
    # first removal after a build or a maintenance step then finds it
    from probly_search_ray.maintain import _docmeta_files
    _docmeta_files(index_dir)
    return os.path.isdir(sd._cache_dir)


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
    calculators only use ``len(docs)`` (= N); the doc lengths live in
    the shards' per-doc tables."""

    def __init__(self, n: int):
        super().__init__()
        self._n = n

    def __len__(self):
        return self._n


def _union_sorted(parts) -> np.ndarray:
    """Union of sorted-unique doc id arrays; one part is its own union."""
    if len(parts) == 1:
        return parts[0]
    return np.unique(np.concatenate(parts)) if parts else \
        np.empty(0, np.uint64)


def _in_ord_set(ords: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Membership of ordinals in a ``ShardData._ord_set`` table."""
    return table[ords] if table.dtype == bool else _in_sorted(ords, table)


class _Exp(NamedTuple):
    """A query term's live expansions in reference trie order with
    their adjusted df and UTF-8 byte lengths.  ``idx`` are their
    positions in the global dictionary every shard holds, ascending, and
    ``pos`` the position in ``terms`` of each."""
    terms: list
    df: np.ndarray
    blen: np.ndarray
    idx: np.ndarray
    pos: np.ndarray
    raw: np.ndarray   # dictionary df of ``terms``, before tombstones
    gen: int          # the engine's tombstone generation of ``df``


_NO_EXP = _Exp([], np.empty(0, np.int64), np.empty(0),
               np.empty(0, np.int64), np.empty(0, np.int64),
               np.empty(0, np.int64), 0)


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

    def __init__(self, index_dir: str, use_actors: bool = False,
                 shard_handles=None, prefault: bool = False,
                 doc_shards: int = 1):
        """``doc_shards=D``: DOC-sharded serving (SCALE.md "what would
        change first beyond one node") — D shards each hold the full
        term dictionary but only the postings of docs with
        ``doc_id % D == i``.  All of a doc's records are shard-local,
        so per-doc reductions, the TAAT accumulator and conjunctive
        intersection never cross shards, and stopword-scale merges
        shrink from O(df) coordinator rows to D·k.  Results are
        bit-identical for every D (df/idf/stats stay global); the
        default D = 1 is one shard holding every doc.
        ``shard_handles``: pre-created ``ShardData`` actor handles to
        SHARE across engines (e.g. many bulk-search coordinators over
        one resident shard pool) instead of loading the index again;
        D is their count.
        ``prefault=True`` touches every posting page at startup (a
        serving replica's warmup) so queries never pay lazy mmap
        page-in; default off keeps engine start metadata-only."""
        if shard_handles is not None:
            doc_shards = len(shard_handles)
        if doc_shards < 1:
            raise ValueError(f"doc_shards must be >= 1, got {doc_shards}")
        self.index_dir = index_dir
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
        self._manifest_sig = self._sig(man)
        self._groups = man.groups
        self._open_shards()
        # new shards serve no tombstones and a new dictionary: start the
        # snapshot state afresh
        self.tomb = np.empty(0, np.uint64)
        self._tomb_gen = 0
        self._exp_cache: dict[tuple, tuple] = {}
        self._reload_state()

    def _open_shards(self):
        if self._shared_handles is not None:
            import ray
            self.shards = list(self._shared_handles)
            self._ray = ray
            return
        D = self.doc_shards
        # one shard holds every doc: no view filter to pay at load
        kwargs = [dict(doc_mod=(i, D)) if D > 1 else {} for i in range(D)]
        # A query's temporaries split ~1/D per shard (every shard scores
        # only its own docs), so each actor's arena shrinks accordingly —
        # pool-wide warm cost stays ~one query working set, not D of them.
        arena_cap = max(16 << 20, (64 << 20) // D)
        if self.use_actors:
            import ray
            # size CPU requests so the whole pool always schedules, even
            # when shards outnumber available CPUs (else: deadlock)
            avail = ray.cluster_resources().get("CPU", D)
            cpus = max(0.1, min(1.0, (avail - 1) / D))
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
        return [(gid, rec.get("segment"))
                for gid, rec in sorted(man.groups.items())]

    def refresh(self) -> bool:
        """Pick up index changes made since load — appended groups
        (incremental ``build_index``), vacuum swaps, removals.  The
        analogue of the reference's shared-``Mutex<Index>`` concurrent
        add+query (``tests/integrations_tests.rs:151-168``): an engine
        serves a consistent snapshot, and ``refresh()`` moves it to the
        latest committed state.  Returns True if shards were reloaded
        (manifest changed), which also empties the expansion cache.
        Otherwise it reloads stats and the tombstone set
        (``_reload_state``): each shard applies only the newly removed
        docs, and cached expansion entries stay, to be revalidated on
        their next lookup (``_exp``)."""
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
        self._reload_state()
        return False

    def _reload_state(self):
        """Read the committed stats and tombstone set, and move the
        shards to the set, one ``set_tombstones`` call per shard when it
        changed.  Tombstones that a crash between a removal's two writes
        left uncounted in ``stats.json`` are applied to the stats in
        memory (``maintain.replay_pending``); the next removal or vacuum
        saves them.  A pool shared with other engines belongs to its
        owner: this engine only checks that the pool serves the same
        set, and refuses to mix snapshots otherwise.  A grown set bumps
        the tombstone generation, which marks cached entries for
        revalidation; any other change (a set that lost docs) empties
        the cache."""
        stats = Stats(self.index_dir)
        if not stats.covers(self._groups):
            # a build crashed between a group's commit and its stats
            # write: the committed records' stats, in memory
            from probly_search_ray.maintain import stats_for
            stats = stats_for(self.index_dir, self._groups,
                              self.num_fields)
        ids = Tombstones(self.index_dir).doc_ids
        if stats.pending(ids):
            # reads the docs' lengths from docmeta (``np.load``):
            # imported only for this crash case
            from probly_search_ray.maintain import replay_pending
            replay_pending(self.index_dir, stats, ids)
        self.stats = stats
        tomb = np.unique(np.asarray(ids, dtype=np.uint64))
        same = np.array_equal(tomb, self.tomb)
        if self._shared_handles is not None:
            if not all(np.array_equal(t, tomb)
                       for t in self._fan(self._calls("tombstones"))):
                raise RuntimeError(
                    "the shared shard pool serves a different tombstone "
                    "set than this index; refresh the engine that owns "
                    "the pool first")
        elif not same:
            self._fan(self._calls("set_tombstones", tomb))
        if same:
            return
        if _in_sorted(self.tomb, tomb).all():
            self._tomb_gen += 1
        else:
            self._exp_cache = {}
        self.tomb = tomb

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

    def _calls(self, method: str, *args):
        """The same call on every shard, for ``_submit``/``_fan``."""
        return [(s, method, args) for s in self.shards]

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
        a boolean query.  For bm25 the excluded docs' records leave
        shard-side before any top-k cut, so top-k pruning stays on and
        `k` results are exactly the best k surviving docs.
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
                                            n_docs, avgs, k1, b, expand, k,
                                            restrict_docs=restrict,
                                            fuzzy=fuzzy, exclude_docs=excl)
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
        term asc), top-k.  Shard 0's dictionary answers, with the same
        range lookup prefix expansion uses."""
        e = self._exp(prefix, True)
        if not e.terms:
            return []
        top = np.lexsort((np.asarray(e.terms), -e.df))[:k]
        return [(e.terms[i], int(e.df[i])) for i in top]

    def _docs_matching(self, term, expand, fuzzy) -> np.ndarray:
        """Sorted-unique live doc ids in any of the term's expansions'
        postings: one ``union_docs`` call per shard."""
        idx = self._exp(term, expand, fuzzy).idx
        if not len(idx):
            return np.empty(0, np.uint64)
        return _union_sorted([d for d in self._fan(
            self._calls("union_docs", idx)) if len(d)])

    def _excluded_docs(self, excl_terms, expand, fuzzy=0) -> np.ndarray:
        """Doc ids matching ANY exclude term — the NOT side of a boolean
        query."""
        return _union_sorted([self._docs_matching(t, expand, fuzzy)
                              for t in dict.fromkeys(excl_terms)
                              if t != ""])

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
        ONE fused ``expand_with_bounds`` RPC to shard 0 — all terms'
        requests in flight CONCURRENTLY — and populate both the
        expansion cache and the bounds cache from the responses.  No-ops
        in-process (no RTT to save)."""
        if not self.use_actors:
            return
        todo = [t for t in dict.fromkeys(query_terms)
                if t and (t, expand, 0) not in self._exp_cache]
        refs = {t: self.shards[0].expand_with_bounds.remote(t, not expand)
                for t in todo}
        F = self.num_fields
        for t in todo:
            r, t_s, l_s = self._ray.get(refs[t])
            e = self._entry(t, 0, r)
            if len(self._exp_cache) >= 65536:
                return
            self._exp_cache[(t, expand, 0)] = e
            if e.terms:
                tfm = np.zeros((len(e.terms), F), dtype=np.float64)
                lmn = np.zeros((len(e.terms), F), dtype=np.float64)
                rows = np.searchsorted(r.idx, e.idx)
                tfm[e.pos], lmn[e.pos] = t_s[rows], l_s[rows]
                self._exp_cache[("__bounds__", t, expand, 0)] = (tfm, lmn)

    def _exp(self, term: str, expand: bool, fuzzy: int = 0) -> "_Exp":
        """A query term's expansion entry, memoized until the manifest
        changes (a reload empties the cache).  Removals only lower df,
        so an entry made under an older tombstone generation is
        revalidated on its next lookup: its live df is re-read as the
        dictionary df less the shards' dead mass.  If every df stays
        > 0 the entry is kept with the new df, and its bounds entry with
        it (tf_max / len_min stay upper bounds under removal); if an
        expansion fell to df 0 it leaves the term's list, so the entry
        and its bounds are rebuilt."""
        key = (term, expand, fuzzy)
        e = self._exp_cache.get(key)
        if e is not None and e.gen != self._tomb_gen:
            df = self._live_df(e.raw, e.idx, e.pos)
            if (df > 0).all():
                e = self._exp_cache[key] = e._replace(
                    df=df, gen=self._tomb_gen)
            else:
                del self._exp_cache[key]
                self._exp_cache.pop(("__bounds__", *key), None)
                e = None
        if e is None:
            e = self._expansions_for_uncached(term, expand, fuzzy)
            if len(self._exp_cache) < 65536:
                self._exp_cache[key] = e
        return e

    def _live_df(self, raw, idx, pos) -> np.ndarray:
        """Dictionary df ``raw`` less the dead mass every shard holds in
        entries ``idx``, whose positions in ``raw`` are ``pos``."""
        df = np.array(raw, dtype=np.int64)
        if len(self.tomb) and len(idx):
            for h in self._fan(self._calls("tomb_hits_many", idx)):
                df[pos] -= h
        return df

    def _expansions_for(self, term: str, expand: bool, fuzzy: int = 0):
        """(live expansions in reference order, {expansion: adjusted
        df}) — terms with df == 0 are skipped (``src/query.rs:44-48``)
        but still shape the order."""
        e = self._exp(term, expand, fuzzy)
        return e.terms, dict(zip(e.terms, e.df.tolist()))

    def _expansions_for_uncached(self, term: str, expand: bool,
                                 fuzzy: int = 0) -> "_Exp":
        s0 = self.shards[0]
        call = (s0, "expand_fuzzy", (term, fuzzy)) if fuzzy else \
            (s0, "expand", (term, not expand))
        return self._entry(term, fuzzy, self._fan([call])[0])

    def _entry(self, term, fuzzy, r: "DictRange") -> "_Exp":
        """A term's expansion entry from the dictionary range ``r`` of
        shard 0, ordered by its stored trie rank; fuzzy expansions order
        the exact term first, then by term."""
        if not len(r):
            return _NO_EXP
        rank = r.rank
        if fuzzy:
            rank = np.arange(len(r))
            i = bisect.bisect_left(r.terms, term)
            if i < len(r.terms) and r.terms[i] == term:
                rank[i] = -1
        idx = np.asarray(r.idx, np.int64)
        df = self._live_df(r.df, idx, slice(None))
        order = np.argsort(rank, kind="stable")
        order = order[df[order] > 0]
        pos = np.full(len(r), -1, dtype=np.int64)
        pos[order] = np.arange(len(order))
        live = pos >= 0
        terms = [r.terms[i] for i in order]
        return _Exp(terms, df[order],
                    np.fromiter((len(t.encode()) for t in terms),
                                np.float64, count=len(terms)),
                    idx[live], pos[live],
                    np.asarray(r.df, np.int64)[order], self._tomb_gen)

    def _bounds_for(self, term: str, expand: bool, fuzzy: int = 0):
        """Impact-bound matrices (tf_max, len_min — each (n, F) float64,
        aligned to the term's live expansions) for the multi-term
        suffix restriction; fetched LAZILY (only top-k queries pay the
        shard round-trip) and memoized with the expansion cache."""
        e = self._exp(term, expand, fuzzy)   # first: may drop stale bounds
        key = ("__bounds__", term, expand, fuzzy)
        if key in self._exp_cache:
            return self._exp_cache[key]
        tfm = np.zeros((len(e.terms), self.num_fields), dtype=np.float64)
        lmn = np.zeros((len(e.terms), self.num_fields), dtype=np.float64)
        if len(e.idx):
            # bounds are per dictionary entry, the same on every shard
            (t_s, l_s), = self._fan([(self.shards[0], "bounds_arrays",
                                      (e.idx,))])
            tfm[e.pos], lmn[e.pos] = t_s, l_s
        if len(self._exp_cache) < 65536:
            self._exp_cache[key] = (tfm, lmn)
        return tfm, lmn

    # .. BM25 ..............................................................

    def _query_bm25(self, query_terms, fields_boost, n_docs, avgs, k1, b,
                    expand, k=None, restrict_docs=None, fuzzy=0,
                    exclude_docs=None):
        """BM25 ``(docs, scores)``, docs ascending, merged term by term
        as the reference's ``max_score_merger`` does
        (``src/query.rs:130-164``).  Each term's per-doc rows
        (``score_bm25_reduced``) enter the sorted accumulator at their
        ``searchsorted`` positions: docs already there are updated in
        place, new ones inserted, nothing re-sorted.  The conjunctive
        ``restrict_docs`` and the excluded ``exclude_docs`` (sorted doc
        ids) filter records shard-side before any top-k cut, so
        pruning stays exact under both."""
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
        # each term's weights in the order of its dictionary positions
        w_idx = [w[e.pos] for _, e, w in term_infos]
        if exclude_docs is not None and not len(exclude_docs):
            exclude_docs = None
        if k is not None and len(term_infos) == 1:
            # Exact top-k pruning is valid only when ONE query term
            # contributes postings: the merge is then a pure per-doc max
            # over expansions (prev is always None, so expansion order
            # cannot affect scores).  Every shard runs the prune loop
            # over its own entries in one concurrent round; a doc's best
            # expansion lives in one shard, whose local top-k (ties
            # kept) holds it, so the per-doc max of the union is exact.
            res = self._fan(self._calls(
                "score_bm25_topk_pruned", term_infos[0][1].idx, w_idx[0],
                fields_boost, avgs, k1, b, k, exclude_docs))
            if len(res) == 1:
                return res[0]
            return _reduce_max_by_doc(np.concatenate([d for d, _ in res]),
                                      np.concatenate([s for _, s in res]))

        def reduced(ti, only_docs):
            e = term_infos[ti][1]
            return self._calls("score_bm25_reduced", e.idx, e.pos, w_idx[ti],
                               fields_boost, avgs, k1, b, only_docs,
                               exclude_docs)
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
        # restriction (bounds fetched lazily — only top-k queries pay;
        # a conjunctive query's restriction is set, so it never fires)
        term_ubs = None
        if k is not None and len(term_infos) > 1 and concurrent is None \
                and restrict_docs is None:
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
            # this term: shards fold their (expansion, posting) records
            # into per-doc (first score, max positive) rows, so
            # coordinator traffic and merge work scale with #docs
            # touched, never with expansion multiplicity.  Docs whose
            # score would be None in the reference are still *visited*
            # (src/query.rs:88) — f carries the raw first-record score,
            # sign and all.
            if concurrent is not None:
                per_shard = self._collect(concurrent[ti])
            else:
                per_shard = self._fan(reduced(ti, only_docs))
            per_shard = [t for t in per_shard if len(t[0])]
            if not per_shard:
                continue
            if len(per_shard) == 1:
                term_docs, s_first, rest_max = per_shard[0]
            else:
                # a doc's records all live in one shard: the shards'
                # rows are disjoint, so putting them in doc order merges
                term_docs, s_first, rest_max = (
                    np.concatenate(c) for c in zip(*per_shard))
                o = np.argsort(term_docs, kind="stable")
                term_docs, s_first, rest_max = \
                    term_docs[o], s_first[o], rest_max[o]
            sf_pos = s_first > 0.0
            # merge into global scores (max_score_merger semantics; rest
            # is every positive record, s_first included: accumulated
            # scores are positive, so prev + s_first >= s_first):
            #   prev exists, s_first>0 → max(prev + s_first, rest…)
            #   prev exists, s_first<=0 → max(prev, rest…)   (visited-only)
            #   no prev               → max(s_first if >0, rest…)
            idx, has_prev = _find_sorted(term_docs, g_docs)
            prev = np.zeros(len(term_docs), dtype=np.float64)
            if len(g_docs):
                prev = np.where(has_prev, g_scores[np.minimum(
                    idx, len(g_docs) - 1)], 0.0)
            base = np.where(
                has_prev,
                np.where(sf_pos, prev + s_first, prev),
                np.where(sf_pos, s_first, -np.inf))
            new_vals = np.maximum(base, rest_max)
            # docs with no positive score this term and no prior entry
            # never enter the scores map
            valid = new_vals > -np.inf
            if not len(g_docs):
                g_docs, g_scores = term_docs[valid], new_vals[valid]
                continue
            upd = has_prev & valid
            g_scores[idx[upd]] = new_vals[upd]
            ins = valid & ~has_prev
            if ins.any():
                g_docs = np.insert(g_docs, idx[ins], term_docs[ins])
                g_scores = np.insert(g_scores, idx[ins], new_vals[ins])
        return g_docs, g_scores

    def _gather(self, e: "_Exp"):
        """Live postings of all of ``e``'s expansions, one
        ``gather_postings_many`` call per shard:
        (expansion rank of each posting, docs, tfs[F], lens[F])."""
        F = self.num_fields
        if not len(e.idx):
            z = np.empty(0, np.int64)
            return z, z.astype(np.uint64), [z] * F, [z] * F
        res = self._fan(self._calls("gather_postings_many", e.idx))
        return (np.concatenate([e.pos[r[0]] for r in res]),
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
        """Zero-to-one ``(docs, scores)``, docs ascending
        (``src/score/default/zero_to_one.rs:84-126``).  The reference
        walks each (doc, field)'s records in (score desc, then query
        term and expansion rank asc) order, consumes per query term the
        first record whose node pool is not exhausted, and sums
        ``min(score/tf, 1)·tf / max(len, qlen)`` over the consumed ones;
        a doc scores the max over its fields.

        A record's score ``1 − |blen − tl| / blen`` depends only on its
        expansion, so per query term the coordinator ranks the
        expansions once by (score desc, rank asc) and every shard folds
        the term's postings to one winning row per (doc, field)
        (``ShardData.zero_to_one_winners``).  Unless a node pool runs
        dry, the walk consumes exactly those winners: one lexsort over
        the winner rows puts each (doc, field)'s in walk order, a
        ``bincount`` sums them in that order (bit-identical to the
        walk's running sum) and the max over fields follows.  A pool
        runs dry only where one expansion wins for more query terms
        than its tf in the field (query terms sharing an expansion, as
        "ab abc" over a doc holding ``abc`` once); only those docs are
        rescored, by the exact per-record walk (``_z2o_exact``)."""
        self._prefetch_expansions(query_terms, expand)
        terms, pending = [], []
        for qti, term in enumerate(query_terms):
            e = self._exp(term, expand) if term != "" else _NO_EXP
            if not e.terms:
                continue
            # score per expansion rank, and each rank's place in the
            # (score desc, rank asc) order
            sc = 1.0 - np.abs(e.blen - float(len(term.encode()))) / e.blen
            prio = np.empty(len(sc), np.int64)
            prio[np.argsort(-sc, kind="stable")] = np.arange(len(sc))
            terms.append((qti, e, sc))
            pending.append(self._submit(self._calls(
                "zero_to_one_winners", e.idx, prio[e.pos])))
        if not terms:
            return np.empty(0, np.uint64), np.empty(0, np.float64)
        # a doc's postings live in one shard: the shards' rows are disjoint
        cols = [[] for _ in range(7)]   # doc, field, qti, uid, score, tf, len
        for (qti, e, sc), h in zip(terms, pending):
            for doc, fld, ent, tf, ln in self._collect(h):
                for c, v in zip(cols, (doc, fld, np.full(len(doc), qti),
                                       e.idx[ent], sc[e.pos[ent]], tf, ln)):
                    c.append(v)
        doc, fld, qti, uid, s, tf, ln = (np.concatenate(c) for c in cols)
        tf = tf.astype(np.float64)
        contrib = np.minimum(s / tf, 1.0) * tf \
            / np.maximum(ln.astype(np.int64), qlen).astype(np.float64)
        if len(terms) == 1:
            return _reduce_max_by_doc(doc, contrib)
        o = np.lexsort((qti, -s, fld, doc))
        doc, fld, uid, tf, contrib = (a[o] for a in (doc, fld, uid, tf,
                                                     contrib))
        new = np.ones(len(doc), dtype=bool)
        new[1:] = (doc[1:] != doc[:-1]) | (fld[1:] != fld[:-1])
        gid = np.cumsum(new) - 1
        # bincount returns int64 for EMPTY weighted input
        acc = np.bincount(gid, weights=contrib,
                          minlength=int(new.sum())).astype(np.float64)
        gdoc = doc[new]
        docs, scores = _reduce_max_by_doc(gdoc, acc)
        # dry pools: (doc, field) groups where one node uid wins for
        # more query terms than its tf — only an expansion that two
        # query terms share can win twice
        u, c = np.unique(np.concatenate([e.idx for _, e, _ in terms]),
                         return_counts=True)
        shared = u[c > 1]
        if len(shared):
            m = np.flatnonzero(_in_sorted(uid, shared))
            key = gid[m] * len(shared) + np.searchsorted(shared, uid[m])
            _, first, cnt = np.unique(key, return_index=True,
                                      return_counts=True)
            bad = np.unique(gdoc[gid[m][first[cnt > tf[m][first]]]])
            if len(bad):
                scores[np.searchsorted(docs, bad)] = self._z2o_exact(
                    terms, qlen, bad)
        return docs, scores

    def _z2o_exact(self, ents, qlen, docs) -> np.ndarray:
        """The reference's per-record zero-to-one walk over every live
        posting of the docs ``docs`` (sorted) for the query terms
        ``ents`` — (query term index, expansion entry, score per
        expansion rank) — and those docs' scores, aligned.  One record
        per (posting, field with tf > 0); a (doc, field)'s records walk
        in (score desc, query term asc, expansion rank asc) order."""
        rec = [[] for _ in range(8)]
        for qti, e, sc in ents:
            rank, d, tfs, lens = self._gather(e)
            idx_of_rank = np.empty(len(e.idx), np.int64)
            idx_of_rank[e.pos] = e.idx
            keep = _in_sorted(d, docs)
            for x in range(self.num_fields):
                m = keep & (tfs[x] > 0)
                for c, v in zip(rec, (d[m], np.full(m.sum(), x), np.full(
                        m.sum(), qti), rank[m], sc[rank[m]],
                        idx_of_rank[rank[m]], tfs[x][m], lens[x][m])):
                    c.append(v)
        doc, fld, qti_a, rank, sc, uid_a, tf_a, fl_a = (
            np.concatenate(c) for c in rec)
        tf_a, fl_a = tf_a.astype(np.int64), fl_a.astype(np.int64)
        order = np.lexsort((rank, qti_a, -sc, fld, doc))
        doc, fld, sc = doc[order], fld[order], sc[order]
        qti_a, uid_a, tf_a, fl_a = (qti_a[order], uid_a[order],
                                    tf_a[order], fl_a[order])
        starts = np.flatnonzero(np.concatenate(
            ([True], (doc[1:] != doc[:-1]) | (fld[1:] != fld[:-1]))))
        ends = np.append(starts[1:], len(doc))
        out = np.zeros(len(docs))
        for a, z in zip(starts, ends):
            pool: dict[int, int] = {}
            consumed_q: set[int] = set()
            accv = 0.0
            for i in range(a, z):
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
            j = np.searchsorted(docs, doc[a])
            out[j] = max(out[j], accv)
        return out

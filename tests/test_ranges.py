"""Prefix ranges: the precomputed trie rank reproduces the reference's
expansion order in every index state, and the range-based scorers
(zero_to_one, custom calculators, the shared top-k finisher) match the
reference model under tombstones."""

import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from probly_search_ray.build import build_index
from probly_search_ray.maintain import (
    compact_groups, remove_documents, vacuum)
from probly_search_ray.refmodel import (
    RefIndex, ZeroToOne, whitespace_tokenizer as tok)
from probly_search_ray.search import SearchEngine, ShardData, trie_rank
from probly_search_ray.stages.segment import POS_BITS
from probly_search_ray.state.manifest import Tombstones
from tests.test_custom_scorer import CountingScorer

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))
from fuzz_diff import assert_results  # noqa: E402  (tie-aware, k-aware)

VOCAB = np.array(["ka", "kar", "karr", "kax", "ke", "kex", "mu", "mux",
                  "ma", "maz", "é", "éclair", "x", "xy", "the"])


def trie_expansion_order(expansions, prefix):
    """The reference trie DFS (``src/query.rs:130-147``) written as the
    recursion: the prefix term first if present, then child subtrees in
    reverse creation order (newest first), a subtree's creation
    position being the minimum first occurrence of its terms; ties by
    char ascending.  ``expansions``: (term, df, first occurrence)."""
    out = []

    def rec(p, items):
        groups = {}
        for t, fp in items:
            if t == p:
                out.append(t)
            else:
                groups.setdefault(t[len(p)], []).append((t, fp))
        for ch, sub in sorted(groups.items(),
                              key=lambda kv: (-min(f for _, f in kv[1]),
                                              kv[0])):
            rec(p + ch, sub)

    rec(prefix, sorted((t, fp) for t, _, fp in expansions))
    return out


def _prefixes(terms):
    return sorted({t[:k] for t in terms for k in (1, 2, 3)})


def _check_rank(sd: ShardData):
    """Argsort of each prefix's rank slice == the recursion."""
    for p in _prefixes(sd.terms):
        r = sd.expand(p)
        exp = [(t, 0, (int(a) << POS_BITS) | int(b))
               for t, a, b in zip(r.terms, r.first_pos, r.first_off)]
        got = [r.terms[i] for i in np.argsort(r.rank, kind="stable")]
        assert got == trie_expansion_order(exp, p), p


def test_trie_rank_matches_recursion_random():
    """Random dictionaries, including first-occurrence ties, a shared
    leading depth and terms longer than the code-point matrix width."""
    rng = np.random.default_rng(7)
    for trial in range(200):
        alpha = "abcé"[:int(rng.integers(1, 5))]
        terms = sorted({"".join(rng.choice(list(alpha),
                                           size=int(rng.integers(1, 7))))
                        for _ in range(int(rng.integers(1, 50)))})
        fp = rng.integers(0, 5, len(terms)).astype(np.uint64)
        fo = rng.integers(0, 3, len(terms)).astype(np.uint32)
        old_cap = ShardData._FUZZY_WIDTH_CAP
        ShardData._FUZZY_WIDTH_CAP = 2 if trial % 2 else old_cap
        try:
            rank = trie_rank(terms, fp, fo)
            for p in [""] + _prefixes(terms):
                sel = [i for i, t in enumerate(terms) if t.startswith(p)]
                exp = trie_expansion_order(
                    [(terms[i], 0, (int(fp[i]) << POS_BITS) | int(fo[i]))
                     for i in sel], p)
                got = [terms[sel[j]]
                       for j in np.argsort(rank[sel], kind="stable")]
                assert got == exp, (terms, p)
                sub = trie_rank([terms[i] for i in sel], fp[sel], fo[sel],
                                len(p))
                assert [terms[sel[j]] for j in np.argsort(sub)] == exp
        finally:
            ShardData._FUZZY_WIDTH_CAP = old_cap


def _write(path, rows):
    pq.write_table(pa.table({
        "doc_id": pa.array([d for d, _ in rows], type=pa.uint64()),
        "f0": pa.array([t for _, t in rows], type=pa.string()),
    }), path)


def _rows(rng, base, n):
    return [(base + i, " ".join(rng.choice(VOCAB,
                                           size=int(rng.integers(1, 7)))))
            for i in range(n)]


def _live_expansions(ref, p):
    return [t for t in ref.expand_term(p)
            if ref.count_documents(ref._find_node(t)) > 0]


@pytest.mark.usefixtures("ray_session")
def test_rank_order_through_lifecycle(tmp_path):
    """After build, append, remove, vacuum and compact: every 1-3-char
    prefix orders like the recursion on the cache-loaded and freshly
    decoded dictionaries, and the engine's live expansions equal the
    reference's on one shard and on three term-range shards (ranges
    merged across shards are ranked afresh)."""
    rng = np.random.default_rng(11)
    idx = str(tmp_path / "index")
    ref = RefIndex(1)
    files = []

    def append(n):
        rows = _rows(rng, 100 * len(files), n)
        f = str(tmp_path / f"p{len(files)}.parquet")
        _write(f, rows)
        files.append(f)
        build_index(files, idx, field_cols=["f0"], files_per_group=1,
                    resume=True, batch_size=7)
        for d, t in rows:
            ref.add_document([t], tok, d)

    def check(when):
        for sd in (ShardData(idx), ShardData(idx, use_cache=False)):
            _check_rank(sd)
        for shards in (1, 3):
            eng = SearchEngine(idx, num_shards=shards)
            for p in _prefixes(ShardData(idx).terms):
                assert eng._expansions_for(p, True)[0] == \
                    _live_expansions(ref, p), (when, shards, p)

    append(30)
    append(25)
    check("build")
    append(20)
    check("append")
    gone = [3, 17, 31, 40, 102]
    remove_documents(idx, gone)
    for d in gone:
        ref.remove_document(d)
    check("remove")
    vacuum(idx)
    ref.vacuum()
    check("vacuum")
    compact_groups(idx)
    check("compact")


def _docs_with_prefix(corpus, term, removed):
    return {d for d, fields in corpus.items() if d not in removed
            and any(t.startswith(term) for f in fields for t in tok(f))}


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("layout", ["plain", "term_sharded", "doc_sharded"])
def test_scorers_match_refmodel_under_tombstones(tmp_path, layout):
    """zero_to_one and a custom scorer, with k in {1, 3, 10} and with
    require_all / exclude, against the reference model on a tombstoned
    index — tie-aware at the top-k boundary."""
    rng = np.random.default_rng(3)
    corpus = {d: (" ".join(rng.choice(VOCAB, size=int(rng.integers(1, 9)))),
                  " ".join(rng.choice(VOCAB, size=int(rng.integers(0, 5)))))
              for d in range(60)}
    pq.write_table(pa.table({
        "doc_id": pa.array(list(corpus), type=pa.uint64()),
        "f0": pa.array([v[0] for v in corpus.values()], type=pa.string()),
        "f1": pa.array([v[1] for v in corpus.values()], type=pa.string()),
    }), str(tmp_path / "docs.parquet"))
    idx = str(tmp_path / "index")
    build_index(str(tmp_path / "docs.parquet"), idx,
                field_cols=["f0", "f1"], batch_size=9)
    removed = {2, 9, 10, 33, 47}
    remove_documents(idx, sorted(removed))
    ref = RefIndex(2)
    for d in sorted(corpus):
        ref.add_document(list(corpus[d]), tok, d)
    for d in removed:
        ref.remove_document(d)
    kw = {"plain": {}, "term_sharded": {"num_shards": 3},
          "doc_sharded": {"doc_shards": 3}}[layout]
    eng = SearchEngine(idx, **kw)
    boosts = [1.0, 2.0]
    for q in ["k", "ka", "ma mu", "é x", "karr karr", "the k"]:
        for name, make in (("z2o", ZeroToOne), ("custom", CountingScorer)):
            full = ref.query(q, make(), tok, boosts)
            scorer = "zero_to_one" if name == "z2o" else CountingScorer()
            for k in (None, 1, 3, 10):
                assert_results(
                    eng.query(q, scorer, k=k, fields_boost=boosts), full,
                    f"{layout} {name} {q!r} k={k}", k=k)
            terms = [t for t in q.split(" ") if t]
            both = set.intersection(*[_docs_with_prefix(corpus, t, removed)
                                      for t in terms])
            assert_results(
                eng.query(q, scorer, k=3, fields_boost=boosts,
                          require_all=True),
                [r for r in full if r[0] in both],
                f"{layout} {name} {q!r} and", k=3)
            drop = _docs_with_prefix(corpus, "mu", removed)
            assert_results(
                eng.query(q, scorer, k=10, fields_boost=boosts,
                          exclude="mu"),
                [r for r in full if r[0] not in drop],
                f"{layout} {name} {q!r} not", k=10)


@pytest.mark.usefixtures("ray_session")
def test_cache_len_min_ignores_vacuum_witness(tmp_path):
    """A term whose postings all died in one group keeps a df-0 witness
    row there after vacuum; the build-time cache merge must give the
    term its live postings' len_min (the fresh decode's), not the
    witness's 0."""
    from probly_search_ray.search import build_csr_cache
    idx = str(tmp_path / "index")
    files = []
    for g, rows in enumerate([[(0, "kar x"), (1, "x y")],
                              [(5, "kar kar the a b"), (6, "y")]]):
        f = str(tmp_path / f"g{g}.parquet")
        _write(f, rows)
        files.append(f)
        build_index(files, idx, field_cols=["f0"], files_per_group=1,
                    resume=True)
    remove_documents(idx, [0])
    vacuum(idx)
    build_csr_cache(idx)
    hit, raw = ShardData(idx), ShardData(idx, use_cache=False)
    assert hit.terms == raw.terms
    i = hit.terms.index("kar")
    assert hit.len_min[0][i] == raw.len_min[0][i] == 5
    assert (hit.len_min[0] == raw.len_min[0]).all()
    assert (hit.trie_rank == raw.trie_rank).all()


def test_set_tombstones_delta_matches_rebuild(tmp_path):
    """``ShardData.set_tombstones``: growing the set in steps, shrinking
    it to empty (vacuum) and replacing it by a non-superset all leave
    the same dead mask and per-entry dead mass as a brute-force pass
    over the postings."""
    rng = np.random.default_rng(5)
    f = str(tmp_path / "p.parquet")
    _write(f, _rows(rng, 0, 60))
    idx = str(tmp_path / "index")
    build_index([f], idx, field_cols=["f0"], batch_size=11)
    sd = ShardData(idx)
    docs = np.asarray(sd.p_docs)
    ent = np.repeat(np.arange(len(sd.terms)), np.diff(sd.post_off))

    def check(tomb):
        dead = np.isin(docs, tomb)
        occ = np.bincount(ent[dead], weights=np.asarray(sd.p_tf[0])[dead],
                          minlength=len(sd.terms)).astype(np.int64)
        got_dead = sd._dead if sd._dead is not None \
            else np.zeros(len(docs), bool)
        assert (got_dead == dead).all(), tomb
        every = np.arange(len(sd.terms))
        assert (sd.tomb_hits_many(every) == occ).all(), tomb
        assert (sd.df_adjusted_many(every) == sd.df - occ).all(), tomb
        assert (sd.tombstones() == np.asarray(tomb, np.uint64)).all()

    for tomb in ([3], [3, 8, 500], [1, 3, 8, 9, 40, 500], [], [9],
                 [2, 9], [2, 59], list(range(60))):
        sd.set_tombstones(np.asarray(tomb, np.uint64))
        check(tomb)
    assert not len(sd.union_docs(np.arange(len(sd.terms))))


def _entry_state(eng, p):
    e = eng._exp(p, True)
    tfm, lmn = eng._bounds_for(p, True)
    return (e.terms, e.df.tolist(), tfm.tolist(), lmn.tolist(),
            eng.complete(p, k=50), eng.query(p, "bm25", k=5))


LAYOUTS = {"plain": {}, "term_sharded": {"num_shards": 3},
           "doc_sharded": {"doc_shards": 3}}


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_expansion_cache_survives_removals(tmp_path, layout):
    """Warm every 1-3-char prefix, then remove docs in batches: after
    each refresh the cached entries (terms, df, order, bounds),
    ``complete()`` and a top-5 query equal a fresh engine's, entries are revalidated
    rather than dropped, and only prefixes of a term whose live df fell
    to 0 are rebuilt.  A vacuum, an append and a tombstone set that
    lost docs each start the cache afresh."""
    rng = np.random.default_rng(21)
    idx = str(tmp_path / "index")
    files = []

    def append(rows):
        f = str(tmp_path / f"p{len(files)}.parquet")
        _write(f, rows)
        files.append(f)
        build_index(files, idx, field_cols=["f0"], files_per_group=1,
                    resume=True, batch_size=9)

    # "kaput" and "muzzle" are cold: one doc each
    append(_rows(rng, 0, 40) + [(40, "kaput ka"), (41, "muzzle mu")])
    append(_rows(rng, 100, 30))
    kw = LAYOUTS[layout]
    eng = SearchEngine(idx, **kw)
    prefixes = _prefixes(ShardData(idx).terms)
    for p in prefixes:
        _entry_state(eng, p)
    rebuilt = []
    orig = eng._expansions_for_uncached

    def counting(term, expand, fuzzy=0):
        rebuilt.append(term)
        return orig(term, expand, fuzzy)
    eng._expansions_for_uncached = counting

    def compare(when):
        fresh = SearchEngine(idx, **kw)
        for p in prefixes:
            assert _entry_state(eng, p) == _entry_state(fresh, p), (when, p)

    for batch, zeroed in (([40], "kaput"), ([3, 17, 105], None),
                          ([41, 5, 120], "muzzle")):
        assert remove_documents(idx, batch) == len(batch)
        assert eng.refresh() is False
        assert all((p, True, 0) in eng._exp_cache for p in prefixes)
        rebuilt.clear()
        compare(f"remove {batch}")
        gone = {p for p in prefixes if zeroed and zeroed.startswith(p)}
        assert set(rebuilt) == gone, (batch, rebuilt)
        assert zeroed is None or all(
            zeroed not in eng._exp(p, True).terms for p in gone)

    vacuum(idx)                        # the set shrinks to empty
    assert eng.refresh() is True
    assert not eng._exp_cache and not len(eng.tomb)
    compare("vacuum")
    assert remove_documents(idx, [7, 8]) == 2
    eng.refresh()
    compare("remove after vacuum")
    append(_rows(rng, 200, 10))        # the manifest changes
    assert eng.refresh() is True
    compare("append")
    for p in prefixes:
        _entry_state(eng, p)
    Tombstones(idx).clear()            # a set that lost docs, same manifest
    assert eng.refresh() is False
    assert not eng._exp_cache
    compare("tombstones cleared")


@pytest.mark.usefixtures("ray_session")
def test_shared_pool_refuses_other_tombstone_set(tmp_path):
    """An engine over a pool it does not own never mixes snapshots: it
    refuses to load or refresh while the pool serves another tombstone
    set, and serves the new set once the owner has refreshed."""
    rng = np.random.default_rng(8)
    f = str(tmp_path / "p.parquet")
    _write(f, _rows(rng, 0, 50))
    idx = str(tmp_path / "index")
    build_index([f], idx, field_cols=["f0"])
    owner = SearchEngine(idx, num_shards=2, use_actors=True)
    borrower = SearchEngine(idx, shard_handles=owner.shards)
    assert remove_documents(idx, [1, 2, 30]) == 3
    with pytest.raises(RuntimeError, match="tombstone set"):
        borrower.refresh()
    with pytest.raises(RuntimeError, match="tombstone set"):
        SearchEngine(idx, shard_handles=owner.shards)
    assert owner.refresh() is False
    assert borrower.refresh() is False
    plain = SearchEngine(idx)
    for q in ("k", "ka mu", "the", "x"):
        assert_results(borrower.query(q, "bm25"), plain.query(q, "bm25"),
                       f"borrower {q!r}")
        assert_results(owner.query(q, "bm25", k=3),
                       plain.query(q, "bm25"), f"owner {q!r}", k=3)
    del borrower, owner

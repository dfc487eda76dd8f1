"""Multi-term bm25 folds and exclude pushdown against the reference
model: the shard fold's two slot cases (doc ordinal where a term's
records are dense over the doc table, unique-ordinal index where they
are sparse), the visited-with-None case of a 0 in ``fields_boost``,
ties at the kth, tombstones and a doc-sharded pool; and ``exclude``
applied inside the top-k prune, single- and multi-term."""

import numpy as np
import pytest

from probly_search_ray.maintain import remove_documents
from probly_search_ray.refmodel import BM25, RefIndex, whitespace_tokenizer as tok
from probly_search_ray.search import SearchEngine, ShardData
from tests.fixtures import assert_results
from tests.test_engine import build_engine


def _ref(corpus, nfields):
    ref = RefIndex(nfields)
    for d in sorted(corpus):
        ref.add_document(list(corpus[d]), tok, d)
    return ref


def _records(sd, term):
    """Stored postings of every expansion of ``term`` in shard ``sd``."""
    idx = np.flatnonzero([t.startswith(term) for t in sd.terms])
    return sd._n_postings(idx)


def _fold_corpus(rng, n_docs, planted):
    """Two-field docs of common filler words, the ``planted`` docs'
    fields overwritten (copies of one doc give score ties)."""
    filler = np.array(["aa", "ab", "bb", "ba", "cc"])
    corpus = {}
    for d in range(n_docs):
        corpus[d] = tuple(" ".join(rng.choice(filler, size=int(
            rng.integers(1, 6)))) for _ in range(2))
    corpus.update(planted)
    return corpus


def _check_fold(tmp_path, corpus, queries, sparse, removed):
    eng = build_engine(tmp_path, corpus)
    dse = SearchEngine(eng.index_dir, doc_shards=2)
    sd = eng.shards[0]
    for q in queries:
        for t in q.split():
            assert sd._dense(_records(sd, t)) != sparse, (q, t)
    ref = _ref(corpus, 2)
    for step in ("clean", "tombstoned"):
        if step == "tombstoned":
            assert remove_documents(eng.index_dir, list(removed)) == \
                len(removed)
            for d in removed:
                ref.remove_document(d)
            eng.refresh()
            dse.refresh()
        for boosts in ([1.0, 1.0], [0.0, 1.0], [1.0, 0.0]):
            for q in queries:
                want = ref.query(q, BM25(), tok, boosts)
                for e, tag in ((eng, "one"), (dse, "doc2")):
                    got = e.query(q, "bm25", fields_boost=list(boosts))
                    assert_results(got, want, f"{step}:{tag}:{q!r}:{boosts}")
                    for k in (1, 2, 3):
                        got = e.query(q, "bm25", k=k,
                                      fields_boost=list(boosts))
                        assert_results(got, want[:k],
                                       f"{step}:{tag}:k{k}:{q!r}:{boosts}")


@pytest.mark.usefixtures("ray_session")
def test_fold_dense_slot_matches_reference(tmp_path):
    """A small index: every term's records are dense, so the fold's
    slot is the doc ordinal."""
    rng = np.random.default_rng(5)
    same = ("zq zqa zy", "zqab zy zy")
    planted = {0: same, 1: same, 2: same, 3: same,
               7: ("zqa zqa", "zy"), 9: ("zy", "zqb zqab"),
               12: ("zqb", ""), 15: ("", "zq zq zqa")}
    corpus = _fold_corpus(rng, 40, planted)
    _check_fold(tmp_path, corpus, ["zq zy", "zy zq", "zqa zy zq", "a zq",
                                   "zq zq", "b a zy", "zq aa bb"], False,
                (3, 9))


@pytest.mark.usefixtures("ray_session")
def test_fold_sparse_slot_matches_reference(tmp_path):
    """A doc table more than 256x a query term's records: the fold's
    slot is the index among the unique ordinals."""
    rng = np.random.default_rng(6)
    same = ("zq zy", "zqa")
    planted = {0: same, 1: same, 900: ("zqb", "zqa zqa"),
               1500: ("zy", "zy zy"), 2999: ("", "zqb zy")}
    corpus = _fold_corpus(rng, 3000, planted)
    _check_fold(tmp_path, corpus, ["zq zy", "zy zq", "zqa zy zq", "zqb zqa",
                                   "zqb zy zq"], True, (1, 900))


def _excl_corpus():
    """``ka`` docs whose top ranks hold ties: docs 6..11 ("ka ka ka")
    lead, docs 0..5 ("ka ka ka mu") tie right behind them, so an
    exclude of ``mu`` at k=8 removes docs tied at the kth.  Docs 20..59
    repeat the TAAT restriction's shape (a rare, heavy ``zq`` term over
    a common ``ba``)."""
    rng = np.random.default_rng(9)
    corpus = {}
    for d in range(6):
        corpus[d] = ("ka ka ka mu",)
    for d in range(6, 12):
        corpus[d] = ("ka ka ka",)
    for d in range(12, 20):
        corpus[d] = (" ".join(rng.choice(["ka", "ko", "mux", "ba"], 4)),)
    for d in range(20, 60):
        toks = ["ba"] * int(rng.integers(3, 8))
        if d < 34:
            toks += ["zq"] * int(rng.integers(4, 9))
        if d % 3 == 0:
            toks.append("mu")
        rng.shuffle(toks)
        corpus[d] = (" ".join(toks),)
    return corpus


@pytest.mark.usefixtures("ray_session")
def test_exclude_inside_topk_matches_reference(tmp_path, monkeypatch):
    """``exclude`` with ``k``: the reference's full ranking without the
    excluded docs, cut to k — for single-term queries (which keep the
    shard prune loop) and multi-term ones, in-process and on a
    doc-sharded pool, including an exclude that removes every match."""
    corpus = _excl_corpus()
    eng = build_engine(tmp_path, corpus)
    dse = SearchEngine(eng.index_dir, doc_shards=2)
    ref = _ref(corpus, 1)

    def excluded(term):
        return {d for d, (text,) in corpus.items()
                if any(t.startswith(term) for t in text.split())}
    pruned = []
    orig = ShardData.score_bm25_topk_pruned

    def spy(self, *args):
        pruned.append(args[-1])
        return orig(self, *args)
    monkeypatch.setattr(ShardData, "score_bm25_topk_pruned", spy)
    cases = [("ka", "mu", 8), ("ka", "mu", 6), ("k", "mu", 8),
             ("ka", "ko", 3), ("zq", "mu", 5), ("zq ba", "mu", 5),
             ("ka ba", "mu", 8), ("ba zq ka", "mux", 4), ("ka", "ka", 5),
             ("zq ba", "zq", 3)]
    for q, ex, k in cases:
        drop = excluded(ex)
        full = [r for r in ref.query(q, BM25(), tok, [1.0])
                if r[0] not in drop]
        for e, tag in ((eng, "one"), (dse, "doc2")):
            del pruned[:]
            got = e.query(q, "bm25", k=k, exclude=ex)
            assert_results(got, full[:k], f"{tag}:{q!r}-{ex!r}:k{k}")
            if len(q.split()) == 1 and full:
                # single-term: the prune loop ran, with the exclude set
                assert pruned and all(x is not None for x in pruned), q
            assert_results(e.query(q, "bm25", exclude=ex), full,
                           f"{tag}:{q!r}-{ex!r}:full")
    # the cases do cut docs tied at the kth out of the unexcluded top-k
    top = ref.query("ka", BM25(), tok, [1.0])[:8]
    assert {d for d, _ in top} & excluded("mu")
    assert eng.query("ka", "bm25", k=5, exclude="ka") == []

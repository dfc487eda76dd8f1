"""End-to-end tests of the Ray Data index build + query engine:
all golden fixtures (FIXTURES.md) plus randomized differential tests
against the pure-Python reference model."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from probly_search_ray.build import build_index
from probly_search_ray.refmodel import (
    BM25, RefIndex, ZeroToOne, whitespace_tokenizer as tok)
from probly_search_ray.search import SearchEngine
from tests.fixtures import (
    BM25_FIXTURES, DF1_DOC, DF1_QUERY, DOCS2, DOCS2B, QUERY_FIXTURES,
    Z2O_FIXTURES, Z2O_MULTIFIELD, TOL, assert_results)


def write_corpus(tmpdir, corpus, nfields):
    os.makedirs(tmpdir, exist_ok=True)
    items = corpus.items() if isinstance(corpus, dict) else enumerate(corpus)
    items = sorted(items)
    cols = {"doc_id": pa.array([k for k, _ in items], type=pa.uint64())}
    for f in range(nfields):
        cols[f"f{f}"] = pa.array([v[f] for _, v in items], type=pa.string())
    path = os.path.join(tmpdir, "corpus.parquet")
    pq.write_table(pa.table(cols), path)
    return path


def build_engine(tmp_path, corpus, batch_size=4096, block_postings=4096,
                 doc_shards=1, **kw):
    items = list(corpus.items() if isinstance(corpus, dict) else enumerate(corpus))
    nfields = len(items[0][1])
    path = write_corpus(str(tmp_path), corpus, nfields)
    idx_dir = os.path.join(str(tmp_path), "index")
    build_index(path, idx_dir, key_col="doc_id",
                field_cols=[f"f{f}" for f in range(nfields)],
                batch_size=batch_size, block_postings=block_postings,
                overwrite=True, **kw)
    return SearchEngine(idx_dir, doc_shards=doc_shards)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("fid,corpus,query,expected", BM25_FIXTURES)
def test_bm25_fixtures_engine(tmp_path, fid, corpus, query, expected):
    eng = build_engine(tmp_path, corpus)
    assert_results(eng.query(query, "bm25"), expected, fid)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("fid,query,expected", QUERY_FIXTURES)
def test_query_fixtures_engine(tmp_path, fid, query, expected):
    eng = build_engine(tmp_path, DOCS2)
    assert_results(eng.query(query, "bm25"), expected, fid)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("fid,corpus,query,expected", Z2O_FIXTURES)
def test_z2o_fixtures_engine(tmp_path, fid, corpus, query, expected):
    eng = build_engine(tmp_path, corpus)
    assert_results(eng.query(query, "zero_to_one"), expected, fid)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("fid,corpus,query,expected", Z2O_MULTIFIELD)
def test_z2o_multifield_engine(tmp_path, fid, corpus, query, expected):
    eng = build_engine(tmp_path, corpus)
    assert_results(eng.query(query, "zero_to_one"), expected, fid)


@pytest.mark.usefixtures("ray_session")
def test_df_regression_engine(tmp_path):
    eng = build_engine(tmp_path, [(DF1_DOC,)])
    res = eng.query(DF1_QUERY, "bm25")
    assert len(res) == 1


@pytest.mark.usefixtures("ray_session")
def test_int_lifecycle_engine(tmp_path):
    from probly_search_ray.maintain import remove_document, vacuum
    eng = build_engine(tmp_path, DOCS2B)
    assert_results(eng.query("abc", "bm25"),
                   [(0, 0.6931471805599453), (1, 0.28104699650060755)], "INT-1a")
    assert_results(eng.query("abc", "zero_to_one"), [(0, 1.0), (1, 0.75)],
                   "INT-2a")
    remove_document(eng.index_dir, 0)
    eng2 = SearchEngine(eng.index_dir)
    # tombstone only (no vacuum): zero_to_one INT-2b
    assert_results(eng2.query("abc", "zero_to_one"), [(1, 0.75)], "INT-2b")
    vacuum(eng.index_dir)
    eng3 = SearchEngine(eng.index_dir)
    assert_results(eng3.query("abc", "bm25"), [(1, 0.1166450426074421)],
                   "INT-1b")


def _rand_corpus(rng, n_docs, nfields, vocab, max_len=12):
    corpus = {}
    for d in range(n_docs):
        fields = []
        for _ in range(nfields):
            k = int(rng.integers(0, max_len))
            fields.append(" ".join(rng.choice(vocab, size=k)) if k else "")
        corpus[d] = tuple(fields)
    return corpus


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("seed,nfields", [(0, 1), (1, 1), (2, 2), (3, 2)])
def test_differential_random(tmp_path, seed, nfields):
    """DIFF-1: random corpora; engine must equal refmodel exactly for
    both scorers, including prefix expansion and the merge quirks."""
    rng = np.random.default_rng(seed)
    vocab = np.array(["a", "ab", "abc", "abcd", "b", "ba", "bc", "ca",
                      "cab", "the", "the,", "x", "xy", "xyz", "zebra",
                      "zeb", "ze"])
    corpus = _rand_corpus(rng, 40, nfields, vocab)
    eng = build_engine(tmp_path, corpus, batch_size=7, block_postings=5)

    ref = RefIndex(nfields)
    for d in sorted(corpus):
        ref.add_document(list(corpus[d]), tok, d)

    queries = ["a", "ab", "abc", "b", "the", "x z", "a b", "zeb", "q",
               "a a", "ab  ba", "the the,", "c", "z"]
    boosts = [1.0] * nfields
    for q in queries:
        exp_b = ref.query(q, BM25(), tok, boosts)
        got_b = eng.query(q, "bm25")
        assert_results(got_b, exp_b, f"bm25:{q!r}")
        exp_z = ref.query(q, ZeroToOne(), tok, boosts)
        got_z = eng.query(q, "zero_to_one")
        assert_results(got_z, exp_z, f"z2o:{q!r}")


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("seed", [101, 202])
def test_differential_layouts_random(tmp_path, seed):
    """DIFF-2: random corpora; every serving LAYOUT (single shard,
    doc-sharded pools of 3 and 4) must produce the same top-k ranking
    as the refmodel — pins the shard-local prune pushdown, the
    doc-sharded local prune union and the merge of disjoint shard rows
    against each other and the reference on inputs none of them were
    tuned on."""
    rng = np.random.default_rng(seed)
    vocab = np.array([p + s for p in ["ka", "ke", "ko", "mu", "ma"]
                      for s in ["", "r", "rr", "x", "xy", "z"]])
    corpus = _rand_corpus(rng, 90, 1, vocab, max_len=9)
    e1 = build_engine(tmp_path, corpus)
    e4 = SearchEngine(e1.index_dir, doc_shards=4)
    ed = SearchEngine(e1.index_dir, doc_shards=3)
    ref = RefIndex(1)
    for d in sorted(corpus):
        ref.add_document(list(corpus[d]), tok, d)
    queries = ["k", "ka", "kerr", "m", "mu k", "ma ko", "kax muz ke",
               "q", "kar ka"]
    for q in queries:
        exp = ref.query(q, BM25(), tok, [1.0])
        for e, tag in ((e1, "one"), (e4, "doc4"), (ed, "doc3")):
            assert_results(e.query(q, "bm25"), exp, f"{tag}:full:{q!r}")
            got_k = e.query(q, "bm25", k=4)
            assert_results(got_k, exp[:len(got_k)], f"{tag}:k4:{q!r}")


@pytest.mark.usefixtures("ray_session")
def test_zero_boost_visited_semantics(tmp_path):
    """A 0 in fields_boost makes some expansions score None; the
    reference still marks those docs *visited* for the term
    (``src/query.rs:88`` — insert outside the ``if let Some``), which
    flips later expansions from ``prev + s`` to ``max(prev, s)``."""
    rng = np.random.default_rng(21)
    vocab = np.array(["x", "xa", "ab", "a", "abx", "b", "bx"])
    corpus = _rand_corpus(rng, 40, 2, vocab)
    eng = build_engine(tmp_path, corpus)
    ref = RefIndex(2)
    for d in sorted(corpus):
        ref.add_document(list(corpus[d]), tok, d)
    for boosts in ([0.0, 1.0], [1.0, 0.0]):
        for q in ["x ab", "a", "a b", "x", "ab x", "b a x"]:
            exp = ref.query(q, BM25(), tok, boosts)
            got = eng.query(q, "bm25", fields_boost=list(boosts))
            assert_results(got, exp, f"zboost:{q!r}:{boosts}")


@pytest.mark.usefixtures("ray_session")
def test_scale_invariance(tmp_path):
    """SCALE-1: different batch/block sizes and shard counts produce
    identical query results."""
    rng = np.random.default_rng(7)
    vocab = np.array(["alpha", "alp", "beta", "bet", "gamma", "g",
                      "delta", "del", "eps"])
    corpus = _rand_corpus(rng, 60, 1, vocab)
    r1 = build_engine(tmp_path / "a", corpus, batch_size=4096)
    r2 = build_engine(tmp_path / "b", corpus, batch_size=5, block_postings=3,
                      doc_shards=3)
    for q in ["a", "alp", "b", "g", "delta eps", "alpha beta gamma"]:
        a = r1.query(q, "bm25")
        b = r2.query(q, "bm25")
        assert_results(b, a, f"scale:{q!r}")
        az = r1.query(q, "zero_to_one")
        bz = r2.query(q, "zero_to_one")
        assert_results(bz, az, f"scalez:{q!r}")


def write_multivalue_corpus(tmpdir, corpus):
    """corpus: {doc_id: per-field value, each a str or list[str]}."""
    os.makedirs(tmpdir, exist_ok=True)
    items = sorted(corpus.items())
    nfields = len(items[0][1])
    cols = {"doc_id": pa.array([k for k, _ in items], type=pa.uint64())}
    for f in range(nfields):
        vals = [v[f] if isinstance(v[f], list) else [v[f]] for _, v in items]
        cols[f"f{f}"] = pa.array(vals, type=pa.list_(pa.string()))
    path = os.path.join(tmpdir, "corpus.parquet")
    pq.write_table(pa.table(cols), path)
    return path


@pytest.mark.usefixtures("ray_session")
def test_multivalue_fields(tmp_path):
    """Multi-value FieldAccessor semantics (reference src/lib.rs:11,
    src/index.rs:90-116): tf and corpus sums accumulate over all of a
    field's values, but the stored per-doc field_length is the LAST
    value's kept-token count.  Engine (list<string> columns) must match
    the refmodel differentially, including stats and removals."""
    rng = np.random.default_rng(31)
    vocab = np.array(["a", "ab", "b", "ba", "c", "ca", "x", "xy"])
    corpus = {}
    for d in range(30):
        nvals = int(rng.integers(0, 4))
        vals = []
        for _ in range(nvals):
            k = int(rng.integers(0, 6))
            vals.append(" ".join(rng.choice(vocab, size=k)) if k else "")
        single = " ".join(rng.choice(vocab, size=int(rng.integers(0, 6))))
        corpus[d] = (vals, single)  # field 0 multi-value, field 1 single
    path = write_multivalue_corpus(str(tmp_path), {
        d: (v[0], [v[1]]) for d, v in corpus.items()})
    idx_dir = os.path.join(str(tmp_path), "index")
    build_index(path, idx_dir, key_col="doc_id", field_cols=["f0", "f1"],
                batch_size=7, block_postings=5, overwrite=True)
    eng = SearchEngine(idx_dir)
    ref = RefIndex(2)
    for d in sorted(corpus):
        ref.add_document([corpus[d][0], corpus[d][1]], tok, d)
    # stats: sum accumulates all values
    assert eng.stats.num_docs == len(ref.docs)
    for f in range(2):
        assert eng.stats.field_sum(f) == ref.fields[f].sum, f
        assert abs(eng.stats.field_avg(f) - ref.fields[f].avg) < TOL
    for q in ["a", "ab", "b", "x", "a b", "c x", "ba xy a"]:
        assert_results(eng.query(q, "bm25"),
                       ref.query(q, BM25(), tok, [1.0, 1.0]), f"mv:{q!r}")
        assert_results(eng.query(q, "zero_to_one"),
                       ref.query(q, ZeroToOne(), tok, [1.0, 1.0]),
                       f"mvz:{q!r}")
    # removal subtracts the stored (last-value) field_length
    from probly_search_ray.maintain import remove_document
    victim = max(d for d in corpus if corpus[d][0])
    remove_document(idx_dir, victim)
    ref.remove_document(victim)
    eng2 = SearchEngine(idx_dir)
    for f in range(2):
        assert eng2.stats.field_sum(f) == ref.fields[f].sum, f
        assert abs(eng2.stats.field_avg(f) - ref.fields[f].avg) < TOL
    for q in ["a", "a b"]:
        assert_results(eng2.query(q, "bm25"),
                       ref.query(q, BM25(), tok, [1.0, 1.0]), f"mvrm:{q!r}")


@pytest.mark.usefixtures("ray_session")
def test_multivalue_trailing_empty_avg_quirk(tmp_path):
    """Add-path stale-avg quirk (src/index.rs:105-115): ``avg`` is only
    assigned inside the per-value loop, so a TRAILING doc whose
    accessor yields an EMPTY value list leaves that field's avg stale
    at sum/(last-doc-with-values + 1), not sum/N.  Found by
    tools/fuzz_multivalue.py (seed 40006); BM25 scores depend on avg,
    so the engine must reproduce it exactly — including after a remove
    of a doc that was empty in that field (fl==0 keeps the stale avg,
    src/index.rs:160-191) and after vacuum."""
    corpus = {
        0: (["a b", "c"], ["x"]),       # values in both fields
        1: ([], ["x y"]),               # f0: EMPTY list (no avg update)
        2: ([""], ["x"]),               # f0: one EMPTY-STRING value —
                                        # loop RUNS, avg updates, len 0
        3: ([], []),                    # trailing: no values anywhere
    }
    path = write_multivalue_corpus(str(tmp_path), corpus)
    idx = os.path.join(str(tmp_path), "index")
    build_index(path, idx, key_col="doc_id", field_cols=["f0", "f1"],
                batch_size=2, overwrite=True)
    eng = SearchEngine(idx)
    ref = RefIndex(2)
    for d in sorted(corpus):
        ref.add_document(list(corpus[d]), tok, d)
    # f0: last doc with >=1 value is 2 → avg = 3/3, NOT 3/4
    # f1: last doc with >=1 value is 2 → avg = 4/3, NOT 4/4
    assert ref.fields[0].avg == 1.0 and abs(
        ref.fields[1].avg - 4 / 3) < TOL  # the quirk is real
    for f in range(2):
        assert eng.stats.field_sum(f) == ref.fields[f].sum, f
        assert abs(eng.stats.field_avg(f) - ref.fields[f].avg) < TOL, f
    for q in ["a", "x", "a x", "c b"]:
        assert_results(eng.query(q, "bm25"),
                       ref.query(q, BM25(), tok, [1.0, 1.0]),
                       f"mvq:{q!r}")
    # remove doc 1 (empty in f0 → fl==0 keeps f0's stale avg; f1
    # updates to sum/(N-1)); then vacuum must preserve the stats
    from probly_search_ray.maintain import remove_document, vacuum
    remove_document(idx, 1)
    ref.remove_document(1)
    eng2 = SearchEngine(idx)
    for f in range(2):
        assert eng2.stats.field_sum(f) == ref.fields[f].sum, f
        assert abs(eng2.stats.field_avg(f) - ref.fields[f].avg) < TOL, f
    vacuum(idx)
    ref.vacuum()
    eng3 = SearchEngine(idx)
    for f in range(2):
        assert abs(eng3.stats.field_avg(f) - ref.fields[f].avg) < TOL, f
    for q in ["a", "x", "a x"]:
        assert_results(eng3.query(q, "bm25"),
                       ref.query(q, BM25(), tok, [1.0, 1.0]),
                       f"mvvac:{q!r}")


@pytest.mark.usefixtures("ray_session")
def test_actor_pool_query(tmp_path):
    corpus = DOCS2
    items = list(corpus.items())
    path = write_corpus(str(tmp_path), corpus, 2)
    idx_dir = os.path.join(str(tmp_path), "index")
    build_index(path, idx_dir, key_col="doc_id", field_cols=["f0", "f1"],
                overwrite=True)
    eng = SearchEngine(idx_dir, doc_shards=2, use_actors=True)
    for fid, q, expected in QUERY_FIXTURES:
        assert_results(eng.query(q, "bm25"), expected, f"actor:{fid}")


@pytest.mark.usefixtures("ray_session")
def test_prefetch_populates_reader_cache_keys(tmp_path):
    """The concurrent prefetch must write the SAME cache keys the
    readers (_expansions_for / _bounds_for) probe — a key-shape drift
    silently degrades every warm actor-pool query to the sequential
    fan-out path (round-3 advice finding)."""
    corpus = DOCS2
    path = write_corpus(str(tmp_path), corpus, 2)
    idx_dir = os.path.join(str(tmp_path), "index")
    build_index(path, idx_dir, key_col="doc_id", field_cols=["f0", "f1"],
                overwrite=True)
    eng = SearchEngine(idx_dir, doc_shards=2, use_actors=True)
    terms = ["a", "b"]
    eng._exp_cache.clear()
    eng._prefetch_expansions(terms, True)
    for t in terms:
        assert (t, True, 0) in eng._exp_cache, t
        assert ("__bounds__", t, True, 0) in eng._exp_cache, t
    # the readers must HIT those entries (no recompute fan-out)
    def boom(*a, **k):  # pragma: no cover - fails the test if called
        raise AssertionError("prefetched term recomputed")
    eng._expansions_for_uncached = boom
    for t in terms:
        ordered, df_map = eng._expansions_for(t, True)
        assert ordered and df_map
        eng._bounds_for(t, True)
    # exact-term mode writes/reads the same shape
    eng._exp_cache.clear()
    eng._prefetch_expansions(terms, False)
    for t in terms:
        assert (t, False, 0) in eng._exp_cache, t
        eng._expansions_for(t, False)
    # and a second prefetch of now-cached terms is a no-op (no
    # dead-entry refill): cache size must not grow
    n = len(eng._exp_cache)
    eng._prefetch_expansions(terms, False)
    assert len(eng._exp_cache) == n


@pytest.mark.usefixtures("ray_session")
def test_topk_pruning_exact(tmp_path):
    """Top-k with expansion pruning == unpruned full query, for
    single-term (pruned path incl. shard-side top-k + floor cut),
    hot-prefix (expansion-heavy), and multi-term queries — and the
    same through sharded actors.  Also differential vs refmodel."""
    rng = np.random.default_rng(11)
    vocab = np.array([p + s for p in ["ba", "be", "bo"]
                      for s in ["", "x", "xy", "xyz", "r", "rr", "q"]])
    corpus = _rand_corpus(rng, 120, 1, vocab, max_len=10)
    eng = build_engine(tmp_path, corpus)
    eng3 = build_engine(tmp_path / "s3", corpus, doc_shards=3)
    ref = RefIndex(1)
    for d in sorted(corpus):
        ref.add_document(list(corpus[d]), tok, d)
    queries = ["b", "ba", "bex", "bo",            # single-term + prefix
               "ba bo", "b be", "bax bor b"]      # multi-term
    for q in queries:
        full = eng.query(q, "bm25")[:5]
        exp_ref = ref.query(q, BM25(), tok, [1.0])[:5]
        assert_results(full, exp_ref, f"full-vs-ref:{q!r}")
        for e, tag in ((eng, "prune"), (eng3, "prune3")):
            pruned = e.query(q, "bm25", k=5)
            assert_results(pruned, full, f"{tag}:{q!r}")


@pytest.mark.usefixtures("ray_session")
def test_topk_pushdown_vs_fanout(tmp_path):
    """Single-term top-k via the shard-local pushed-down prune loop:
    a doc-sharded pool's union of per-shard local prunes (one
    concurrent round; sound because doc sets are disjoint) must equal
    the one-shard engine's.  Covers prefix ranges and exact-term
    mode."""
    rng = np.random.default_rng(23)
    vocab = np.array([p + s for p in ["ba", "be", "bo", "ga"]
                      for s in ["", "x", "xy", "r", "rq", "zz"]])
    corpus = _rand_corpus(rng, 150, 1, vocab, max_len=12)
    eng = build_engine(tmp_path, corpus)
    dse = SearchEngine(eng.index_dir, doc_shards=3)
    for q in ["b", "ba", "bo", "g", "gax", "be", "bezz"]:
        for expand in (True, False):
            assert_results(dse.query(q, "bm25", k=4, expand=expand),
                           eng.query(q, "bm25", k=4, expand=expand),
                           f"pushdown-docsharded:{q!r}:{expand}")


@pytest.mark.usefixtures("ray_session")
def test_topk_taat_restriction_exact(tmp_path):
    """Multi-term top-k where the TAAT suffix restriction FIRES (first
    term's accumulator kth exceeds the remaining terms' impact bounds):
    the restricted query must equal the unrestricted full ranking."""
    rng = np.random.default_rng(7)
    corpus = {}
    for d in range(120):
        toks = ["ba"] * int(rng.integers(3, 8))
        if d < 20:
            toks += ["zq"] * int(rng.integers(4, 9))
        rng.shuffle(toks)
        corpus[d] = (" ".join(toks),)
    eng = build_engine(tmp_path, corpus)
    for q in ("zq ba", "zq ba zq", "b zq"):
        full = eng.query(q, "bm25")
        full.sort(key=lambda r: (-r[1], r[0]))
        assert eng.query(q, "bm25", k=5) == full[:5], q


def _assert_same_postings(hit, raw):
    """Two loads hold the same per-doc tables and posting arrays, with
    the same dtypes, hence the same doc id of every posting."""
    assert hit.doc_ids.dtype == raw.doc_ids.dtype == np.uint64
    assert (hit.doc_ids == raw.doc_ids).all()
    assert hit.p_ord.dtype == raw.p_ord.dtype == np.uint32
    assert (np.asarray(hit.p_ord) == raw.p_ord).all()
    assert (hit.doc_ids[hit.p_ord] == raw.doc_ids[raw.p_ord]).all()
    for a, b in [*zip(hit.p_tf, raw.p_tf), *zip(hit.doc_len, raw.doc_len)]:
        assert a.dtype == b.dtype
        assert (np.asarray(a) == b).all()


@pytest.mark.usefixtures("ray_session")
def test_csr_cache_multigroup_merge(tmp_path):
    """Build-time cache with MULTIPLE un-compacted groups (interleaved
    term ranges): it must yield the same dictionary + results as an
    uncached load."""
    rng = np.random.default_rng(17)
    vocab = np.array(["a", "ab", "abc", "b", "ba", "ca", "zz", "zq"])
    corpus = _rand_corpus(rng, 90, 1, vocab)
    items = sorted(corpus.items())
    for gi in range(3):   # 3 files → files_per_group=1 → 3 groups
        part = dict(items[gi * 30:(gi + 1) * 30])
        write_corpus(str(tmp_path / f"p{gi}"), part, 1)
    idx = os.path.join(str(tmp_path), "index")
    build_index([str(tmp_path / f"p{gi}" / "corpus.parquet")
                 for gi in range(3)], idx, key_col="doc_id",
                field_cols=["f0"], files_per_group=1, overwrite=True)
    from probly_search_ray.search import ShardData
    hit = ShardData(idx)                        # build-time cache
    raw = ShardData(idx, use_cache=False)       # uncached load
    assert hit.terms == raw.terms
    assert (np.asarray(hit.df) == raw.df).all()
    _assert_same_postings(hit, raw)
    for f in range(1):
        assert (np.asarray(hit.tf_max[f]) == raw.tf_max[f]).all()
    # the cached Pareto frontiers equal the fresh computation
    assert set(hit.fr) == set(raw.fr)
    for ch in raw.fr:
        for a, b in zip(raw.fr[ch], hit.fr[ch]):
            assert (np.asarray(a) == np.asarray(b)).all(), ch
    eng = SearchEngine(idx)
    for q in ("a", "ab zz", "b ca zq"):
        full = eng.query(q, "bm25")
        full.sort(key=lambda r: (-r[1], r[0]))
        assert eng.query(q, "bm25", k=5) == full[:5], q


@pytest.mark.usefixtures("ray_session")
def test_csr_cache_roundtrip(tmp_path):
    """mmap'd CSR cache load == fresh decode (results and dictionary),
    and a rebuilt index invalidates the old cache via the manifest
    signature."""
    rng = np.random.default_rng(41)
    vocab = np.array(["a", "ab", "abc", "b", "ba", "ca"])
    corpus = _rand_corpus(rng, 50, 1, vocab)
    eng_fresh = build_engine(tmp_path, corpus)  # writes the cache
    import os as _os
    assert _os.path.isdir(_os.path.join(eng_fresh.index_dir, "cache"))
    from probly_search_ray.search import SearchEngine, ShardData
    cached = SearchEngine(eng_fresh.index_dir)      # mmap hit
    raw = ShardData(eng_fresh.index_dir, use_cache=False)
    hit = ShardData(eng_fresh.index_dir)
    assert hit.terms == raw.terms
    _assert_same_postings(hit, raw)
    for q in ["a", "ab", "b c", "ca ba"]:
        assert_results(cached.query(q, "bm25"), eng_fresh.query(q, "bm25"),
                       f"cache:{q!r}")
    # append → new signature → cache rebuilt, results track new state
    extra = {max(corpus) + 1: ("ab ca zz",)}
    all_corpus = dict(corpus); all_corpus.update(extra)
    path2 = write_corpus(str(tmp_path / "more"), all_corpus, 1)
    from probly_search_ray.build import build_index
    build_index(path2, eng_fresh.index_dir, key_col="doc_id",
                field_cols=["f0"], overwrite=True)
    eng2 = SearchEngine(eng_fresh.index_dir)
    assert any(d == max(all_corpus) for d, _ in eng2.query("zz", "bm25"))


@pytest.mark.usefixtures("ray_session")
def test_full_cache_serves_shard_ranges(tmp_path):
    """build_index(warm_cache=True) writes ONE mmap cache; a
    doc-sharded engine filters it (no per-shard cache dirs, no decode)
    and returns identical results."""
    rng = np.random.default_rng(47)
    vocab = np.array(["alpha", "alp", "beta", "bet", "gamma", "g"])
    corpus = _rand_corpus(rng, 60, 1, vocab)
    path = write_corpus(str(tmp_path), corpus, 1)
    idx = os.path.join(str(tmp_path), "index")
    build_index(path, idx, key_col="doc_id", field_cols=["f0"],
                overwrite=True, warm_cache=True)
    cache_dirs = os.listdir(os.path.join(idx, "cache"))
    assert len(cache_dirs) == 1
    eng1 = SearchEngine(idx)
    eng3 = SearchEngine(idx, doc_shards=3)
    for q in ["alp", "beta g", "gamma alpha"]:
        assert_results(eng3.query(q, "bm25"), eng1.query(q, "bm25"),
                       f"fullcache:{q!r}")
    # the sharded load did NOT create shard-specific cache dirs
    assert os.listdir(os.path.join(idx, "cache")) == cache_dirs


@pytest.mark.usefixtures("ray_session")
def test_conjunctive_query(tmp_path):
    """require_all=True returns exactly the disjunctive results whose
    docs carry EVERY query term (any expansion counts), with identical
    scores — across plain, sharded and top-k paths."""
    rng = np.random.default_rng(53)
    vocab = np.array(["alpha", "alp", "beta", "gamma", "delta", "eps"])
    corpus = _rand_corpus(rng, 80, 1, vocab)
    eng = build_engine(tmp_path, corpus)

    def has_all(doc_id, terms, expand):
        toks = corpus[doc_id][0].split()
        return all(any(t == q or (expand and t.startswith(q)) for t in toks)
                   for q in terms)

    for q, expand in [("alpha beta", False), ("alp gamma", True),
                      ("alpha beta gamma", False)]:
        full = eng.query(q, "bm25", expand=expand)
        conj = eng.query(q, "bm25", expand=expand, require_all=True)
        want = [(d, s) for d, s in full if has_all(d, q.split(), expand)]
        assert_results(conj, want, f"conj:{q!r}")
        # top-k path agrees with the head of the full conjunctive list
        topk = eng.query(q, "bm25", expand=expand, require_all=True, k=3)
        assert_results(topk, want[:3], f"conj-k:{q!r}")

    # a term absent from the corpus empties the conjunction
    assert eng.query("alpha zzz", "bm25", require_all=True) == []
    # sharded engine agrees
    eng3 = SearchEngine(eng.index_dir, doc_shards=3)
    assert_results(eng3.query("alpha beta", "bm25", require_all=True),
                   eng.query("alpha beta", "bm25", require_all=True),
                   "conj-sharded")
    # zero_to_one path honors the restriction too
    z_full = eng.query("alpha beta", "zero_to_one", expand=False)
    z_conj = eng.query("alpha beta", "zero_to_one", expand=False,
                       require_all=True)
    z_want = [(d, s) for d, s in z_full
              if has_all(d, ["alpha", "beta"], False)]
    assert_results(z_conj, z_want, "conj-z2o")


@pytest.mark.usefixtures("ray_session")
def test_doc_sharded_engine(tmp_path):
    """doc_shards=D (the SCALE.md 10^12-doc serving layout: full
    dictionary per shard, postings hash-partitioned by doc) is
    bit-identical to the default engine on every query path — expand /
    exact, multi-term, top-k, conjunctive, zero_to_one — including
    under tombstones (global df re-adjusted by summed per-shard hits)."""
    rng = np.random.default_rng(71)
    vocab = np.array(["alpha", "alp", "beta", "gamma", "delta", "eps",
                      "zet", "zeta"])
    corpus = _rand_corpus(rng, 120, 1, vocab)
    eng = build_engine(tmp_path, corpus)
    dse = SearchEngine(eng.index_dir, doc_shards=3)

    cases = [
        dict(q="alp", expand=True),
        dict(q="alpha", expand=False),
        dict(q="alpha beta gamma", expand=False),
        dict(q="alp zet", expand=True),
        dict(q="alp zet", expand=True, k=5),
        dict(q="beta", expand=False, k=4),
        dict(q="alpha beta", expand=False, require_all=True),
        dict(q="alp gamma", expand=True, require_all=True),
    ]
    for c in cases:
        q = c.pop("q")
        assert_results(dse.query(q, "bm25", **c), eng.query(q, "bm25", **c),
                       f"docshard:{q!r}:{c}")
        c["q"] = q
    assert_results(dse.query("alp beta", "zero_to_one", expand=True),
                   eng.query("alp beta", "zero_to_one", expand=True),
                   "docshard:z2o")

    # tombstones: remove a few docs, refresh both, re-compare (df
    # adjustment must be global, not per-shard)
    from probly_search_ray.maintain import remove_documents
    victims = [d for d, _ in eng.query("alpha", "bm25", k=3)]
    assert remove_documents(eng.index_dir, victims) == len(victims)
    eng.refresh()
    dse.refresh()
    for c in cases:
        c = dict(c)
        q = c.pop("q")
        assert_results(dse.query(q, "bm25", **c), eng.query(q, "bm25", **c),
                       f"docshard-tomb:{q!r}:{c}")
    assert_results(dse.query("alp beta", "zero_to_one", expand=True),
                   eng.query("alp beta", "zero_to_one", expand=True),
                   "docshard-tomb:z2o")

    # actor-pool doc shards agree too
    dsa = SearchEngine(eng.index_dir, doc_shards=3, use_actors=True)
    assert_results(dsa.query("alp zet", "bm25", k=5),
                   eng.query("alp zet", "bm25", k=5), "docshard-actors")


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("seed,nfields", [(61, 1), (62, 2), (63, 2)])
def test_frontier_bounds(tmp_path, seed, nfields):
    """Per-term Pareto-frontier score bounds (``frontier_ub``): for ANY
    (k1, b, avgs, boosts) the bound dominates every posting's actual
    BM25 contribution, is EXACT for terms whose postings all have
    single-field support, and survives the v3 cache roundtrip."""
    from probly_search_ray.search import ShardData, _frontier_channels
    rng = np.random.default_rng(seed)
    vocab = np.array(["a", "ab", "abc", "b", "ba", "ca", "zz"])
    corpus = _rand_corpus(rng, 70, nfields, vocab)
    eng = build_engine(tmp_path, corpus)        # writes the v3 cache
    raw = ShardData(eng.index_dir, use_cache=False)
    hit = ShardData(eng.index_dir)
    # cache roundtrip: frontier channels and arrays identical
    assert set(hit.fr) == set(raw.fr) == set(_frontier_channels(nfields))
    for ch in raw.fr:
        for a, b_ in zip(raw.fr[ch], hit.fr[ch]):
            assert (np.asarray(a) == np.asarray(b_)).all(), ch
    nt = len(raw.terms)
    idx_all = np.arange(nt, dtype=np.int64)
    params = [(1.2, 0.75, [1.0] * nfields, [2.0, 7.0][:nfields]),
              (0.9, 0.3, ([1.0, 0.0] * 2)[:nfields], [11.0, 3.0][:nfields]),
              (2.0, 1.0, [0.5, 2.0][:nfields], [1.0, 1.0][:nfields])]
    # per-posting support mask → which terms are single-field-only
    seg_n = np.diff(raw.post_off)
    tid = np.repeat(idx_all, seg_n)
    support = np.zeros(int(seg_n.sum()), np.int64)
    for f in range(nfields):
        support |= (np.asarray(raw.p_tf[f]) > 0).astype(np.int64) << f
    multi = np.zeros(nt, bool)
    both = (support & (support - 1)) > 0        # >1 bit set
    np.logical_or.at(multi, tid, both)
    idf = 1.0 + rng.random(nt)
    for k1, b, boosts, avgs in params:
        ub = raw.frontier_ub(idx_all, idf, boosts, avgs, k1, b)
        for ti, term in enumerate(raw.terms):
            _, docs, s = raw.score_bm25_batch(
                [term], [idf[ti]], boosts, avgs, k1, b,
                keep_nonpositive=True)
            actual = float(s.max()) if len(s) else 0.0
            assert ub[ti] >= actual - 1e-12, (term, k1, b, boosts)
            if not multi[ti] and any(boosts):
                assert abs(ub[ti] - actual) < 1e-9, \
                    (term, k1, b, boosts, "single-support must be exact")
    # absent term bounds to 0
    assert raw.frontier_ub(np.array([-1]), [1.0], [1.0] * nfields,
                           [3.0] * nfields, 1.2, 0.75)[0] == 0.0


@pytest.mark.parametrize("wide", [False, True])
def test_pareto_filter_matches_brute_force(wide):
    """``_pareto_filter`` against a per-term brute force: the distinct
    (tf, length) pairs with tf > 0 that no other posting of the term
    dominates (tf' ≥ tf and length' ≤ length), tf descending.  ``wide``
    values need 64 bits for (term, tf, length), more than the packed
    sort key holds, so they take the lexsort."""
    from probly_search_ray.search import _pareto_filter
    rng = np.random.default_rng(7)
    tfs, lens = np.array([0, 1, 2, 3, 5]), np.arange(1, 9)
    if wide:
        tfs[-1], lens[-1] = (1 << 32) - 2, (1 << 31) + 7
    nt = 9
    tid = np.sort(rng.integers(0, nt, 400))
    tf = rng.choice(tfs, len(tid))
    ln = rng.choice(lens, len(tid))
    off, ftf, fln = _pareto_filter(tid, tf, ln, nt)
    assert ftf.dtype == fln.dtype == np.uint32
    for t in range(nt):
        pts = {(int(a), int(b)) for a, b in zip(tf[tid == t], ln[tid == t])
               if a > 0}
        want = sorted(((a, b) for a, b in pts if not any(
            a2 >= a and b2 <= b and (a2, b2) != (a, b) for a2, b2 in pts)),
            key=lambda p: -p[0])
        got = list(zip(ftf[off[t]:off[t + 1]].tolist(),
                       fln[off[t]:off[t + 1]].tolist()))
        assert got == want, t


@pytest.mark.usefixtures("ray_session")
def test_fullrange_doc_ids_expansion_order(tmp_path):
    """Full-range uint64 doc ids (the hashed string-key shape): the
    trie-creation-order reconstruction must not depend on a packed
    ``doc_id << 20 | pos`` key, which WRAPS past 2^44 and scrambles
    cross-doc order.  Wrong expansion order is invisible to
    single-term queries (pure per-doc max) but changes multi- and
    repeated-term scores (``prev + s_first`` depends on which
    expansion first visits a doc).  Distilled from
    tools/fuzz_stringkeys.py seeds 60004/60008."""
    rng = np.random.default_rng(44)
    vocab = np.array(["ko", "kor", "korr", "kox", "koxy", "ko本", "ab",
                      "abx", "the,"])
    n = 50
    # random full-range ids, NON-ascending in file order
    ids = rng.integers(1, 2**63, size=n, dtype=np.uint64) | \
        np.uint64(1 << 63)
    texts = [" ".join(rng.choice(vocab, size=int(rng.integers(0, 9))))
             for _ in range(n)]
    pq.write_table(pa.table({
        "doc_id": pa.array(ids, type=pa.uint64()),
        "f0": pa.array(texts, type=pa.string()),
    }), str(tmp_path / "docs.parquet"))
    idx = os.path.join(str(tmp_path), "index")
    build_index(str(tmp_path / "docs.parquet"), idx, key_col="doc_id",
                field_cols=["f0"], batch_size=7, overwrite=True)
    ref = RefIndex(1)
    for i in np.argsort(ids):  # insertion order = ascending doc id
        ref.add_document([texts[i]], tok, int(ids[i]))
    eng = SearchEngine(idx)
    # expansion order must equal the reference trie DFS exactly
    assert eng._expansions_for("ko", True, 0)[0] == ref.expand_term("ko")
    for q in ["ko ko", "ko ab ko", "k a", "kox the, kox"]:
        assert_results(eng.query(q, "bm25"),
                       ref.query(q, BM25(), tok, [1.0]), f"huge:{q!r}")


@pytest.mark.usefixtures("ray_session")
def test_vacuum_preserves_expansion_order(tmp_path):
    """The reference's vacuum keeps node uids, so trie sibling
    creation order survives even when the occurrence that CREATED a
    node is removed.  The engine must keep a df-0 order-witness row
    for a term row whose postings all died, or post-vacuum expansion
    order re-derives from surviving occurrences and repeated-term
    scores drift.  Distilled from tools/fuzz_stringkeys.py seed
    61005."""
    from probly_search_ray.maintain import remove_document, vacuum
    # doc 0 creates 'kal' (and thus node 'l' under 'ka'); doc 1
    # creates 'kaz'; 'kal' also occurs in doc 2 so it survives the
    # removal of doc 0 — but its creation witness is doc 0
    corpus = {0: ("kal x",), 1: ("kaz kal x",), 2: ("kal kaz ka",),
              3: ("ka x kaz",), 4: ("x ka kal",)}
    eng = build_engine(tmp_path, corpus, batch_size=2)
    ref = RefIndex(1)
    for d in sorted(corpus):
        ref.add_document(list(corpus[d]), tok, d)
    remove_document(eng.index_dir, 0)
    ref.remove_document(0)
    vacuum(eng.index_dir)
    ref.vacuum()
    eng = SearchEngine(eng.index_dir)
    assert eng._expansions_for("ka", True, 0)[0] == ref.expand_term("ka")
    for q in ["ka ka", "ka kal ka", "k kaz k"]:
        assert_results(eng.query(q, "bm25"),
                       ref.query(q, BM25(), tok, [1.0]), f"vac:{q!r}")
        assert_results(eng.query(q, "zero_to_one"),
                       ref.query(q, ZeroToOne(), tok, [1.0]), f"vacz:{q!r}")

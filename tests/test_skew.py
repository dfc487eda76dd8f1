"""SKEW-1: Zipfian corpus where the hottest term appears in most docs.
The engine (with per-batch pre-aggregated posting blocks, multi-block
rows and top-k pruning) must still be exactly rank-identical with the
reference model, including tombstoned docs."""

import numpy as np
import pytest

from probly_search_ray.refmodel import BM25, RefIndex, ZeroToOne, \
    whitespace_tokenizer as tok
from probly_search_ray.sources.synth import make_vocab, zipf_probs
from tests.fixtures import assert_results
from tests.test_engine import build_engine


def _zipf_corpus(n_docs=800, vocab_size=300, seed=3, mean_len=20):
    rng = np.random.default_rng(seed)
    vocab = make_vocab(vocab_size, seed=7)
    probs = zipf_probs(vocab_size, 1.2)
    corpus = {}
    for d in range(n_docs):
        k = max(int(rng.poisson(mean_len)), 1)
        corpus[d] = (" ".join(rng.choice(vocab, size=k, p=probs)),)
    return corpus, vocab


@pytest.mark.usefixtures("ray_session")
def test_skewed_corpus_differential(tmp_path):
    corpus, vocab = _zipf_corpus()
    # sanity: hottest term really is in >50% of docs
    hot = str(vocab[0])
    share = sum(1 for c in corpus.values() if hot in c[0].split(" ")) / len(corpus)
    assert share > 0.5, share

    eng = build_engine(tmp_path, corpus, batch_size=64, block_postings=128)
    ref = RefIndex(1)
    for d in sorted(corpus):
        ref.add_document(list(corpus[d]), tok, d)

    queries = [hot, str(vocab[1]), str(vocab[50]), hot[:2], hot[:1],
               f"{hot} {vocab[10]}", f"{vocab[2]} {vocab[2]}"]
    for q in queries:
        assert_results(eng.query(q, "bm25"), ref.query(q, BM25(), tok, [1.0]),
                       f"skew-bm25:{q!r}")
        assert_results(eng.query(q, "zero_to_one"),
                       ref.query(q, ZeroToOne(), tok, [1.0]),
                       f"skew-z2o:{q!r}")
    # top-k pruning on the hot term == head of the full ranking
    full = eng.query(hot, "bm25")[:10]
    assert_results(eng.query(hot, "bm25", k=10), full, "skew-prune")


@pytest.mark.usefixtures("ray_session")
def test_skewed_with_tombstones(tmp_path):
    from probly_search_ray.maintain import remove_document, vacuum
    from probly_search_ray.search import SearchEngine
    corpus, vocab = _zipf_corpus(n_docs=200, seed=9)
    eng = build_engine(tmp_path, corpus, batch_size=32)
    ref = RefIndex(1)
    for d in sorted(corpus):
        ref.add_document(list(corpus[d]), tok, d)
    rng = np.random.default_rng(1)
    removed = sorted(rng.choice(len(corpus), size=30, replace=False).tolist())
    for d in removed:
        remove_document(eng.index_dir, d)
        ref.remove_document(d)
    eng2 = SearchEngine(eng.index_dir)
    hot = str(vocab[0])
    for q in [hot, hot[:2], str(vocab[20]), f"{hot} {vocab[5]}"]:
        assert_results(eng2.query(q, "bm25"),
                       ref.query(q, BM25(), tok, [1.0]), f"tomb-bm25:{q!r}")
        assert_results(eng2.query(q, "zero_to_one"),
                       ref.query(q, ZeroToOne(), tok, [1.0]), f"tomb-z2o:{q!r}")
    # after vacuum the same results hold (tombstones compacted away)
    vacuum(eng.index_dir)
    eng3 = SearchEngine(eng.index_dir)
    for q in [hot, str(vocab[20])]:
        assert_results(eng3.query(q, "bm25"),
                       ref.query(q, BM25(), tok, [1.0]), f"vac-bm25:{q!r}")


@pytest.mark.usefixtures("ray_session")
def test_stress_sharded_actors_differential(tmp_path):
    """Hardest configuration: 5 doc shards served by actors,
    tiny batches and posting blocks (maximum block fragmentation),
    prefix-nested zipf vocabulary, multi-term + repeated + prefix
    queries — must stay exactly rank-identical with the refmodel."""
    from probly_search_ray.search import SearchEngine
    rng = np.random.default_rng(21)
    base = ["ba", "bane", "banet", "to", "tori", "torimu", "sa", "sake",
            "ke", "kelo", "q", "qq", "qqq"]
    probs = np.asarray([1.0 / (i + 1) ** 1.1 for i in range(len(base))])
    probs /= probs.sum()
    corpus = {}
    for d in range(300):
        k = max(int(rng.poisson(12)), 1)
        corpus[d] = (" ".join(rng.choice(base, size=k, p=probs)),
                     " ".join(rng.choice(base, size=max(k // 2, 1), p=probs)))
    eng = build_engine(tmp_path, corpus, batch_size=37, block_postings=11,
                       files_per_group=1)
    eng_sharded = SearchEngine(eng.index_dir, doc_shards=5, use_actors=True)

    ref = RefIndex(2)
    for d in sorted(corpus):
        ref.add_document(list(corpus[d]), tok, d)

    queries = ["ba", "bane", "b", "to sa", "q qq qqq", "ba ba", "tori ke",
               "x", "t", "ba  to", "sake kelo torimu"]
    for q in queries:
        for boosts in ([1.0, 1.0], [2.0, 0.5]):
            exp = ref.query(q, BM25(), tok, boosts)
            got = eng_sharded.query(q, "bm25", fields_boost=boosts)
            assert_results(got, exp, f"stress-bm25:{q!r}:{boosts}")
        exp_z = ref.query(q, ZeroToOne(), tok, [1.0, 1.0])
        got_z = eng_sharded.query(q, "zero_to_one")
        assert_results(got_z, exp_z, f"stress-z2o:{q!r}")
        # pruned top-5 == head of full ranking
        full = eng_sharded.query(q, "bm25")[:5]
        assert_results(eng_sharded.query(q, "bm25", k=5), full,
                       f"stress-prune:{q!r}")

"""zero_to_one as a shard-side fold (``ShardData.zero_to_one_winners``)
against the reference model and the per-record walk of the custom
scorer path: node pools that run dry (one expansion winning for more
query terms than its tf), the fold's two slot cases (doc ordinal where
a term's postings are dense over the doc table, unique-ordinal index
where they are sparse), random 1- and 2-field corpora with 1-4-term
queries, ties at the kth, ``require_all``, ``exclude``, tombstones and a
doc-sharded pool."""

import numpy as np
import pytest

from probly_search_ray.maintain import remove_documents
from probly_search_ray.refmodel import (
    RefIndex, ZeroToOne, whitespace_tokenizer as tok)
from probly_search_ray.search import SearchEngine
from tests.fixtures import assert_results
from tests.test_engine import _rand_corpus, build_engine


def _ref(corpus, nfields):
    ref = RefIndex(nfields)
    for d in sorted(corpus):
        ref.add_document(list(corpus[d]), tok, d)
    return ref


def _matching(corpus, term, removed):
    """Live docs with a token that ``term`` prefixes, in any field."""
    return {d for d, fields in corpus.items() if d not in removed
            and any(t.startswith(term) for f in fields for t in tok(f)
                    if t)}


def _exact_walks(monkeypatch):
    """Spy on the exact per-record walk: the list of the doc sets it
    rescored."""
    calls = []
    orig = SearchEngine._z2o_exact

    def spy(self, ents, qlen, docs):
        calls.append([int(d) for d in docs])
        return orig(self, ents, qlen, docs)
    monkeypatch.setattr(SearchEngine, "_z2o_exact", spy)
    return calls


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("filler", [0, 4000])
def test_exhausted_pool_takes_the_exact_walk(tmp_path, monkeypatch, filler):
    """Docs holding ``abc`` once in a field: for "abc abc" and "ab abc"
    the one expansion ``abc`` wins that field for both query terms, so
    its pool (tf 1) runs dry and the second query term takes its next
    record, or none.  The fold hands exactly those docs to the exact
    walk.  ``filler`` docs of other words make the planted terms'
    postings sparse over the doc table (the fold's unique-ordinal
    slot)."""
    corpus = {0: ("abc", "abc abc"), 1: ("abc x", "x"), 2: ("abcd abc", ""),
              3: ("ab abc", "abcd"), 4: ("abc abc", "ab"), 5: ("x", "abc"),
              6: ("abcde", "x ab"), 7: ("ab", "ab")}
    for d in range(10, 10 + filler):
        corpus[d] = ("x y", "y")
    eng = build_engine(tmp_path, corpus)
    dse = SearchEngine(eng.index_dir, doc_shards=2)
    sd = eng.shards[0]
    n_abc = sd._n_postings(np.flatnonzero(
        [t.startswith("ab") for t in sd.terms]))
    assert sd._dense(n_abc) == (filler == 0)
    ref = _ref(corpus, 2)
    walks = _exact_walks(monkeypatch)
    for step in ("clean", "tombstoned"):
        if step == "tombstoned":
            assert remove_documents(eng.index_dir, [0, 6]) == 2
            ref.remove_document(0)
            ref.remove_document(6)
            eng.refresh()
            dse.refresh()
        for e, tag in ((eng, "one"), (dse, "doc2")):
            for q in ("abc abc", "ab abc", "abc ab abc"):
                del walks[:]
                want = ref.query(q, ZeroToOne(), tok, [1.0, 1.0])
                got = e.query(q, "zero_to_one")
                assert_results(got, want, f"{step}:{tag}:{q!r}")
                assert walks, f"{step}:{tag}:{q!r}: no exact walk ran"
                # field 0 of doc 1 holds abc once: its pool runs dry
                assert 1 in walks[0], walks
                assert 0 not in walks[0] or step == "clean"
            for q in ("abc x", "ab y", "abc"):
                # no expansion shared by two query terms: no dry pool
                del walks[:]
                want = ref.query(q, ZeroToOne(), tok, [1.0, 1.0])
                assert_results(e.query(q, "zero_to_one"), want,
                               f"{step}:{tag}:{q!r}")
                assert not walks, f"{step}:{tag}:{q!r}: {walks}"


def _queries(rng, vocab, n):
    """1-4 terms, each a vocabulary word or a prefix of one, often
    repeated or prefixing each other (shared expansions)."""
    qs = []
    for _ in range(n):
        terms = []
        for _ in range(int(rng.integers(1, 5))):
            t = str(rng.choice(vocab))
            if terms and rng.random() < 0.4:
                t = terms[-1]
            terms.append(t[:int(rng.integers(1, len(t) + 1))])
        qs.append(" ".join(terms))
    return qs


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("seed,nfields", [(0, 1), (1, 2), (2, 1), (3, 2)])
def test_fold_matches_reference_and_walk(tmp_path, monkeypatch, seed,
                                         nfields):
    """Random corpora: the fold equals the reference model at 1e-8 and
    the custom scorer path's per-record walk (``_query_custom`` with a
    ``ZeroToOne``) bit for bit, in-process and doc-sharded, with and
    without tombstones; so do its top-k cuts (ties at the kth
    included), ``require_all`` and ``exclude``."""
    rng = np.random.default_rng(seed)
    vocab = np.array(["a", "ab", "abc", "abcd", "b", "ba", "bab", "c",
                      "ca", "cab", "x", "xy"])
    corpus = _rand_corpus(rng, 60, nfields, vocab, max_len=7)
    eng = build_engine(tmp_path, corpus, batch_size=13, block_postings=5)
    dse = SearchEngine(eng.index_dir, doc_shards=2)
    ref = _ref(corpus, nfields)
    queries = _queries(rng, vocab, 14)
    removed: set = set()
    walks = _exact_walks(monkeypatch)
    kth_ties = 0
    for step in ("clean", "tombstoned"):
        if step == "tombstoned":
            removed = {int(d) for d in rng.choice(60, 8, replace=False)}
            assert remove_documents(eng.index_dir, sorted(removed)) == 8
            for d in removed:
                ref.remove_document(d)
            eng.refresh()
            dse.refresh()
        for q in queries:
            want = ref.query(q, ZeroToOne(), tok, [1.0] * nfields)
            every = set.intersection(*[_matching(corpus, t, removed)
                                       for t in set(q.split())])
            want_and = [r for r in want if r[0] in every]
            ex = str(rng.choice(vocab))[:1]
            drop = _matching(corpus, ex, removed)
            want_not = [r for r in want if r[0] not in drop]
            for e, tag in ((eng, "one"), (dse, "doc2")):
                fid = f"{step}:{tag}:{q!r}"
                got = e.query(q, "zero_to_one")
                assert_results(got, want, fid)
                assert got == e.query(q, scorer=ZeroToOne()), fid
                for k in (1, 3, 5):
                    assert_results(e.query(q, "zero_to_one", k=k),
                                   want[:k], f"{fid}:k{k}")
                    kth_ties += len(want) > k and \
                        want[k - 1][1] == want[k][1]
                assert_results(e.query(q, "zero_to_one", require_all=True),
                               want_and, f"{fid}:and")
                assert_results(e.query(q, "zero_to_one", k=3, exclude=ex),
                               want_not[:3], f"{fid}:not {ex!r}")
    # the cases do cut inside a tie and do run dry pools
    assert kth_ties
    assert walks


"""Randomized differential fuzz for the SERVING extensions —
autocomplete (``engine.complete``), fuzzy Levenshtein-expansion BM25
(``engine.query(fuzzy=d)``) and exact-phrase BM25
(``stages/phrase.py``) — vs the reference model / brute-force Python.

What fixed driver data cannot reach: prefixes expanding to zero /
one / every dictionary term, the empty prefix (full dictionary),
autocomplete after removals (tombstone-adjusted occurrence df), fuzzy
distances where the expansion set is empty / the whole vocab /
includes multi-byte-unicode variants (byte-length boost vs code-point
edits), multi-term fuzzy queries (expansion-order-dependent
first-visit merge), phrases of length 1, phrases longer than any doc,
phrases with double spaces, and phrase tf > 1 (overlapping adjacent
repeats).

Oracles:
- complete: the reference trie's expansion set + occurrence-counted
  tombstone-aware df (``refmodel.count_documents``), ranked
  (df desc, term asc).
- fuzzy: ``RefIndex.query`` with ``expand_term`` monkeypatched to the
  documented deterministic fuzzy order — exact term first, then the
  Levenshtein-≤ d dictionary variants sorted lexicographically —
  where the variant set comes from a brute-force Python edit-distance
  DP over the trie's stored terms (never from the engine).
- phrase: brute-force tokenize + adjacency count + the documented
  pseudo-term BM25 formula (tf = adjacency count, df = Σ tf,
  occurrence-counted M8 quirk), computed in the same float64 op
  order, so scores match at 1e-9 after the engine's 6dp round.

Run from the repo root:  FUZZ_SEEDS=60 python tools/fuzz_serving.py
(owns its Ray session, like bench.py / the other tools/ harnesses).
"""
import math
import os
import sys
import tempfile
import time
import traceback

import numpy as np
import pandas as pd
import ray

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)
sys.path.insert(0, os.path.join(_REPO, "tools"))

from fuzz_diff import assert_results, rand_vocab  # noqa: E402
from probly_search_ray.refmodel import (  # noqa: E402
    BM25, RefIndex, whitespace_tokenizer as tok)
from probly_search_ray.search import SearchEngine  # noqa: E402
from tests.test_engine import _rand_corpus, build_engine  # noqa: E402

N_SEEDS = int(os.environ.get("FUZZ_SEEDS", "60"))
START = int(os.environ.get("FUZZ_START", "50000"))


class _FuzzyBM25(BM25):
    """BM25 with the fuzzy ABS byte-length-delta boost (the engine's
    documented extension, ``search.py`` ``_query_bm25``): fuzzy
    variants can be SHORTER than the query term, where the reference's
    prefix-only formula divides by zero."""

    def before_each(self, term_data, document_frequency, docs):
        n_docs = len(docs)
        freq = min(n_docs, document_frequency)
        qe = term_data.query_term_expanded
        qt = term_data.query_term
        if qe == qt:
            boost = 1.0
        else:
            boost = math.log(1.0 + 1.0 / (
                1.0 + abs(len(qe.encode()) - len(qt.encode()))))
        idf = math.log(1.0 + (n_docs - freq + 0.5) / (freq + 0.5))
        return (idf, boost)


def _lev(a: str, b: str) -> int:
    """Classic Levenshtein DP over UTF-8 BYTES — the engine's
    documented distance (``search.py`` ``expand_fuzzy``: byte-level,
    ≡ characters for ASCII terms)."""
    if a == b:
        return 0
    a, b = a.encode(), b.encode()
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _dict_terms(ref: RefIndex) -> list:
    """Every stored dictionary term (nodes with live-or-dead postings),
    via the reference trie's own expansion from the root."""
    return ref.expand_term("")


def check_complete(rng, ref, engines, ctx):
    terms = _dict_terms(ref)
    prefixes = [""]
    for _ in range(4):
        t = str(rng.choice(terms)) if terms else "q"
        prefixes.append(t[: int(rng.integers(1, len(t) + 1))])
    prefixes.append("zzzz")                       # guaranteed miss
    for prefix in prefixes:
        k = int(rng.integers(1, 9))
        exp = []
        for t in ref.expand_term(prefix):
            df = ref.count_documents(ref._find_node(t))
            if df > 0:
                exp.append((t, df))
        exp.sort(key=lambda x: (-x[1], x[0]))
        exp = exp[:k]
        for e, tag in engines:
            got = e.complete(prefix, k=k)
            assert got == exp, (f"{ctx} complete[{tag}] prefix={prefix!r} "
                                f"k={k}: {got} != {exp}")


def check_fuzzy(rng, ref, engines, vocab, boosts, k1, b, ctx):
    terms = _dict_terms(ref)
    queries = []
    for _ in range(4):
        base = str(rng.choice(vocab))
        r = rng.random()
        if r < 0.4:
            queries.append(base)                  # often stored exactly
        elif r < 0.7 and len(base) > 1:
            queries.append(base[:-1] + "q")       # 1 substitution away
        else:
            queries.append(base + "qq")           # 2 insertions away
    if len(terms) >= 2:                           # multi-term fuzzy
        queries.append(f"{rng.choice(vocab)} {rng.choice(vocab)}")
    queries.append("zzzzzzzz")                    # empty expansion set
    for q in queries:
        d = int(rng.choice([1, 2]))
        qterms = tok(q)

        def fuzzy_expand(term, _d=d, _terms=terms):
            var = sorted(t for t in _terms
                         if t != term and _lev(term, t) <= _d)
            if term in _terms:
                var.insert(0, term)
            return var

        orig = ref.expand_term
        ref.expand_term = fuzzy_expand
        try:
            exp = ref.query(q, _FuzzyBM25(k1=k1, b=b), tok, boosts)
        finally:
            ref.expand_term = orig
        for e, tag in engines:
            got = e.query(q, "bm25", fuzzy=d, k1=k1, b=b,
                          fields_boost=boosts)
            assert_results(got, exp,
                           f"{ctx} fuzzy[{tag}] q={q!r} d={d} "
                           f"qterms={qterms}")


def check_phrase(rng, corpus, eng, k1, b, ctx):
    from probly_search_ray.stages.phrase import phrase_bm25
    toks_by_doc = {d: tok(fields[0]) for d, fields in corpus.items()}
    toks_by_doc = {d: [t for t in ts if t]
                   for d, ts in toks_by_doc.items()}
    docs_df = pd.DataFrame({
        "doc_id": np.array(sorted(corpus), dtype=np.int64),
        "f0": [corpus[d][0] for d in sorted(corpus)]})
    ds = ray.data.from_pandas(docs_df)

    phrases = []
    with_pairs = [ts for ts in toks_by_doc.values() if len(ts) >= 2]
    for _ in range(3):
        if with_pairs and rng.random() < 0.7:     # planted hit
            ts = with_pairs[int(rng.integers(0, len(with_pairs)))]
            i = int(rng.integers(0, len(ts) - 1))
            L = int(rng.choice([1, 2, 3]))
            phrases.append(" ".join(ts[i:i + L]))
        else:                                     # random (likely miss)
            v = [str(t) for t in
                 rng.choice(np.asarray(list(
                     {t for ts in toks_by_doc.values() for t in ts}
                     or {"q"})), size=2)]
            phrases.append(" ".join(v))
    phrases.append("zz qq")                       # guaranteed miss
    if with_pairs:
        ts = max(with_pairs, key=len)
        phrases.append("  ".join(ts[:2]))         # double-space phrase
        phrases.append(" ".join(ts) + " tail")    # longer than the doc

    n_docs = len(corpus)
    sum_len = sum(len(ts) for ts in toks_by_doc.values())
    avg = sum_len / float(n_docs)

    for phrase in phrases:
        terms = [t for t in tok(phrase) if t]
        exp = {}
        if terms:
            L = len(terms)
            df = 0
            tfs = {}
            for d, ts in toks_by_doc.items():
                tf = sum(1 for i in range(len(ts) - L + 1)
                         if ts[i:i + L] == terms)
                if tf:
                    tfs[d] = (tf, len(ts))
                    df += tf
            if df:
                freq = min(n_docs, df)
                idf = math.log(1.0 + (n_docs - freq + 0.5) / (freq + 0.5))
                for d, (tf, dl) in tfs.items():
                    s = ((k1 + 1.0) * tf) / (
                        k1 * ((1.0 - b) + b * (dl / avg)) + tf) * idf
                    exp[d] = round(float(np.round(s, 6)), 6)
        got_df = phrase_bm25(eng, ds, phrase, text_col="f0", k1=k1, b=b)
        if not isinstance(got_df, pd.DataFrame):   # Dataset on hits
            got_df = got_df.to_pandas()
        got = {int(r.doc_id): float(r.score) for r in got_df.itertuples()}
        assert got.keys() == exp.keys(), \
            f"{ctx} phrase={phrase!r}: docs {sorted(got)} != {sorted(exp)}"
        for d in exp:
            assert abs(got[d] - exp[d]) <= 1e-9, \
                f"{ctx} phrase={phrase!r} doc={d}: {got[d]} != {exp[d]}"


def run_seed(seed, workdir):
    rng = np.random.default_rng(seed)
    nfields = int(rng.choice([1, 1, 2]))
    n_docs = int(rng.integers(6, 120))
    vocab = rand_vocab(rng)
    corpus = _rand_corpus(rng, n_docs, nfields, vocab,
                          max_len=int(rng.integers(3, 12)))
    bs = int(rng.choice([7, 4096]))
    bp = int(rng.choice([5, 4096]))
    ctx = f"seed={seed} nf={nfields} nd={n_docs}"
    with tempfile.TemporaryDirectory(dir=workdir) as td:
        e1 = build_engine(td, corpus, batch_size=bs, block_postings=bp)
        engines = [(e1, "one")]
        if seed % 3 == 0:
            engines.append((SearchEngine(e1.index_dir, doc_shards=4),
                            "doc4"))
        if seed % 3 == 1:
            engines.append((SearchEngine(e1.index_dir, doc_shards=3),
                            "doc3"))

        ref = RefIndex(nfields)
        for d in sorted(corpus):
            ref.add_document(list(corpus[d]), tok, d)

        k1 = float(rng.uniform(0.3, 2.6))
        b = float(rng.uniform(0.0, 1.0))
        boosts = [float(rng.choice([0.5, 1.0, 2.0]))
                  for _ in range(nfields)]

        check_complete(rng, ref, engines, ctx)
        check_fuzzy(rng, ref, engines, vocab, boosts, k1, b, ctx)
        if nfields == 1:
            check_phrase(rng, corpus, e1, k1, b, ctx)

        # tombstone round: remove some docs, re-open, complete again
        if n_docs > 4 and rng.random() < 0.5:
            from probly_search_ray.maintain import remove_document
            for d in rng.choice(sorted(corpus), size=2, replace=False):
                remove_document(e1.index_dir, int(d))
                ref.remove_document(int(d))
            e2 = SearchEngine(e1.index_dir)
            check_complete(rng, ref, [(e2, "tomb")], ctx + " tomb")
            check_fuzzy(rng, ref, [(e2, "tomb")], vocab, boosts,
                        k1, b, ctx + " tomb")


def main():
    ray.init(address="local", num_cpus=16, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import logging
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    workdir = "/tmp/fuzzwork"
    os.makedirs(workdir, exist_ok=True)
    fails = 0
    t0 = time.time()
    done = 0
    for seed in range(START, START + N_SEEDS):
        done += 1
        try:
            run_seed(seed, workdir)
        except Exception:
            fails += 1
            print(f"FAIL seed={seed}", flush=True)
            traceback.print_exc()
            if fails >= 3:
                break
        if done % 5 == 0:
            print(f"{done}/{N_SEEDS} seeds, {time.time()-t0:.0f}s, "
                  f"fails={fails}", flush=True)
    print(f"SERVING_FUZZ_DONE fails={fails} seeds={done} "
          f"elapsed={time.time()-t0:.0f}s", flush=True)
    ray.shutdown()
    sys.exit(1 if fails else 0)


if __name__ == "__main__":
    main()

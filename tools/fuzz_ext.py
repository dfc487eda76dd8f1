"""Randomized differential fuzz for the EXTENSION query features:
conjunctive (require_all), exclusion (NOT), exact-term mode
(expand=False) and the custom-ScoreCalculator path — expected values
derived brute-force from the reference model's trie (expansion doc
sets) or from the refmodel itself with expansion monkeypatched to
exact-only, never from the engine.

Run from the repo root:  FUZZ_SEEDS=300 python tools/fuzz_ext.py
(owns its Ray session, like bench.py).  Uses fuzz_diff's tie-aware
comparator (last-ulp score ties order arbitrarily across summation
orders)."""
import os
import sys
import time
import traceback

import numpy as np
import ray

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)
sys.path.insert(0, os.path.join(_REPO, "tools"))

from fuzz_diff import (  # noqa: E402
    assert_results, rand_queries, rand_vocab)
from probly_search_ray.refmodel import (  # noqa: E402
    BM25, RefIndex, ScoreCalculator, ZeroToOne,
    whitespace_tokenizer as tok)
from probly_search_ray.search import SearchEngine  # noqa: E402
from tests.test_engine import _rand_corpus, build_engine  # noqa: E402

N_SEEDS = int(os.environ.get("FUZZ_SEEDS", "300"))
START = int(os.environ.get("FUZZ_START", "20000"))


def docs_matching(ref, term, expand=True):
    """Brute-force doc set matching a term (any expansion counts) —
    mirrors the reference trie directly, not the engine."""
    if expand:
        exps = ref.expand_term(term)
    else:
        node = ref._find_node(term)
        exps = [term] if node is not None and node.postings else []
    out = set()
    for e in exps:
        node = ref._find_node(e)
        for k, _ in node.postings:
            if k not in ref.removed:
                out.add(k)
    return out


def conj_expected(ref, base, q):
    cand = None
    for t in dict.fromkeys(tok(q)):
        if t == "":
            continue
        d = docs_matching(ref, t)
        cand = d if cand is None else (cand & d)
        if not cand:
            return []
    if cand is None:
        return []
    return [r for r in base if r[0] in cand]


def excl_expected(ref, base, excl_q):
    dropped = set()
    for t in dict.fromkeys(tok(excl_q)):
        if t:
            dropped |= docs_matching(ref, t)
    return [r for r in base if r[0] not in dropped]


class MixScorer(ScoreCalculator):
    """Stateful custom scorer with seed-dependent coefficients —
    exercises the engine's generic visit-order path (same class runs
    on both sides, so only the plumbing is under test)."""

    def __init__(self, a, b2):
        self.a = a
        self.b2 = b2
        self.visits = 0

    def before_each(self, term_data, document_frequency, docs):
        return (document_frequency, len(docs))

    def score(self, before, term_frequency, field_length, node_uid,
              fields_boost, fields, term_data):
        self.visits += 1
        df, n = before
        s = sum(tf * bo for tf, bo in zip(term_frequency, fields_boost))
        if s <= 0:
            return None
        fl = sum(field_length) or 1
        return self.a * s / (1.0 + df) + self.b2 * s / fl

    def finalize(self, results):
        for r in results:
            r[1] = r[1] * 1.0


def run_seed(seed, td):
    rng = np.random.default_rng(seed)
    nfields = int(rng.integers(1, 3))
    vocab = rand_vocab(rng)
    corpus = _rand_corpus(rng, int(rng.integers(10, 120)), nfields,
                          vocab, max_len=int(rng.integers(3, 12)))
    e1 = build_engine(td, corpus,
                      batch_size=int(rng.choice([5, 4096])),
                      block_postings=int(rng.choice([3, 4096])))
    engines = [(e1, "one")]
    if seed % 4 == 0:
        engines.append((SearchEngine(e1.index_dir, doc_shards=3), "doc3"))
    if seed % 4 == 1:
        engines.append((SearchEngine(e1.index_dir, doc_shards=2), "doc2"))

    ref = RefIndex(nfields)
    for d in sorted(corpus):
        ref.add_document(list(corpus[d]), tok, d)

    k1 = float(rng.uniform(0.4, 2.4))
    b = float(rng.uniform(0.0, 1.0))
    boosts = [float(rng.choice([0.5, 1.0, 2.0])) for _ in range(nfields)]
    bm = BM25(k1=k1, b=b)

    for q in rand_queries(rng, vocab, n=8):
        base = ref.query(q, bm, tok, boosts)
        excl_q = " ".join(
            str(t) for t in rng.choice(vocab, size=int(rng.integers(1, 3))))
        if rng.random() < 0.3:  # exclude by a prefix fragment
            t = str(rng.choice(vocab))
            excl_q += " " + t[: max(1, len(t) // 2)]
        exp_conj = conj_expected(ref, base, q)
        exp_excl = excl_expected(ref, base, excl_q)
        exp_both = excl_expected(ref, exp_conj, excl_q)
        kk = int(rng.integers(1, 6))
        for e, tag in engines:
            ctx = (f"seed={seed} {tag} q={q!r} excl={excl_q!r} "
                   f"k1={k1:.3f} b={b:.3f} boosts={boosts}")
            kw = dict(k1=k1, b=b, fields_boost=boosts)
            assert_results(e.query(q, "bm25", require_all=True, **kw),
                           exp_conj, "conj " + ctx)
            assert_results(e.query(q, "bm25", require_all=True, k=kk,
                                   **kw), exp_conj, f"conjk{kk} " + ctx,
                           k=kk)
            assert_results(e.query(q, "bm25", exclude=excl_q, **kw),
                           exp_excl, "excl " + ctx)
            assert_results(e.query(q, "bm25", exclude=excl_q, k=kk, **kw),
                           exp_excl, f"exclk{kk} " + ctx, k=kk)
            assert_results(e.query(q, "bm25", require_all=True,
                                   exclude=excl_q, **kw),
                           exp_both, "both " + ctx)

    # exact-term mode: refmodel with expansion monkeypatched to exact
    orig = ref.expand_term
    ref.expand_term = lambda term: (
        [term] if (n := ref._find_node(term)) is not None and n.postings
        else [])
    try:
        for q in rand_queries(rng, vocab, n=5):
            exp_exact = ref.query(q, bm, tok, boosts)
            exp_exact_z = ref.query(q, ZeroToOne(), tok, boosts)
            for e, tag in engines:
                ctx = f"seed={seed} {tag} q={q!r} exact"
                assert_results(
                    e.query(q, "bm25", expand=False, k1=k1, b=b,
                            fields_boost=boosts), exp_exact, "bm25 " + ctx)
                assert_results(
                    e.query(q, "zero_to_one", expand=False,
                            fields_boost=boosts), exp_exact_z, "z2o " + ctx)
    finally:
        ref.expand_term = orig

    # custom-calculator path: builtin instances + a stateful scorer
    for q in rand_queries(rng, vocab, n=4):
        exp_b = ref.query(q, bm, tok, boosts)
        exp_m = ref.query(q, MixScorer(0.7 + 0.1 * (seed % 5), 0.3), tok,
                          boosts)
        for e, tag in engines:
            ctx = f"seed={seed} {tag} q={q!r} custom"
            assert_results(
                e.query(q, scorer=BM25(k1=k1, b=b), k1=k1, b=b,
                        fields_boost=boosts), exp_b, "bm25inst " + ctx)
            assert_results(
                e.query(q, scorer=MixScorer(0.7 + 0.1 * (seed % 5), 0.3),
                        fields_boost=boosts), exp_m, "mix " + ctx)


def main():
    ray.init(address="local", num_cpus=16, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import logging
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import tempfile
    fails = 0
    t0 = time.time()
    done = 0
    for seed in range(START, START + N_SEEDS):
        with tempfile.TemporaryDirectory(dir="/tmp/fuzzwork") as td:
            try:
                run_seed(seed, td)
            except Exception:
                fails += 1
                print(f"FAIL seed={seed}", flush=True)
                traceback.print_exc()
                if fails >= 3:
                    break
        done += 1
        if done % 20 == 0:
            print(f"{done}/{N_SEEDS} seeds, {time.time()-t0:.0f}s, "
                  f"fails={fails}", flush=True)
    print(f"EXT_FUZZ_DONE fails={fails} seeds={done} "
          f"elapsed={time.time()-t0:.0f}s", flush=True)
    ray.shutdown()
    sys.exit(1 if fails else 0)


if __name__ == "__main__":
    os.makedirs("/tmp/fuzzwork", exist_ok=True)
    main()

"""Extended randomized differential fuzz: engine (all serving layouts,
random build params, random k1/b/fields_boost/k) vs the pure-Python
reference model.  Hammers the Pareto-frontier top-k prune loops, whose
bounds must be valid for ANY (k1, b, boosts), plus prefix expansion
over unicode tokens (byte-length boost) and the concurrent multi-term
dispatch.

Run from the repo root:  FUZZ_SEEDS=600 python tools/fuzz_diff.py
(owns its Ray session, like bench.py).  The comparator is exact
BETWEEN score-tie groups and unordered WITHIN one: the vectorized
engine and the sequential refmodel sum floats in different orders, so
docs whose true scores tie at the last ulp can land one ulp apart and
flip — scores still agree at 1e-8 (and the driver oracle's 6dp
rounding), so that flip is an fp-op-order artifact, not a semantic
difference.  600 seeds x ~14 queries x 3 layouts: 0 failures."""
import os
import sys
import time
import traceback

import numpy as np
import ray

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)

from probly_search_ray.refmodel import (  # noqa: E402
    BM25, RefIndex, ZeroToOne, whitespace_tokenizer as tok)
from probly_search_ray.search import SearchEngine  # noqa: E402
from tests.test_engine import _rand_corpus, build_engine  # noqa: E402

TOL = 1e-8
TIE = 1e-11  # relative: groups scores that differ only by fp op order


def _tie_groups(expected):
    """Group consecutive (key, score) entries whose scores are equal
    within TIE relative tolerance — candidates for order flips when a
    1-ulp summation-order difference breaks an exact tie."""
    groups = []
    for k, s in expected:
        if groups and abs(s - groups[-1][0]) <= TIE * max(1.0, abs(s)):
            groups[-1][1].append(k)
        else:
            groups.append((s, [k]))
    return groups


def assert_results(actual, expected, fid, k=None):
    """Rank comparison that is exact BETWEEN tie groups and unordered
    WITHIN a tie group; at a top-k boundary the cut group may contain
    any subset of its tied keys."""
    full = expected
    if k is not None:
        assert len(actual) == min(k, len(full)), \
            f"{fid}: len {len(actual)} != min({k},{len(full)})"
    else:
        assert len(actual) == len(full), \
            f"{fid}: len {len(actual)} != {len(full)}"
    pos = 0
    for gs, keys in _tie_groups(full):
        take = actual[pos:pos + len(keys)]
        if not take:
            break
        for ak, ascore in take:
            assert abs(ascore - gs) <= TOL * max(1.0, abs(gs)), \
                f"{fid}: score {ascore} != {gs} at doc {ak}"
        got_keys = {ak for ak, _ in take}
        if len(take) == len(keys):
            assert got_keys == set(keys), \
                f"{fid}: tie group {sorted(got_keys)} != {sorted(keys)}"
        else:  # truncated boundary group: any subset of the tie is valid
            assert got_keys <= set(keys), \
                f"{fid}: boundary {sorted(got_keys)} ⊄ {sorted(keys)}"
        pos += len(take)

N_SEEDS = int(os.environ.get("FUZZ_SEEDS", "300"))
START = int(os.environ.get("FUZZ_START", "1000"))

SYLL = ["ka", "ke", "ko", "mu", "ma", "zu", "a", "ab", "x", "é", "日"]
SUFF = ["", "r", "rr", "x", "xy", "z", "bc", "é", "本", "本語"]


def rand_vocab(rng):
    fams = rng.choice(len(SYLL), size=int(rng.integers(3, 8)),
                      replace=False)
    vocab = sorted({SYLL[f] + s for f in fams for s in SUFF
                    if rng.random() < 0.7} | {"the", "the,"})
    return np.array(vocab)


def rand_queries(rng, vocab, n=14):
    qs = []
    for _ in range(n):
        r = rng.random()
        if r < 0.25:  # prefix fragments (expansion stress)
            t = str(rng.choice(vocab))
            qs.append(t[: max(1, int(rng.integers(1, len(t) + 1)))])
        elif r < 0.45:  # single exact term
            qs.append(str(rng.choice(vocab)))
        elif r < 0.9:  # multi-term, 2-6 terms (concurrent dispatch)
            k = int(rng.integers(2, 7))
            terms = [str(t) for t in rng.choice(vocab, size=k)]
            if rng.random() < 0.3:  # repeated term
                terms.append(terms[0])
            sep = "  " if rng.random() < 0.2 else " "
            qs.append(sep.join(terms))
        else:  # miss / garbage
            qs.append(rng.choice(["q", "zzz", "", " ", "ka\tq"]))
    return qs


def main():
    ray.init(address="local", num_cpus=16, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import logging
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import tempfile
    fails = 0
    t_start = time.time()
    for seed in range(START, START + N_SEEDS):
        rng = np.random.default_rng(seed)
        nfields = int(rng.integers(1, 4))
        n_docs = int(rng.integers(8, 180))
        vocab = rand_vocab(rng)
        corpus = _rand_corpus(rng, n_docs, nfields, vocab,
                              max_len=int(rng.integers(3, 14)))
        bs = int(rng.choice([3, 7, 17, 4096]))
        bp = int(rng.choice([2, 5, 4096]))
        with tempfile.TemporaryDirectory(dir="/tmp/fuzzwork") as td:
            try:
                e1 = build_engine(td, corpus, batch_size=bs,
                                  block_postings=bp)
                engines = [(e1, "one")]
                if seed % 3 == 0:
                    engines.append(
                        (SearchEngine(e1.index_dir, doc_shards=4), "doc4"))
                if seed % 3 == 1:
                    engines.append(
                        (SearchEngine(e1.index_dir, doc_shards=3), "doc3"))

                ref = RefIndex(nfields)
                for d in sorted(corpus):
                    ref.add_document(list(corpus[d]), tok, d)

                k1 = float(rng.uniform(0.3, 2.6))
                b = float(rng.uniform(0.0, 1.0))
                boosts = [float(rng.choice([0.0, 0.5, 1.0, 2.0]))
                          for _ in range(nfields)]
                if all(v == 0.0 for v in boosts):
                    boosts[-1] = 1.0
                bm = BM25(k1=k1, b=b)
                z2o = ZeroToOne()
                for q in rand_queries(rng, vocab):
                    exp_b = ref.query(q, bm, tok, boosts)
                    exp_z = ref.query(q, z2o, tok, boosts)
                    for e, tag in engines:
                        ctx = (f"seed={seed} {tag} q={q!r} k1={k1:.3f} "
                               f"b={b:.3f} boosts={boosts} bs={bs} bp={bp}")
                        got = e.query(q, "bm25", k1=k1, b=b,
                                      fields_boost=boosts)
                        assert_results(got, exp_b, "bm25 " + ctx)
                        kk = int(rng.integers(1, 8))
                        gk = e.query(q, "bm25", k=kk, k1=k1, b=b,
                                     fields_boost=boosts)
                        assert_results(gk, exp_b, f"bm25 k={kk} " + ctx,
                                       k=kk)
                        gz = e.query(q, "zero_to_one", fields_boost=boosts)
                        assert_results(gz, exp_z, "z2o " + ctx)
            except Exception:
                fails += 1
                print(f"FAIL seed={seed}", flush=True)
                traceback.print_exc()
                if fails >= 3:
                    break
        if (seed - START + 1) % 20 == 0:
            dt = time.time() - t_start
            print(f"{seed - START + 1}/{N_SEEDS} seeds, {dt:.0f}s, "
                  f"fails={fails}", flush=True)
    print(f"FUZZ_DONE fails={fails} seeds={seed - START + 1} "
          f"elapsed={time.time() - t_start:.0f}s", flush=True)
    ray.shutdown()
    sys.exit(1 if fails else 0)


if __name__ == "__main__":
    os.makedirs("/tmp/fuzzwork", exist_ok=True)
    main()

"""Fulltext extensions beyond the reference: fuzzy (Levenshtein)
expansion, autocomplete, and exact-phrase BM25.  Each is pinned by a
pure-Python brute-force differential (no shared code with the engine's
vectorized paths) plus layout variations (multi-shard / doc-sharded)."""

import math
import os
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from probly_search_ray.search import SearchEngine
from tests.test_engine import build_engine, write_corpus

TOL = 1e-9


def _lev(a: str, b: str) -> int:
    m, n = len(a), len(b)
    dp = list(range(n + 1))
    for i in range(1, m + 1):
        prev, dp[0] = dp[0], i
        for j in range(1, n + 1):
            cur = dp[j]
            dp[j] = min(dp[j] + 1, dp[j - 1] + 1,
                        prev + (a[i - 1] != b[j - 1]))
            prev = cur
    return dp[n]


def _mk_corpus(rng, n=200):
    vocab = ["cat", "cart", "care", "car", "bat", "bath", "table",
             "tab", "tale", "stale", "scale", "scan", "x", "xy", "xyz"]
    return [(" ".join(rng.choice(vocab, size=rng.integers(3, 12))),)
            for _ in range(n)]


def _brute_fuzzy(corpus, q, d):
    toks = [t[0].split(" ") for t in corpus]
    n_docs = len(toks)
    df = Counter()
    for ws in toks:
        df.update(Counter(ws))          # occurrence-counted df (M8)
    avg = sum(len(ws) for ws in toks) / n_docs
    exp = sorted(w for w in df if _lev(w, q) <= d)
    scores = {}
    for e in exp:
        boost = 1.0 if e == q else math.log(
            1.0 + 1.0 / (1.0 + abs(len(e.encode()) - len(q.encode()))))
        freq = min(n_docs, df[e])
        idf = math.log(1.0 + (n_docs - freq + 0.5) / (freq + 0.5))
        for i, ws in enumerate(toks):
            tf = ws.count(e)
            if tf:
                s = ((2.2 * tf) / (1.2 * (0.25 + 0.75 * (len(ws) / avg))
                                   + tf)) * idf * boost
                scores[i] = max(scores.get(i, -1.0), s)
    return sorted(scores.items(), key=lambda x: (-x[1], x[0]))


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("layout", ["single", "doc_sharded"])
def test_fuzzy_differential(tmp_path, layout):
    rng = np.random.default_rng(7)
    corpus = _mk_corpus(rng)
    eng = build_engine(tmp_path, corpus)
    if layout == "doc_sharded":
        eng = SearchEngine(eng.index_dir, doc_shards=2, use_actors=True)
    for q, d in [("cat", 1), ("cat", 2), ("tale", 2), ("zzzz", 1),
                 ("scal", 1)]:
        got = eng.query(q, "bm25", fuzzy=d)
        want = _brute_fuzzy(corpus, q, d)
        assert len(got) == len(want), (q, d, layout)
        for (gd, gs), (wd, ws) in zip(got, want):
            assert gd == wd and abs(gs - ws) < TOL, (q, d, layout)
    # top-k agrees with the full ranking's head
    full = eng.query("cat", "bm25", fuzzy=2)
    assert eng.query("cat", "bm25", fuzzy=2, k=5) == full[:5]
    # conjunctive + fuzzy: all-terms semantics under fuzzy expansion
    res = eng.query("cat tale", "bm25", fuzzy=1, require_all=True)
    cand = {d for d, _ in res}
    for i, (t,) in enumerate(corpus):
        ws = t.split(" ")
        m1 = any(_lev(w, "cat") <= 1 for w in ws)
        m2 = any(_lev(w, "tale") <= 1 for w in ws)
        assert (i in cand) == (m1 and m2)


@pytest.mark.usefixtures("ray_session")
def test_fuzzy_with_tombstones(tmp_path):
    from probly_search_ray.maintain import remove_documents
    rng = np.random.default_rng(11)
    corpus = _mk_corpus(rng, n=80)
    eng = build_engine(tmp_path, corpus)
    removed = [0, 3, 9]
    remove_documents(eng.index_dir, removed)
    eng.refresh()
    got = eng.query("cat", "bm25", fuzzy=2)
    # brute force over the surviving corpus, df adjusted like the
    # reference (stats stay stale-avg; engine recomputes df only)
    survivors = [(i, t) for i, (t,) in enumerate(corpus)
                 if i not in removed]
    toks = {i: t.split(" ") for i, t in survivors}
    n_docs = eng.stats.num_docs
    avg = eng.stats.field_avg(0)
    df = Counter()
    for ws in toks.values():
        df.update(Counter(ws))
    exp = sorted(w for w in df if _lev(w, "cat") <= 2)
    scores = {}
    for e in exp:
        boost = 1.0 if e == "cat" else math.log(
            1.0 + 1.0 / (1.0 + abs(len(e) - 3)))
        freq = min(n_docs, df[e])
        idf = math.log(1.0 + (n_docs - freq + 0.5) / (freq + 0.5))
        for i, ws in toks.items():
            tf = ws.count(e)
            if tf:
                s = ((2.2 * tf) / (1.2 * (0.25 + 0.75 * (len(ws) / avg))
                                   + tf)) * idf * boost
                scores[i] = max(scores.get(i, -1.0), s)
    want = sorted(scores.items(), key=lambda x: (-x[1], x[0]))
    assert [(d, round(s, 9)) for d, s in got] == \
        [(d, round(s, 9)) for d, s in want]


@pytest.mark.usefixtures("ray_session")
def test_autocomplete(tmp_path):
    corpus = [("scan scan scan scale stale",), ("scan scale xyz",),
              ("scale tab table tale",)]
    eng = build_engine(tmp_path, corpus)
    # occurrence-counted df: scan=4, scale=3, stale=1
    assert eng.complete("sc") == [("scan", 4), ("scale", 3)]
    assert eng.complete("s", k=2) == [("scan", 4), ("scale", 3)]
    assert eng.complete("s") == [("scan", 4), ("scale", 3), ("stale", 1)]
    assert eng.complete("zzz") == []
    # ties break term-ascending
    assert eng.complete("ta") == [("tab", 1), ("table", 1), ("tale", 1)]


@pytest.mark.usefixtures("ray_session")
def test_phrase_search_planted(tmp_path, ray_session):
    import ray
    from probly_search_ray.stages.phrase import phrase_bm25
    # doc 0: two occurrences; doc 1: words present but never adjacent;
    # doc 2: one occurrence; doc 3: phrase split across field boundary
    # never counted (single field here: n/a) — and a straddle guard via
    # tiny blocks is covered by the offsets logic test below
    corpus = [("big cat big cat sat",), ("cat x big y cat big x",),
              ("a big cat here",), ("nothing relevant",)]
    eng = build_engine(tmp_path, corpus)
    docs_path = write_corpus(str(tmp_path / "p"), corpus, 1)
    ds = ray.data.read_parquet(docs_path).map_batches(
        lambda b: b.rename_columns(["doc_id", "text"]),
        batch_format="pyarrow")
    out = phrase_bm25(eng, ds, "big cat").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert list(out["doc_id"]) == [0, 2]
    # brute: tf0=2 (overlap-free), tf2=1, df = 3 occurrences
    n, avg = 4, (5 + 7 + 4 + 2) / 4
    idf = math.log(1.0 + (n - 3 + 0.5) / (3 + 0.5))
    s0 = (2.2 * 2) / (1.2 * (0.25 + 0.75 * (5 / avg)) + 2) * idf
    s2 = (2.2 * 1) / (1.2 * (0.25 + 0.75 * (4 / avg)) + 1) * idf
    assert abs(out["score"][0] - round(s0, 6)) < 1e-6
    assert abs(out["score"][1] - round(s2, 6)) < 1e-6
    # empty result path (terms co-occur in no doc)
    res = phrase_bm25(eng, ds, "sat nothing")
    if hasattr(res, "to_pandas"):
        res = res.to_pandas()
    assert len(res) == 0


@pytest.mark.usefixtures("ray_session")
def test_phrase_no_cross_doc_straddle(tmp_path):
    import ray
    from probly_search_ray.stages.phrase import phrase_bm25
    # adjacent docs end/start with the phrase halves: a naive flat scan
    # would count a match across the boundary
    corpus = [("x y big",), ("cat z w",), ("big cat",)]
    eng = build_engine(tmp_path, corpus)
    docs_path = write_corpus(str(tmp_path / "p"), corpus, 1)
    ds = ray.data.read_parquet(docs_path).map_batches(
        lambda b: b.rename_columns(["doc_id", "text"]),
        batch_format="pyarrow")
    out = phrase_bm25(eng, ds, "big cat").to_pandas()
    assert list(out["doc_id"]) == [2]


@pytest.mark.usefixtures("ray_session")
def test_source_quota_skew(tmp_path):
    """One hot source spanning many blocks: the cap must still keep
    exactly the n lowest ids, and the multi-block combiner must not
    over- or under-prune."""
    import ray
    from probly_search_ray.stages.curation import source_quota
    n_docs = 5000
    ids = np.arange(n_docs, dtype=np.int64)
    rng = np.random.default_rng(3)
    perm = rng.permutation(n_docs)  # arrival order ≠ id order
    src = np.where(ids % 10 == 0,
                   np.char.add("cold", (ids % 7).astype(str)),
                   "hot")  # 90% one hot source
    tb = pa.table({"doc_id": pa.array(ids[perm]),
                   "source": pa.array(src[perm])})
    path = os.path.join(str(tmp_path), "docs.parquet")
    pq.write_table(tb, path)
    ds = ray.data.read_parquet(path).repartition(20)
    out = source_quota(ds, n=25).to_pandas()
    want = (pd.DataFrame({"doc_id": ids, "source": src})
            .sort_values(["source", "doc_id"])
            .groupby("source").head(25))
    got = out.sort_values(["source", "doc_id"]).reset_index(drop=True)
    want = want.sort_values(["source", "doc_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["doc_id", "source"]], want[["doc_id", "source"]])


@pytest.mark.usefixtures("ray_session")
def test_fuzzy_longterm_width_cap(tmp_path):
    """A pathological kilobyte-long dictionary term must not inflate
    the padded fuzzy matrix (vocab × term_len memory cliff); over-cap
    terms still match via the tail scan when within distance."""
    long_term = "q" * 400
    near_long = "p" + "q" * 399          # distance 1 from long_term
    corpus = [("cat cart " + long_term,), ("bat cat tale",),
              (near_long + " cat",)]
    eng = build_engine(tmp_path, corpus)
    shard = eng.shards[0]
    mat = shard._dict_matrix()[0]
    assert mat.shape[1] <= shard._FUZZY_WIDTH_CAP
    # over-cap term found through the tail scan (d=1 reaches both)
    got = {d for d, _ in eng.query(near_long, "bm25", fuzzy=1)}
    assert got == {0, 2}
    # normal short-term fuzzy unaffected by the split dictionary
    want = _brute_fuzzy(corpus, "cat", 1)
    res = eng.query("cat", "bm25", fuzzy=1)
    assert [(d, round(s, 9)) for d, s in res] == \
        [(d, round(s, 9)) for d, s in want]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("seed", [3, 17])
def test_fuzzy_differential_mixed_cap_random(tmp_path, seed):
    """Randomized differential over a vocabulary that MIXES in-matrix
    and over-cap (>_FUZZY_WIDTH_CAP bytes) words: queries land on
    mutations of both classes plus no-match strings, so every combination
    of (DP hits, tail hits, neither, both) is exercised against the
    brute force — broad coverage behind the targeted tail-scan test
    above."""
    rng = np.random.default_rng(seed)
    letters = np.array(list("abcd"))

    def word(n):
        return "".join(rng.choice(letters, size=n))

    short = [word(int(rng.integers(3, 9))) for _ in range(25)]
    long_w = [word(int(rng.integers(49, 60))) for _ in range(4)]
    vocab = list(dict.fromkeys(short + long_w))

    def mutate(w, edits):
        s = list(w)
        for _ in range(edits):
            op = rng.integers(0, 3)
            pos = int(rng.integers(0, max(1, len(s))))
            if op == 0 and len(s) > 1:
                del s[pos]
            elif op == 1:
                s.insert(pos, str(rng.choice(letters)))
            else:
                s[pos] = str(rng.choice(letters))
        return "".join(s)

    corpus = [(" ".join(rng.choice(vocab, size=int(rng.integers(3, 10)))),)
              for _ in range(60)]
    eng = build_engine(tmp_path, corpus)
    mat = eng.shards[0]._dict_matrix()[0]
    assert mat.shape[1] <= eng.shards[0]._FUZZY_WIDTH_CAP

    queries = (
        [(mutate(str(rng.choice(short)), int(rng.integers(0, 3))), d)
         for d in (1, 2) for _ in range(4)]
        + [(mutate(str(rng.choice(long_w)), int(rng.integers(0, 3))), d)
           for d in (1, 2) for _ in range(4)]
        + [("zzzzzz", 2), (word(52).replace("a", "z"), 1)])
    for q, d in queries:
        got = eng.query(q, "bm25", fuzzy=d)
        want = _brute_fuzzy(corpus, q, d)
        assert len(got) == len(want), (q, d)
        for (gd, gs), (wd, ws) in zip(got, want):
            assert gd == wd and abs(gs - ws) < TOL, (q, d)


@pytest.mark.usefixtures("ray_session")
def test_phrase_null_text_rows(tmp_path):
    """Null text rows (incl. batch-trailing nulls, which used to break
    np.add.reduceat via repeated offsets) count as empty docs."""
    import ray
    from probly_search_ray.stages.phrase import phrase_bm25
    corpus = [("big cat sat",), ("x y z",)]
    eng = build_engine(tmp_path, corpus)
    tb = pa.table({"doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                   "text": pa.array(["big cat sat", "x y z", None, None])})
    ds = ray.data.from_arrow(tb)
    out = phrase_bm25(eng, ds, "big cat")
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()
    assert list(out["doc_id"]) == [0]


@pytest.mark.usefixtures("ray_session")
def test_source_quota_empty_block(tmp_path):
    """An empty input block must produce the same combiner schema as
    non-empty ones (incl. the _sb bucket column) or the downstream
    groupby fails on mixed schemas."""
    import ray
    from probly_search_ray.stages.curation import source_quota
    tb = pa.table({"doc_id": pa.array([3, 1, 2, 0], pa.int64()),
                   "source": pa.array(["a", "a", "b", "a"])})
    p1 = os.path.join(str(tmp_path), "d1.parquet")
    p2 = os.path.join(str(tmp_path), "empty.parquet")
    pq.write_table(tb, p1)
    pq.write_table(tb.slice(0, 0), p2)
    ds = ray.data.read_parquet([p1, p2])
    out = source_quota(ds, n=2).to_pandas() \
        .sort_values(["source", "doc_id"]).reset_index(drop=True)
    assert list(map(tuple, out[["doc_id", "source"]].to_numpy())) == \
        [(0, "a"), (1, "a"), (2, "b")]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("layout", ["plain", "doc_sharded"])
def test_exclusion_differential(tmp_path, layout):
    """query(exclude=...) drops exactly the docs matching any exclude
    term (expansion mode respected), and top-k with exclusion returns
    the best k SURVIVORS — identical to filter-then-head of the full
    result (shard-side pruning must not let excluded docs displace
    survivors)."""
    rng = np.random.default_rng(31)
    corpus = _mk_corpus(rng, 250)
    eng = build_engine(tmp_path / layout, corpus)
    if layout == "doc_sharded":
        eng = SearchEngine(eng.index_dir, doc_shards=3, use_actors=True)
    texts = {i: t[0].split() for i, t in enumerate(corpus)}
    for q, ex, expand in (("table cat", "scan", False),
                          ("table cat", "scan bath", False),
                          ("ca", "ta", True),       # expansion both sides
                          ("table", "zzz", False),  # absent exclude term
                          ("table", "table", False)):  # excludes all hits
        full = eng.query(q, "bm25", expand=expand)
        got = eng.query(q, "bm25", expand=expand, exclude=ex)
        ex_terms = [t for t in ex.split() if t]

        def _hits(term):
            if expand:
                return {d for d, toks in texts.items()
                        if any(w.startswith(term) for w in toks)}
            return {d for d, toks in texts.items() if term in toks}

        dropped = set().union(*(_hits(t) for t in ex_terms))
        want = [(d, s) for d, s in full if d not in dropped]
        assert got == want, (q, ex, expand)
        # top-k = head of the filtered full ranking
        k = 5
        got_k = eng.query(q, "bm25", expand=expand, exclude=ex, k=k)
        assert got_k == want[:k], (q, ex, expand, "topk")
    # zero_to_one path honors exclusion too
    full = eng.query("table cat", "zero_to_one", expand=False)
    got = eng.query("table cat", "zero_to_one", expand=False,
                    exclude="scan")
    dropped = {d for d, toks in texts.items() if "scan" in toks}
    assert got == [(d, s) for d, s in full if d not in dropped]


@pytest.mark.usefixtures("ray_session")
def test_fuzzy_over_cap_tail_survives_dp_exit(tmp_path):
    """Terms longer than _FUZZY_WIDTH_CAP are matched by the tail scan;
    those hits must survive even when every IN-MATRIX candidate dies
    mid-DP (the early exit used to return [] and drop them)."""
    long_t = "x" * 50                  # > 48-byte cap → tail scan
    decoy = "z" * 48                   # in-matrix, same length class
    corpus = [(f"{long_t} apple",), (f"{decoy} pear",), ("apple pear",)]
    eng = build_engine(tmp_path, corpus)
    q = "x" * 49 + "y"                 # lev 1 from long_t, ~49 from decoy
    got = eng.query(q, "bm25", fuzzy=2)
    want = _brute_fuzzy(corpus, q, 2)
    assert len(got) == len(want) == 1
    assert got[0][0] == want[0][0] == 0
    assert abs(got[0][1] - want[0][1]) < TOL

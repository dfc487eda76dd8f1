"""The serving cache's layout: postings hold a doc ordinal and a tf,
field lengths live once per doc, tf and lengths take the narrowest
unsigned dtype, and scoring through the per-doc length table is
bit-identical to the per-posting BM25 formula."""

import os
import shutil
import warnings

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from probly_search_ray.build import build_index
from probly_search_ray.maintain import (
    compact_groups, merge_indexes, remove_documents, vacuum)
from probly_search_ray.refmodel import (
    BM25, RefIndex, ZeroToOne, whitespace_tokenizer as tok)
from probly_search_ray.search import SearchEngine, ShardData
from probly_search_ray.state.manifest import Manifest
from probly_search_ray.state.segments import named_segments, read_segment
from tests.fixtures import assert_results

VOCAB = np.array(["ka", "kar", "kex", "mu", "mux", "ma", "x", "xy"])


def _write(path, rows, nfields=2):
    cols = {"doc_id": pa.array([r[0] for r in rows], type=pa.uint64())}
    for f in range(nfields):
        cols[f"f{f}"] = pa.array([r[1 + f] for r in rows], type=pa.string())
    pq.write_table(pa.table(cols), path)


def _rows(rng, lo, hi):
    return [(d, " ".join(rng.choice(VOCAB, size=int(rng.integers(1, 8)))),
             " ".join(rng.choice(VOCAB, size=int(rng.integers(0, 4)))))
            for d in range(lo, hi)]


def _segments(idx):
    """The segments the manifest names, read one by one."""
    return [read_segment(os.path.join(idx, p))
            for p in named_segments(Manifest(idx).groups)]


def _segment_postings(idx):
    """The (term, doc id) pairs of the named segments' postings."""
    out = set()
    for seg in _segments(idx):
        off = seg["post_off"]
        for i, term in enumerate(seg["terms"]):
            out.update((term, d)
                       for d in seg["p_doc"][off[i]:off[i + 1]].tolist())
    return out


def _meta_lengths(meta, F):
    """doc id → ``len_f`` of the docmeta columns ``meta``."""
    lens = [meta[f"len_{f}"].tolist() for f in range(F)]
    return {d: [ln[j] for ln in lens]
            for j, d in enumerate(meta["doc_id"].tolist())}


def _docmeta_lengths(idx, F):
    """doc id → the named segments' docmeta ``len_f``."""
    out = {}
    for seg in _segments(idx):
        out.update(_meta_lengths(seg["meta"], F))
    return out


def _check_doc_tables(sd, idx, full=True):
    """The loaded postings are the segments' postings; every posting's
    ``doc_len_f[p_ord]`` equals docmeta's ``len_f``; the per-doc table
    is sorted and unique; dtypes follow the one width rule."""
    F = sd.num_fields
    blob, meta = _segment_postings(idx), _docmeta_lengths(idx, F)
    assert sd.doc_ids.dtype == np.uint64 and sd.p_ord.dtype == np.uint32
    assert (np.diff(sd.doc_ids.astype(np.float64)) > 0).all()
    ent = np.repeat(np.arange(len(sd.terms)), np.diff(sd.post_off))
    docs = sd.doc_ids[sd.p_ord].tolist()
    keys = [(sd.terms[e], d) for e, d in zip(ent.tolist(), docs)]
    if full:
        assert len(keys) == len(blob) and set(keys) == set(blob)
    for f in range(F):
        got = sd.doc_len[f][sd.p_ord].tolist()
        assert got == [meta[d][f] for d in docs], f
        for arr in (sd.doc_len[f], sd.p_tf[f]):
            top = int(arr.max()) if len(arr) else 0
            assert arr.dtype == (np.uint8 if top <= 255 else np.uint16)
    return len(keys)


def _check_all_loads(idx):
    full = ShardData(idx)
    n = _check_doc_tables(full, idx)
    assert n
    _check_doc_tables(ShardData(idx, use_cache=False), idx)
    parts = 0
    for i in range(3):
        v = ShardData(idx, doc_mod=(i, 3))
        assert (v.doc_ids[v.p_ord] % 3 == i).all()
        # a view's per-doc state holds its own docs only
        own = full.doc_ids[full.doc_ids % 3 == i]
        assert np.array_equal(v.doc_ids, own)
        assert len(v._doc_off) == len(own) + 1
        parts += _check_doc_tables(v, idx, full=False)
    assert parts == n


@pytest.mark.usefixtures("ray_session")
def test_doc_tables_match_blobs_and_docmeta(tmp_path):
    """Build, append, remove, vacuum, compact and merge: in each state
    the full load, a fresh merge and the doc-mod views all hold the
    segments' postings and read their docmeta's lengths."""
    rng = np.random.default_rng(3)
    idx = str(tmp_path / "index")
    files = []
    for g, (lo, hi) in enumerate([(0, 40), (40, 70)]):
        files.append(str(tmp_path / f"g{g}.parquet"))
        _write(files[-1], _rows(rng, lo, hi))
        build_index(files, idx, field_cols=["f0", "f1"], files_per_group=1,
                    batch_size=9, resume=True)
        _check_all_loads(idx)                 # build, then append
    remove_documents(idx, [1, 5, 41, 69])
    _check_all_loads(idx)
    vacuum(idx)
    _check_all_loads(idx)
    compact_groups(idx)
    _check_all_loads(idx)
    other = str(tmp_path / "other")
    _write(str(tmp_path / "o.parquet"), _rows(rng, 100, 130))
    build_index([str(tmp_path / "o.parquet")], other,
                field_cols=["f0", "f1"])
    merged = str(tmp_path / "merged")
    merge_indexes([idx, other], merged)
    _check_all_loads(merged)


@pytest.mark.usefixtures("ray_session")
def test_doc_tables_hashed_string_keys(tmp_path):
    """Hashed full-range uint64 ids: the per-doc table is sorted by id,
    so ordinals keep the newest-first = descending-id order."""
    rng = np.random.default_rng(4)
    urls = [f"https://h{d}.example/{d}" for d in range(40)]
    pq.write_table(pa.table({
        "url": pa.array(urls),
        "f0": pa.array([" ".join(rng.choice(VOCAB, size=5)) for _ in urls]),
        "f1": pa.array([" ".join(rng.choice(VOCAB, size=2)) for _ in urls]),
    }), str(tmp_path / "u.parquet"))
    idx = str(tmp_path / "index")
    build_index(str(tmp_path / "u.parquet"), idx, key_col="url",
                field_cols=["f0", "f1"], string_key=True, batch_size=7)
    assert int(_check_doc_tables(ShardData(idx), idx))
    sd = ShardData(idx)
    assert sd.doc_ids.max() > np.uint64(1 << 63) > sd.doc_ids.min()
    # within a term, postings ascend by id and by ordinal alike
    for i in range(len(sd.terms)):
        o = sd.p_ord[sd.post_off[i]:sd.post_off[i + 1]]
        assert (np.diff(o.astype(np.int64)) > 0).all()
    _check_all_loads(idx)


def _bm25_per_posting(tf, fl, idf_boost, fields_boost, avgs, k1, b):
    """The per-posting BM25 formula with the scorer's operation order."""
    s = np.zeros(len(tf[0]))
    for x in range(len(tf)):
        t = tf[x].astype(np.float64)
        pos = t > 0.0
        tn = ((k1 + 1.0) * t[pos]) / (
            k1 * ((1.0 - b) + b * (fl[x][pos] / avgs[x])) + t[pos])
        s[pos] += tn * (idf_boost * fields_boost[x])
    return s


@pytest.mark.usefixtures("ray_session")
def test_wide_tf_takes_uint16_and_scores_bit_identically(tmp_path):
    """A tf above 255 widens that field's tf array to uint16 (and a
    length above 255 its length table); scores equal the per-posting
    formula bit for bit and the reference model at 1e-8."""
    rng = np.random.default_rng(9)
    rows = _rows(rng, 0, 30)
    rows[4] = (4, " ".join(["ka"] * 300 + ["mu"] * 2), "x")
    rows[7] = (7, "ka " * 3, " ".join(["xy"] * 256))
    path = str(tmp_path / "w.parquet")
    _write(path, rows)
    idx = str(tmp_path / "index")
    build_index(path, idx, field_cols=["f0", "f1"])
    for sd in (ShardData(idx), ShardData(idx, use_cache=False)):
        assert sd.p_tf[0].dtype == np.uint16 and sd.p_tf[1].dtype == np.uint16
        assert sd.doc_len[0].dtype == np.uint16
        assert sd.doc_len[1].dtype == np.uint16
        assert int(sd.p_tf[0].max()) == 300
        _check_doc_tables(sd, idx)
    sd = ShardData(idx)
    meta = _docmeta_lengths(idx, 2)
    for term in sd.terms:
        i = sd.terms.index(term)
        g = slice(int(sd.post_off[i]), int(sd.post_off[i + 1]))
        docs = sd.doc_ids[sd.p_ord[g]]
        tf = [np.asarray(t[g]) for t in sd.p_tf]
        fl = [np.asarray([meta[int(d)][f] for d in docs],
                         np.uint32) for f in range(2)]
        for k1, b, fb, avgs in [(1.2, 0.75, [1.0, 1.0], [31.0, 9.5]),
                                (0.7, 0.2, [2.0, 0.5], [4.0, 300.0])]:
            _, got_docs, got = sd.score_bm25_batch(
                [term], [1.7], fb, avgs, k1, b, keep_nonpositive=True)
            assert (got_docs == docs).all()
            want = _bm25_per_posting(tf, fl, 1.7, fb, avgs, k1, b)
            assert got.tobytes() == want.tobytes(), (term, k1, b)
    ref = RefIndex(2)
    for r in rows:
        ref.add_document([r[1], r[2]], tok, r[0])
    eng = SearchEngine(idx)
    for q in ("ka", "xy", "ka xy", "k", "m"):
        assert_results(eng.query(q, "bm25"),
                       ref.query(q, BM25(), tok, [1.0, 1.0]), q)
        assert_results(eng.query(q, "zero_to_one"),
                       ref.query(q, ZeroToOne(), tok, [1.0, 1.0]), q)


@pytest.mark.usefixtures("ray_session")
def test_zero_average_field_scores_without_warnings(tmp_path):
    """A field whose average is 0 (every value empty, or its one token
    removed) or NaN (every doc removed): scores and ranks match the
    reference model and no RuntimeWarning escapes."""
    rng = np.random.default_rng(11)
    rows = [(d, " ".join(rng.choice(VOCAB, size=int(rng.integers(1, 6)))),
             "") for d in range(12)]
    rows[3] = (3, rows[3][1], "ka")   # the field's only token
    path = str(tmp_path / "z.parquet")
    _write(path, rows)
    idx = str(tmp_path / "index")
    build_index(path, idx, field_cols=["f0", "f1"])
    ref = RefIndex(2)
    for r in rows:
        ref.add_document([r[1], r[2]], tok, r[0])
    eng = SearchEngine(idx)

    def check(state):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for q in ("ka", "k", "ka mu", "m x"):
                for k in (None, 3):
                    want = ref.query(q, BM25(), tok, [1.0, 1.0])
                    assert_results(eng.query(q, "bm25", k=k),
                                   want[:k] if k else want, (state, q, k))
                assert_results(eng.query(q, "zero_to_one"),
                               ref.query(q, ZeroToOne(), tok, [1.0, 1.0]),
                               (state, q))

    check("built")
    for batch in ([3], [0, 5], list(range(12))):
        remove_documents(idx, batch)
        for d in batch:
            ref.remove_document(d)
        eng.refresh()
        check(f"removed {batch}")
    avg0 = eng.stats.field_avg(0)
    assert avg0 != avg0 and eng.stats.field_avg(1) == 0.0   # NaN, 0
    empty = str(tmp_path / "empty_field")
    _write(str(tmp_path / "e.parquet"), [(r[0], r[1], "") for r in rows])
    build_index(str(tmp_path / "e.parquet"), empty, field_cols=["f0", "f1"])
    eng, ref = SearchEngine(empty), RefIndex(2)
    for r in rows:
        ref.add_document([r[1], ""], tok, r[0])
    assert eng.stats.field_avg(1) == 0.0
    check("all-empty field")


@pytest.mark.usefixtures("ray_session")
def test_docmeta_covers_every_posting(tmp_path, monkeypatch):
    """A segment's docmeta holds every doc its postings name.  (a) A
    vacuum that crashes after its manifest commit, before it unlinks
    the old segment, leaves the old file unnamed: the engine serves the
    pre-crash results, ``build_csr_cache`` succeeds, and re-running
    ``vacuum`` converges to a clean vacuum's results and docmeta and
    unlinks the old file.  (b) A segment whose docmeta lacks a posted
    doc is a damaged index: a fresh merge raises ``ValueError``."""
    from probly_search_ray.search import build_csr_cache
    from probly_search_ray.state.segments import write_segment
    from probly_search_ray.state.manifest import Tombstones
    rng = np.random.default_rng(5)
    files = []
    for g, (lo, hi) in enumerate([(0, 25), (25, 45)]):
        files.append(str(tmp_path / f"g{g}.parquet"))
        _write(files[-1], _rows(rng, lo, hi))
    idx = str(tmp_path / "index")
    build_index(files, idx, field_cols=["f0", "f1"], files_per_group=1,
                batch_size=9)
    remove_documents(idx, [3, 4, 30])
    clean = str(tmp_path / "clean")
    shutil.copytree(idx, clean)
    vacuum(clean)

    def results(i):
        eng = SearchEngine(i)
        return [eng.query(q, s) for q in ("k", "ka mu", "x", "m")
                for s in ("bm25", "zero_to_one")]

    before = results(idx)
    unlink = os.unlink

    def crash(path, *a, **kw):
        raise RuntimeError(f"crash before unlinking {path}")
    monkeypatch.setattr(os, "unlink", crash)
    with pytest.raises(RuntimeError, match="crash"):
        vacuum(idx)
    monkeypatch.setattr(os, "unlink", unlink)
    assert Manifest(idx).groups["00000"]["gen"] == 1
    seg_dir = os.path.join(idx, "segments")
    assert "group=00000.npz" in os.listdir(seg_dir)   # unnamed now
    assert not {3, 4} & set(_docmeta_lengths(idx, 2))
    assert Tombstones(idx).doc_ids == [3, 4, 30]
    assert results(idx) == before
    shutil.rmtree(os.path.join(idx, "cache"))
    assert build_csr_cache(idx)
    assert results(idx) == before
    vacuum(idx)
    assert not Tombstones(idx).doc_ids
    assert results(idx) == results(clean)
    assert _docmeta_lengths(idx, 2) == _docmeta_lengths(clean, 2)
    assert not {3, 4, 30} & set(_docmeta_lengths(idx, 2))
    assert sorted(os.listdir(seg_dir)) == sorted(
        os.path.basename(p) for p in named_segments(Manifest(idx).groups))

    path = os.path.join(clean, Manifest(clean).groups["00001"]["segment"])
    seg = read_segment(path)
    keep = seg["meta"]["doc_id"] != 40
    write_segment(path, {**seg, "meta": {c: a[keep]
                                         for c, a in seg["meta"].items()}})
    with pytest.raises(ValueError, match="no docmeta row"):
        ShardData(clean, use_cache=False)


def test_encoder_retry_counts_each_doc_once(tmp_path):
    """An encoder batch writes its docmeta to a side file named by the
    batch's doc ids, so a retried batch rewrites its own file; a retry
    that split the batch another way leaves overlapping files, and the
    build's merge still gives each doc once, in docmeta and in
    ``num_docs``."""
    from probly_search_ray.build import _FusedEncoder, _merge_side_files
    from probly_search_ray.state.segments import (
        empty_segment, store_segment)
    rows = _rows(np.random.default_rng(4), 0, 12)
    batch = pa.table({
        "doc_id": pa.array([r[0] for r in rows], type=pa.uint64()),
        "f0": [r[1] for r in rows], "f1": [r[2] for r in rows]})
    side = str(tmp_path / "side")
    os.makedirs(side)
    enc = _FusedEncoder("doc_id", ["f0", "f1"], "whitespace", 4096, side)
    enc(batch)
    once = _merge_side_files(side, 2)
    enc(batch)                                    # the retry
    assert len(os.listdir(side)) == 1
    enc(batch.slice(0, 5))                        # a retry split in two
    enc(batch.slice(5))
    assert len(os.listdir(side)) == 3
    meta = _merge_side_files(side, 2)
    assert meta["doc_id"].tolist() == list(range(12))
    assert set(meta) == set(once)
    for c in once:
        assert np.array_equal(meta[c], once[c]), c
    idx = str(tmp_path / "index")
    rec = store_segment(idx, "group=00000", empty_segment(2, meta))
    assert rec["num_docs"] == 12
    want = {r[0]: [len(r[1].split()), len(r[2].split())] for r in rows}
    assert _meta_lengths(read_segment(os.path.join(idx, rec["segment"]))
                         ["meta"], 2) == want


@pytest.mark.usefixtures("ray_session")
def test_stale_side_files_of_a_crashed_build_are_cleared(tmp_path):
    """A build that crashed after its encoders ran, before the group's
    finalize, leaves the group's docmeta side-file dir; building the
    group again clears it, so a stale file's docs (here an id no input
    holds) reach neither the segment's docmeta nor the stats."""
    from probly_search_ray.state.manifest import Stats
    rng = np.random.default_rng(6)
    files = [str(tmp_path / f"g{g}.parquet") for g in range(2)]
    _write(files[0], _rows(rng, 0, 20))
    _write(files[1], _rows(rng, 20, 30))
    idx = str(tmp_path / "index")
    build_index(files[:1], idx, field_cols=["f0", "f1"], files_per_group=1)
    stale = os.path.join(idx, "segments", "group=00001.side")
    os.makedirs(stale)
    one = np.ones(1, np.uint32)
    np.savez(os.path.join(stale, "900-900-1.npz"),
             doc_id=np.array([900], np.uint64), len_0=one, tot_0=one,
             hv_0=one, len_1=one, tot_1=one, hv_1=one)
    build_index(files, idx, field_cols=["f0", "f1"], files_per_group=1)
    assert sorted(os.listdir(os.path.join(idx, "segments"))) == [
        "group=00000.npz", "group=00001.npz"]
    assert sorted(_docmeta_lengths(idx, 2)) == list(range(30))
    assert Manifest(idx).groups["00001"]["num_docs"] == 10
    assert Stats(idx).data["num_docs"] == 30


@pytest.mark.usefixtures("ray_session")
def test_last_dictionary_term_as_df0_witness(tmp_path):
    """The lexicographically last dictionary term ends up a df-0 vacuum
    witness (its only docs removed, then ``vacuum``): a cold load and a
    cache load give it ``tf_max`` and ``len_min`` 0 in every field, and
    bm25 and ``zero_to_one`` match the reference model."""
    rng = np.random.default_rng(21)
    rows = _rows(rng, 0, 30)
    rows[4] = (4, rows[4][1] + " zzz", rows[4][2])
    rows[17] = (17, rows[17][1], "zzz " + rows[17][2])
    path = str(tmp_path / "w.parquet")
    _write(path, rows)
    idx = str(tmp_path / "index")
    build_index(path, idx, field_cols=["f0", "f1"])
    remove_documents(idx, [4, 17])
    vacuum(idx)
    ref = RefIndex(2)
    for r in rows:
        ref.add_document([r[1], r[2]], tok, r[0])
    ref.remove_document(4)
    ref.remove_document(17)
    ref.vacuum()
    for sd in (ShardData(idx, use_cache=False), ShardData(idx)):
        last = len(sd.terms) - 1
        assert sd.terms[last] == "zzz"
        assert sd.post_off[last] == sd.post_off[last + 1] == len(sd.p_ord)
        assert [int(t[last]) for t in sd.tf_max + sd.len_min] == [0] * 4
    eng = SearchEngine(idx)
    for q in ("zzz", "z", "x zzz", "k", "xy"):
        assert_results(eng.query(q, "bm25"),
                       ref.query(q, BM25(), tok, [1.0, 1.0]), q)
        assert_results(eng.query(q, "zero_to_one"),
                       ref.query(q, ZeroToOne(), tok, [1.0, 1.0]), q)


@pytest.mark.usefixtures("ray_session")
def test_format_v4_index_asks_for_rebuild(tmp_path):
    """An index whose manifest records an older ``format_version`` — 4
    (posting blobs with per-posting lengths), 5 (docmeta as sentinel
    rows in the term files) or 6 (term files plus one
    ``docmeta/group=G.npz`` per group) — laid out as v6 wrote it, is
    not read: ``ShardData``, an appending ``build_index``,
    ``merge_indexes``, ``remove_documents`` (also with a tombstone a
    crashed removal left uncounted), ``vacuum`` and ``compact_groups``
    raise the rebuild error and leave the index's state as it is;
    ``overwrite=True`` rebuilds it."""
    import json

    from probly_search_ray.state.manifest import Tombstones
    rng = np.random.default_rng(8)
    files = [str(tmp_path / f"g{g}.parquet") for g in range(2)]
    _write(files[0], _rows(rng, 0, 20))
    _write(files[1], _rows(rng, 20, 30))
    idx = str(tmp_path / "index")
    build_index(files[:1], idx, field_cols=["f0", "f1"], files_per_group=1)
    # the v6 layout: term files and a docmeta dir, records without a
    # segment
    path = os.path.join(idx, "manifest.json")
    with open(path) as f:
        man = json.load(f)
    os.makedirs(os.path.join(idx, "docmeta"))
    for gid, rec in man["groups"].items():
        meta = read_segment(os.path.join(idx, rec.pop("segment")))["meta"]
        np.savez(os.path.join(idx, "docmeta", f"group={gid}.npz"), **meta)
        rec["term_files"] = [{"path": f"terms/group={gid}/0.parquet",
                              "rows": 1}]
    os.rename(os.path.join(idx, "segments"), os.path.join(idx, "terms"))
    shutil.rmtree(os.path.join(idx, "cache"))
    stats_path = os.path.join(idx, "stats.json")

    def state():
        with open(stats_path) as f, open(path) as g:
            return (f.read(), json.load(g), Tombstones(idx).doc_ids,
                    sorted(os.listdir(idx)))

    for old in (4, 5, 6):
        man["config"]["format_version"] = old
        with open(path, "w") as f:
            json.dump(man, f)
        want = rf"format_version={old}.*rebuild with build_index"
        for use_cache in (True, False):
            with pytest.raises(ValueError, match=want):
                ShardData(idx, use_cache=use_cache)
        with pytest.raises(ValueError, match=want):
            build_index(files, idx, field_cols=["f0", "f1"],
                        files_per_group=1)
        with pytest.raises(ValueError, match=want):
            merge_indexes([idx, idx], str(tmp_path / "merged"))
        before = state()
        for op in (lambda: remove_documents(idx, [1, 2]),
                   lambda: vacuum(idx), lambda: compact_groups(idx)):
            with pytest.raises(ValueError, match=want):
                op()
        assert state() == before
        Tombstones(idx).add_many([3])     # tombstoned, stats not saved
        before = state()
        for op in (lambda: remove_documents(idx, [1, 2]),
                   lambda: vacuum(idx)):
            with pytest.raises(ValueError, match=want):
                op()
        assert state() == before
        Tombstones(idx).clear()
    build_index(files, idx, field_cols=["f0", "f1"], files_per_group=1,
                overwrite=True)
    assert len(ShardData(idx).doc_ids) == 30
    assert sorted(os.listdir(idx)) == [
        "cache", "manifest.json", "segments", "stats.json"]
    assert sorted(os.listdir(os.path.join(idx, "segments"))) == [
        "group=00000.npz", "group=00001.npz"]


_NO_RAY_CACHE_BUILD = """
import sys
sys.modules["ray"] = None          # every ``import ray`` now raises
import numpy as np
from probly_search_ray.search import ShardData, build_csr_cache
from probly_search_ray.state.manifest import Manifest

idx = sys.argv[1]
assert build_csr_cache(idx)
man = Manifest(idx)
sd = ShardData.__new__(ShardData)
sd.num_fields = man.data["config"]["num_fields"]
assert sd._load_from_cache(ShardData._cache_path(idx, man))
raw = ShardData(idx, use_cache=False)
assert sd.terms == raw.terms
pairs = [(getattr(sd, n), getattr(raw, n)) for n in (
    "df", "first_pos", "first_off", "trie_rank", "post_off", "doc_ids",
    "p_ord")]
for n in ("p_tf", "doc_len", "tf_max", "len_min"):
    pairs += list(zip(getattr(sd, n), getattr(raw, n)))
assert set(sd.fr) == set(raw.fr)
pairs += [(a, b) for ch in raw.fr for a, b in zip(sd.fr[ch], raw.fr[ch])]
for got, want in pairs:
    assert got.dtype == want.dtype and np.array_equal(got, want)
print("ok", len(pairs))
"""


@pytest.mark.usefixtures("ray_session")
def test_cache_build_needs_no_ray(tmp_path):
    """``build_csr_cache`` is the engine's own in-process merge: in a
    process where ``import ray`` raises, it rebuilds the removed cache
    of a 2-group index, and every cache array equals a fresh merge's,
    dtype included."""
    import subprocess
    import sys
    rng = np.random.default_rng(9)
    idx = str(tmp_path / "index")
    files = []
    for g, (lo, hi) in enumerate([(0, 40), (40, 70)]):
        files.append(str(tmp_path / f"g{g}.parquet"))
        _write(files[-1], _rows(rng, lo, hi))
    build_index(files, idx, field_cols=["f0", "f1"], files_per_group=1,
                batch_size=9)
    assert len(named_segments(Manifest(idx).groups)) == 2
    copy = str(tmp_path / "copy")
    shutil.copytree(idx, copy, ignore=shutil.ignore_patterns("cache"))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", _NO_RAY_CACHE_BUILD, copy],
                         cwd=root, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("ok")


@pytest.mark.usefixtures("ray_session")
def test_only_docs_restriction_sparse_and_dense(tmp_path):
    """The accumulator restriction of a multi-term query gives the
    unrestricted rows of the allowed docs, both for a rare term (far
    fewer postings than docs: tested by sorted search) and a common
    one (tested through a per-doc mask)."""
    rng = np.random.default_rng(13)
    # ids that differ from ordinals: 5, 8, 11, ...
    rows = [(3 * d + 5, a, b) for d, a, b in _rows(rng, 0, 600)]
    for j in (10, 400):
        rows[j] = (rows[j][0], rows[j][1] + " zz", rows[j][2])
    path = str(tmp_path / "s.parquet")
    _write(path, rows)
    idx = str(tmp_path / "index")
    build_index(path, idx, field_cols=["f0", "f1"])
    sd = ShardData(idx)
    args = ([1.3], [1.0, 0.8], [4.0, 1.5], 1.2, 0.75)
    for term, sparse in (("zz", True), ("ka", False)):
        i = sd.terms.index(term)
        n_post = int(sd.post_off[i + 1] - sd.post_off[i])
        assert (len(sd.doc_ids) > 256 * n_post) == sparse
        _, docs, scores = sd.score_bm25_batch([term], *args,
                                              keep_nonpositive=True)
        for only in (np.array([35], np.uint64),
                     np.array([10, 35, 400, 1205, 10_000], np.uint64),
                     np.arange(5, 1800, 7, dtype=np.uint64)):
            _, d, s = sd.score_bm25_batch([term], *args,
                                          keep_nonpositive=True,
                                          only_docs=only)
            keep = np.isin(docs, only)
            assert np.array_equal(d, docs[keep]), (term, only)
            assert s.tobytes() == scores[keep].tobytes(), (term, only)


def test_attach_docs_ordinals_match_the_search():
    """Postings get the ordinal a ``searchsorted`` into the per-doc table
    gives, whether the ids are one contiguous range or dense with gaps
    (looked up by offset), sparse or hashed 64-bit keys (searched); a
    posting whose doc the table lacks is a ``ValueError``."""
    rng = np.random.default_rng(11)
    lo = 1 << 40
    run = np.arange(lo, lo + 300, dtype=np.uint64)
    dense = np.sort(rng.choice(np.arange(lo, lo + 450, dtype=np.uint64),
                               300, replace=False))
    gaps = np.setdiff1d(np.arange(lo, lo + 450, dtype=np.uint64), dense)
    sparse = np.unique(rng.integers(0, 10**6, 300)).astype(np.uint64)
    hashed = np.unique(rng.integers(0, 1 << 63, 300, dtype=np.uint64)
                       * np.uint64(2) + np.uint64(1))
    cases = [(name, ids, rng.choice(ids, 2000)) for name, ids in
             (("contiguous", run), ("dense", dense), ("sparse", sparse),
              ("hashed", hashed))]
    outside = np.asarray([lo - 1, lo + 1000], np.uint64)
    missing = [
        ("missing outside", run, np.concatenate((rng.choice(run, 2000),
                                                 outside))),
        ("missing in a gap", dense, np.concatenate((rng.choice(dense, 2000),
                                                    gaps[:3]))),
        ("missing ends", np.delete(run, [0, 150, 299]), rng.choice(run, 2000)),
    ]
    for name, ids, p_docs in cases + missing:
        p_docs = p_docs.astype(np.uint64)
        lens = [rng.integers(1, 50, len(ids)).astype(np.uint32)
                for _ in range(2)]
        sd = ShardData.__new__(ShardData)
        if name.startswith("missing"):
            assert not np.isin(p_docs, ids).all(), name
            with pytest.raises(ValueError, match="no docmeta row"):
                sd._attach_docs(p_docs, ids, lens)
            continue
        sd._attach_docs(p_docs, ids, lens)
        assert np.array_equal(sd.doc_ids, ids), name
        assert sd.p_ord.dtype == np.uint32, name
        assert np.array_equal(sd.p_ord, np.searchsorted(ids, p_docs)), name
        for f in range(2):
            assert np.array_equal(sd.doc_len[f], lens[f]), name

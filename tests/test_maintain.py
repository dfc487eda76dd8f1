"""Maintenance-path tests: remove/append stats interplay, batch removal,
and crash-safety of builds, vacuums and compactions (manifest-named
segment files exist at every intermediate state, and a re-run
converges)."""

import os
import re
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from probly_search_ray.build import build_index
from probly_search_ray.maintain import remove_document, remove_documents, vacuum
from probly_search_ray.refmodel import (
    BM25, RefIndex, whitespace_tokenizer as tok)
from probly_search_ray.search import SearchEngine
from probly_search_ray.state.manifest import Manifest, Stats
from probly_search_ray.state.segments import named_segments, read_segment
from tests.fixtures import TOL, assert_results


def _write_file(path, rows):
    pq.write_table(pa.table({
        "doc_id": pa.array([r[0] for r in rows], type=pa.uint64()),
        "f0": pa.array([r[1] for r in rows], type=pa.string()),
    }), path)


@pytest.mark.usefixtures("ray_session")
def test_append_after_remove_stats(tmp_path):
    """ADVICE r1: an append build must not resurrect tombstoned docs in
    stats.json (N / sum / avg) — reference: add a,b; remove a; add c."""
    f1 = str(tmp_path / "part1.parquet")
    f2 = str(tmp_path / "part2.parquet")
    idx = str(tmp_path / "index")
    _write_file(f1, [(0, "a b c"), (1, "c d e")])
    build_index([f1], idx, field_cols=["f0"], files_per_group=1)
    assert remove_document(idx, 0)
    _write_file(f2, [(2, "c f g h i")])
    build_index([f1, f2], idx, field_cols=["f0"], files_per_group=1,
                resume=True)

    ref = RefIndex(1)
    ref.add_document(["a b c"], tok, 0)
    ref.add_document(["c d e"], tok, 1)
    ref.remove_document(0)
    ref.add_document(["c f g h i"], tok, 2)

    st = Stats(idx)
    assert st.num_docs == len(ref.docs) == 2
    assert st.field_sum(0) == ref.fields[0].sum == 8
    assert abs(st.field_avg(0) - ref.fields[0].avg) < TOL

    eng = SearchEngine(idx)
    for q in ["c", "a", "e g"]:
        assert_results(eng.query(q, "bm25"), ref.query(q, BM25(), tok, [1.0]),
                       f"append-after-remove:{q!r}")


@pytest.mark.usefixtures("ray_session")
def test_noop_rebuild_preserves_remove_quirk_stats(tmp_path):
    """After a remove with NO new data, a resumed no-op build must keep
    the reference's post-remove stats (incl. the stale-avg quirk) —
    not recompute them."""
    f1 = str(tmp_path / "part1.parquet")
    idx = str(tmp_path / "index")
    _write_file(f1, [(0, "a b c"), (1, "c d e f")])
    build_index([f1], idx, field_cols=["f0"], files_per_group=1)
    remove_document(idx, 0)
    before = Stats(idx).data
    build_index([f1], idx, field_cols=["f0"], files_per_group=1, resume=True)
    assert Stats(idx).data == before


@pytest.mark.usefixtures("ray_session")
def test_remove_documents_batch(tmp_path):
    """Batch removal == sequential removals (stats + query results)."""
    f1 = str(tmp_path / "p.parquet")
    rows = [(i, " ".join(["w%d" % (i % 5), "x", "common"])) for i in range(30)]
    _write_file(f1, rows)
    idx_a = str(tmp_path / "a")
    idx_b = str(tmp_path / "b")
    build_index([f1], idx_a, field_cols=["f0"])
    build_index([f1], idx_b, field_cols=["f0"])
    victims = [3, 7, 7, 19, 999]  # dup + unknown ids are no-ops
    n = remove_documents(idx_a, victims)
    assert n == 3
    for v in victims:
        remove_document(idx_b, v)
    assert Stats(idx_a).data == Stats(idx_b).data
    ra = SearchEngine(idx_a).query("common", "bm25")
    rb = SearchEngine(idx_b).query("common", "bm25")
    assert_results(ra, rb, "batch-remove")


@pytest.mark.usefixtures("ray_session")
def test_refresh_interleaved_add_query(tmp_path):
    """Engine analogue of the reference's concurrent add+query
    (``tests/integrations_tests.rs:151-168``): one live engine serves a
    consistent snapshot; refresh() picks up appended groups, removals,
    and vacuum swaps — results track the refmodel after every step."""
    from probly_search_ray.maintain import vacuum
    ref = RefIndex(1)
    idx = str(tmp_path / "index")
    files = []
    eng = None
    for step in range(3):
        f = str(tmp_path / f"p{step}.parquet")
        rows = [(step * 10 + i, f"w{step} common x{i}") for i in range(4)]
        _write_file(f, rows)
        files.append(f)
        build_index(files, idx, field_cols=["f0"], files_per_group=1,
                    resume=True)
        for did, txt in rows:
            ref.add_document([txt], tok, did)
        if eng is None:
            eng = SearchEngine(idx)
        else:
            assert eng.refresh() is True  # new group appeared
        assert_results(eng.query("common", "bm25"),
                       ref.query("common", BM25(), tok, [1.0]),
                       f"refresh:add{step}")
    remove_document(idx, 0)
    ref.remove_document(0)
    assert eng.refresh() is False  # tombstone only — no shard reload
    assert_results(eng.query("common", "bm25"),
                   ref.query("common", BM25(), tok, [1.0]), "refresh:rm")
    vacuum(idx)
    ref.vacuum()
    assert eng.refresh() is True  # vacuum swapped group dirs
    assert_results(eng.query("common", "bm25"),
                   ref.query("common", BM25(), tok, [1.0]), "refresh:vac")


def _segment_files(idx):
    """(the files under ``segments/``, the basenames the manifest names)."""
    return (sorted(os.listdir(os.path.join(idx, "segments"))),
            sorted(os.path.basename(p)
                   for p in named_segments(Manifest(idx).groups)))


@pytest.mark.usefixtures("ray_session")
def test_vacuum_swaps_atomically_and_gc(tmp_path):
    """Vacuum writes the group's filtered segment under a new versioned
    name and commits the manifest before unlinking the old file: the
    manifest's segments exist on disk; a stray file from a simulated
    crash is unlinked."""
    f1 = str(tmp_path / "p.parquet")
    _write_file(f1, [(i, "alpha beta gamma w%d" % i) for i in range(20)])
    idx = str(tmp_path / "index")
    build_index([f1], idx, field_cols=["f0"])
    remove_documents(idx, [0, 5])
    # simulate a crashed earlier vacuum: stray unnamed file
    stray = os.path.join(idx, "segments", "group=00000.v9.npz")
    with open(stray, "w") as fh:
        fh.write("junk")
    vacuum(idx)
    files, named = _segment_files(idx)
    assert files == named == ["group=00000.v1.npz"]
    # results still correct vs refmodel
    ref = RefIndex(1)
    for i in range(20):
        ref.add_document(["alpha beta gamma w%d" % i], tok, i)
    ref.remove_document(0)
    ref.remove_document(5)
    ref.vacuum()
    eng = SearchEngine(idx)
    for q in ["alpha", "w1", "beta w7"]:
        assert_results(eng.query(q, "bm25"), ref.query(q, BM25(), tok, [1.0]),
                       f"post-vacuum:{q!r}")


@pytest.mark.usefixtures("ray_session")
def test_vacuum_all_docs_tombstoned(tmp_path):
    """Vacuum where EVERY doc is tombstoned: the filtered segment keeps
    no posting and no docmeta row, only its terms as df-0 witnesses."""
    f1 = str(tmp_path / "p.parquet")
    _write_file(f1, [(i, "alpha beta w%d" % i) for i in range(8)])
    idx = str(tmp_path / "index")
    build_index([f1], idx, field_cols=["f0"])
    remove_documents(idx, list(range(8)))
    vacuum(idx)
    assert Stats(idx).num_docs == 0
    seg = read_segment(os.path.join(
        idx, Manifest(idx).groups["00000"]["segment"]))
    assert not len(seg["p_doc"]) and not len(seg["meta"]["doc_id"])
    assert "alpha" in seg["terms"] and not seg["df"].any()
    eng = SearchEngine(idx)
    assert eng.query("alpha", "bm25") == []


@pytest.mark.usefixtures("ray_session")
def test_rebuild_over_changed_inputs(tmp_path):
    """``build_index(..., resume=False)`` over an index whose input
    changed writes the group under a new name, so neither a fresh engine
    nor a refreshed one serves the old postings from a cache keyed on
    the old name.  A vacuum after the rebuild does not reuse the name
    of the vacuum before it either: the cache of that older state is
    still on disk (the rebuild wrote none), and a fresh engine would
    serve it."""
    f1 = str(tmp_path / "p.parquet")
    idx = str(tmp_path / "index")

    def texts(v):
        return {i: "alpha w%d v%d" % (i % (3 + v), v) for i in range(10)}

    def ref(v, removed):
        r = RefIndex(1)
        for d, text in texts(v).items():
            r.add_document([text], tok, d)
        for d in removed:
            r.remove_document(d)
        return r

    def check(eng, v, removed, ctx):
        for q in ["alpha", "w1", "v%d w2" % v, "v0", "v1"]:
            assert_results(eng.query(q, "bm25"), ref(v, removed).query(
                q, BM25(), tok, [1.0]), (ctx, q))

    def build(v, **kw):
        _write_file(f1, sorted(texts(v).items()))
        build_index([f1], idx, field_cols=["f0"], resume=False, **kw)

    build(0)
    eng = SearchEngine(idx)
    check(eng, 0, [], "first build")
    build(1)
    assert _segment_files(idx) == (["group=00000.b1.npz"],) * 2
    check(SearchEngine(idx), 1, [], "rebuild")
    assert eng.refresh()
    check(eng, 1, [], "refreshed")
    remove_documents(idx, [4])
    vacuum(idx)
    build(2, warm_cache=False)
    remove_documents(idx, [4])
    vacuum(idx)
    assert _segment_files(idx) == (["group=00000.v4.npz"],) * 2
    check(SearchEngine(idx), 2, [4], "vacuum after a rebuild")


@pytest.mark.usefixtures("ray_session")
def test_bulk_search_sharded_pool(tmp_path):
    """Sharded bulk mode (one resident shard pool + thin coordinator
    actors) returns exactly what the load-everything mode returns."""
    import pandas as pd
    import numpy as np
    import ray.data as rd
    from probly_search_ray.pipelines.bulk import bulk_search
    f1 = str(tmp_path / "p.parquet")
    rng = np.random.default_rng(13)
    vocab = np.array(["alpha", "alp", "beta", "bet", "gamma", "g"])
    _write_file(f1, [(i, " ".join(rng.choice(vocab, 8))) for i in range(80)])
    idx = str(tmp_path / "index")
    build_index([f1], idx, field_cols=["f0"])
    qds = rd.from_pandas(pd.DataFrame({
        "query_id": np.arange(4, dtype=np.int64),
        "query": ["alp", "beta g", "gamma", "al"]}))
    a = bulk_search(qds, idx, k=5, concurrency=2).to_pandas() \
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    from probly_search_ray.pipelines.bulk import release_shard_pools
    try:
        b = bulk_search(qds, idx, k=5, concurrency=2, doc_shards=2) \
            .to_pandas().sort_values(["query_id", "rank"]) \
            .reset_index(drop=True)
        # release the 2-shard pool BEFORE spawning the 3-shard one: both
        # reserve ~all of the 4-CPU test session
        release_shard_pools()
        c = bulk_search(qds, idx, k=5, concurrency=2, doc_shards=3) \
            .to_pandas().sort_values(["query_id", "rank"]) \
            .reset_index(drop=True)
    finally:
        release_shard_pools()  # free the pool's CPU reservations
    pd.testing.assert_frame_equal(a, b)
    pd.testing.assert_frame_equal(a, c)


@pytest.mark.usefixtures("ray_session")
def test_compact_groups(tmp_path):
    """LSM-style group compaction: results identical before/after, one
    physical group remains, resume still treats all gids as committed,
    and a later vacuum still works."""
    import numpy as np
    from probly_search_ray.maintain import compact_groups
    rng = np.random.default_rng(23)
    vocab = np.array(["alpha", "alp", "beta", "bet", "gamma", "g"])
    files = []
    idx = str(tmp_path / "index")
    for step in range(4):
        f = str(tmp_path / f"p{step}.parquet")
        rows = [(step * 100 + i, " ".join(rng.choice(vocab, 6)))
                for i in range(25)]
        _write_file(f, rows)
        files.append(f)
    build_index(files, idx, field_cols=["f0"], files_per_group=1)
    eng = SearchEngine(idx)
    before = {q: eng.query(q, "bm25") for q in ["alp", "beta g", "gamma"]}
    st_before = Stats(idx).data

    assert compact_groups(idx) == 4
    man = Manifest(idx)
    assert sorted(man.groups) == ["00000", "00001", "00002", "00003"]
    # one segment holds every group's postings and docs
    assert _segment_files(idx) == (["group=00000.c1.npz"],) * 2
    seg = read_segment(os.path.join(idx, man.groups["00000"]["segment"]))
    assert seg["meta"]["doc_id"].tolist() == [
        step * 100 + i for step in range(4) for i in range(25)]
    assert [r["num_docs"] for _, r in sorted(man.groups.items())] == [
        100, 0, 0, 0]
    eng2 = SearchEngine(idx)
    for q, want in before.items():
        assert_results(eng2.query(q, "bm25"), want, f"compact:{q!r}")
    assert Stats(idx).data == st_before
    # resume: no group rebuilt
    build_index(files, idx, field_cols=["f0"], files_per_group=1,
                resume=True)
    assert len(named_segments(Manifest(idx).groups)) == 1
    # delete + vacuum still work on the compacted layout
    remove_document(idx, 100)
    vacuum(idx)
    eng3 = SearchEngine(idx)
    res = eng3.query("alp", "bm25")
    assert all(d != 100 for d, _ in res)
    # second compaction is a no-op (single group)
    assert compact_groups(idx) == 0


@pytest.mark.usefixtures("ray_session")
def test_count_docs_le_ignores_duplicate_docmeta_rows(tmp_path):
    """A copy of a segment that no record names (the old file of a
    compaction that crashed before unlinking it) is not read: the
    stale-avg rank counts each doc once."""
    from probly_search_ray.maintain import _count_docs_le
    f1 = str(tmp_path / "part1.parquet")
    idx = str(tmp_path / "index")
    _write_file(f1, [(0, "a b"), (1, "c"), (2, "d e f"), (7, "g")])
    build_index([f1], idx, field_cols=["f0"], files_per_group=1)
    seg = os.path.join(idx, "segments")
    shutil.copy(os.path.join(seg, "group=00000.npz"),
                os.path.join(seg, "group=stale.npz"))
    assert _count_docs_le(idx, 2) == 3
    assert _count_docs_le(idx, 7) == 4


@pytest.mark.usefixtures("ray_session")
def test_uncommitted_group_file_is_not_read(tmp_path):
    """The segment of a group that ``build_index`` wrote but did not
    commit (a crash between the two) holds docs no record counts: a
    removal of one of them finds nothing, and ``stats.json`` stays."""
    files = [str(tmp_path / f"p{g}.parquet") for g in range(2)]
    _write_file(files[0], [(i, "w%d x" % (i % 3)) for i in range(14)])
    _write_file(files[1], [(1000, "w1 y")])
    idx, other = str(tmp_path / "index"), str(tmp_path / "other")
    build_index(files[:1], idx, field_cols=["f0"], files_per_group=1)
    build_index(files[1:], other, field_cols=["f0"], files_per_group=1)
    shutil.copy(os.path.join(other, "segments", "group=00000.npz"),
                os.path.join(idx, "segments", "group=00009.npz"))
    before = Stats(idx).data
    assert remove_documents(idx, [1000]) == 0
    assert Stats(idx).data == before and before["num_docs"] == 14
    assert 1000 not in {d for d, _ in SearchEngine(idx).query("w1", "bm25")}


def _same(got, want, ctx):
    """Equal result sets with scores within ``TOL`` (ties may order
    differently between the engine and the reference model)."""
    assert [d for d, _ in sorted(got)] == [d for d, _ in sorted(want)], ctx
    for (_, a), (_, b) in zip(sorted(got), sorted(want)):
        assert abs(a - b) < TOL, ctx


def _after(fn):
    """``fn``, raising once it has returned: a crash right after it."""
    def crashed(*a, **kw):
        fn(*a, **kw)
        raise RuntimeError("crash")
    return crashed


# the calls after which each op's commit points lie
_CRASH_POINTS = {
    "segment_written": "store_segment",
    "manifest_committed": "commit",
    "old_file_unlinked": "unlink",
}


def _crash_converges(tmp_path, monkeypatch, op, point):
    """Run ``op`` ("build", "rebuild", "vacuum" or "compact") on a
    3-group index with removals, crashing right after the call of
    ``point``: the index opens and serves bm25 and zero_to_one results
    equal to the reference model's before or after the op, and
    re-running the op converges to a clean run's stats, records, files
    and results.  "rebuild" is ``resume=False`` over the three groups
    after the first one's input changed; its re-run rebuilds every
    group again, so file names are compared without their ``.bN``."""
    import probly_search_ray.build as build
    import probly_search_ray.maintain as maintain
    from probly_search_ray.maintain import compact_groups
    from probly_search_ray.refmodel import ZeroToOne
    files = [str(tmp_path / f"p{g}.parquet") for g in range(4)]
    rows = {}
    for g, f in enumerate(files):
        rows[g] = [(10 * g + i, " ".join("w%d" % ((g + i + k) % 7)
                                         for k in range(1 + (g * i) % 4)))
                   for i in range(6)]
        _write_file(f, rows[g])
    base = str(tmp_path / "base")
    build_index(files[:3], base, field_cols=["f0"], files_per_group=1)
    removed = [1, 12, 13, 24]
    remove_documents(base, removed)
    run = {"build": lambda i: build_index(files, i, field_cols=["f0"],
                                          files_per_group=1, resume=True),
           "rebuild": lambda i: build_index(files[:3], i, field_cols=["f0"],
                                            files_per_group=1, resume=False),
           "vacuum": vacuum, "compact": compact_groups}[op]
    new0 = [(d, text + " w5 w9") for d, text in rows[0]]
    if op == "rebuild":
        _write_file(files[0], new0)

    def ref(state):
        r = RefIndex(1)
        after = state == "after" and op == "rebuild"
        for d, text in (new0 if after else rows[0]) + rows[1] + rows[2]:
            r.add_document([text], tok, d)
        for d in removed:
            r.remove_document(d)
        if state == "after" and op == "build":
            for d, text in rows[3]:
                r.add_document([text], tok, d)
        return r

    queries = [(q, s, c) for q in ("w", "w1", "w3 w4", "w9")
               for s, c in (("bm25", BM25()), ("zero_to_one", ZeroToOne()))]

    def matches(eng, r):
        try:
            for q, s, c in queries:
                _same(eng.query(q, s), r.query(q, c, tok, [1.0]), (q, s))
        except AssertionError:
            return False
        return True

    def state(idx):
        files_, named = _segment_files(idx)
        assert files_ == named
        eng = SearchEngine(idx)
        return (Stats(idx).data, Tombstones(idx).doc_ids,
                {g: r["num_docs"] for g, r in Manifest(idx).groups.items()},
                [re.sub(r"\.b\d+\.", ".", n) for n in named],
                [eng.query(q, s) for q, s, _ in queries])

    from probly_search_ray.state.manifest import Tombstones
    clean = str(tmp_path / "clean")
    shutil.copytree(base, clean)
    run(clean)
    want = state(clean)
    assert matches(SearchEngine(clean), ref("after"))

    idx = str(tmp_path / "crashed")
    shutil.copytree(base, idx)
    name = _CRASH_POINTS[point]
    builds = op in ("build", "rebuild")
    owner = {"store_segment": build if builds else maintain,
             "unlink": os}.get(name, Manifest)
    attr = {"commit": "commit_group" if builds else
            "commit_groups"}.get(name, name)
    crash = _after(getattr(owner, attr))
    if name == "unlink":
        def crash(path, *a, _crash=crash, _raw=os.unlink, **kw):
            # not the unlinks of ``shutil.rmtree`` (a build's side files)
            return (_raw if "dir_fd" in kw else _crash)(path, *a, **kw)
    monkeypatch.setattr(owner, attr, crash)
    with pytest.raises(RuntimeError, match="crash"):
        run(idx)
    monkeypatch.undo()
    files_, named = _segment_files(idx)
    if point == "manifest_committed" and op == "build":
        assert files_ == named      # the stats write is what is left
        assert not Stats(idx).covers(Manifest(idx).groups)
    elif point != "old_file_unlinked":  # the new or an old file is unnamed
        assert set(files_) > set(named)
    for eng in (SearchEngine(idx), SearchEngine(idx, doc_shards=2)):
        assert matches(eng, ref("before")) or matches(eng, ref("after"))
    run(idx)
    assert state(idx) == want


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("point", list(_CRASH_POINTS))
def test_compaction_crash_converges(tmp_path, monkeypatch, point):
    _crash_converges(tmp_path, monkeypatch, "compact", point)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("point", list(_CRASH_POINTS))
def test_vacuum_crash_converges(tmp_path, monkeypatch, point):
    _crash_converges(tmp_path, monkeypatch, "vacuum", point)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("point", ["segment_written", "manifest_committed"])
def test_build_crash_converges(tmp_path, monkeypatch, point):
    """A build group has no old file to unlink."""
    _crash_converges(tmp_path, monkeypatch, "build", point)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("point", list(_CRASH_POINTS))
def test_rebuild_crash_converges(tmp_path, monkeypatch, point):
    _crash_converges(tmp_path, monkeypatch, "rebuild", point)


def _scan_field_lengths(index_dir, doc_ids):
    """A row-by-row scan of the docmeta of every segment the manifest
    names, a later row winning: the oracle for the memo tests."""
    want = {int(d) for d in doc_ids}
    out = {}
    for rel in named_segments(Manifest(index_dir).groups):
        with np.load(os.path.join(index_dir, rel)) as z:
            lens = [z[c].tolist() for c in z.files if c.startswith("len_")]
            for i, d in enumerate(z["doc_id"].tolist()):
                if d in want:
                    out[d] = [ln[i] for ln in lens]
    return out


def _write_meta(idx, gid, ids, lens):
    """Commit group ``gid`` as a segment of docmeta only, from rows in
    any order, as the writers store it (``docmeta_union``: a repeated
    id keeps its last row)."""
    from probly_search_ray.functions.codec import FORMAT_VERSION
    from probly_search_ray.state.segments import (
        docmeta_union, empty_segment, store_segment)
    cols = {"doc_id": np.asarray(ids, np.uint64),
            "len_0": np.asarray(lens, np.uint32),
            "tot_0": np.asarray(lens, np.uint32),
            "hv_0": np.ones(len(ids), np.uint8)}
    man = Manifest(idx)
    man.data["config"] = {"format_version": FORMAT_VERSION, "num_fields": 1}
    man.commit_group(gid, store_segment(
        idx, f"group={gid}", empty_segment(1, docmeta_union([cols], 1))))


def test_docmeta_lookup_last_row_wins_and_rereads(tmp_path):
    """A duplicated id resolves to its last row — within a file as the
    writer stores it (``docmeta_union``), across files in the memoized
    lookup, as the scan does — and the lookup re-reads a file rewritten
    in place or by rename, and forgets files whose record left the
    manifest."""
    from probly_search_ray.maintain import _DOCMETA_MEMO, _docs_field_lengths
    idx = str(tmp_path / "idx")
    seg = os.path.join(idx, "segments")
    a = os.path.join(seg, "group=a.npz")
    _write_meta(idx, "a", [9, 5, 2, 5], [1, 3, 4, 8])
    ask = [5, 2, 9, 77, 2 ** 63 + 1]
    assert _docs_field_lengths(idx, ask) == {5: [8], 2: [4], 9: [1]} \
        == _scan_field_lengths(idx, ask)
    _write_meta(idx, "b", [5, 2 ** 63 + 1], [6, 2])
    assert _docs_field_lengths(idx, ask) == \
        {5: [6], 2: [4], 9: [1], 2 ** 63 + 1: [2]} \
        == _scan_field_lengths(idx, ask)
    _write_meta(idx, "a", [9, 2], [11, 12])         # rewritten by rename
    assert _docs_field_lengths(idx, ask) == _scan_field_lengths(idx, ask) \
        == {5: [6], 2: [12], 9: [11], 2 ** 63 + 1: [2]}
    with open(a, "wb") as fh:                       # rewritten in place
        np.savez(fh, doc_id=np.array([2, 3, 9], np.uint64),
                 len_0=np.array([22, 23, 21], np.uint32))
    assert _docs_field_lengths(idx, [9, 3]) == {9: [21], 3: [23]}
    man = Manifest(idx)
    del man.groups["b"]
    man.commit_groups({})                           # b leaves the manifest
    assert _docs_field_lengths(idx, ask) == {2: [22], 9: [21]}
    assert set(_DOCMETA_MEMO[idx][2]) == {a}
    assert _docs_field_lengths(idx, []) == {}


@pytest.mark.usefixtures("ray_session")
def test_remove_documents_memo_matches_scan(tmp_path, monkeypatch):
    """A scripted removal sequence — duplicates, unknown and already
    removed ids, a vacuum that rewrites segments, an append — gives the
    same counts, ``stats.json`` and tombstones with the memoized lookup
    as with the docmeta scan."""
    import json

    import probly_search_ray.maintain as maintain
    f1, f2 = str(tmp_path / "p1.parquet"), str(tmp_path / "p2.parquet")
    _write_file(f1, [(i, " ".join(["w%d" % (i % 7)] * (1 + i % 4)))
                     for i in range(40)])
    _write_file(f2, [(100 + i, "x " * (1 + i % 3)) for i in range(10)])
    a = str(tmp_path / "a")
    build_index([f1], a, field_cols=["f0"], files_per_group=1)
    b = str(tmp_path / "b")
    shutil.copytree(a, b)
    script = [[3, 7, 7, 999], [7, 12], "vacuum", [3, 12, 20, 21],
              "append", [100, 105, 22], [0, 1, 2, 999, 105]]

    def run(idx):
        counts = []
        for step in script:
            if step == "vacuum":
                vacuum(idx)
            elif step == "append":
                build_index([f1, f2], idx, field_cols=["f0"],
                            files_per_group=1, resume=True)
            else:
                counts.append(remove_documents(idx, step))
        with open(os.path.join(idx, "stats.json")) as fh:
            stats = json.load(fh)
        with open(os.path.join(idx, "tombstones.json")) as fh:
            return counts, stats, json.load(fh)

    got = run(a)
    monkeypatch.setattr(maintain, "_docs_field_lengths", _scan_field_lengths)
    want = run(b)
    assert got == want
    assert got[0] == [2, 1, 2, 3, 3]


@pytest.mark.usefixtures("ray_session")
def test_remove_crash_between_state_writes(tmp_path, monkeypatch):
    """A crash after ``tombstones.json`` is written and before
    ``stats.json`` (``Stats.save`` raising) leaves stats that have not
    counted the removal.  The retried removal, or a vacuum, applies it:
    stats then equal a clean removal's and bm25 equals the reference.
    An engine opened after the crash, or refreshed across it, counts
    the pending removal in memory and writes nothing.  An index whose
    stats predate ``tomb_applied`` reads as fully applied."""
    import json
    f1 = str(tmp_path / "p.parquet")
    rows = [(i, " ".join(["w%d" % (i % 6)] * (1 + i % 3) + ["common"]))
            for i in range(40)]
    _write_file(f1, rows)
    base = str(tmp_path / "base")
    build_index([f1], base, field_cols=["f0"])
    idx = {n: str(tmp_path / n)
           for n in ("clean", "retry", "vac", "old", "served")}
    for d in idx.values():
        shutil.copytree(base, d)
    victims = [3, 4]
    assert remove_documents(idx["clean"], victims) == 2
    want = Stats(idx["clean"]).data

    def boom(self):
        raise RuntimeError("crash between the state writes")
    refreshed = SearchEngine(idx["served"])
    for n in ("retry", "vac", "served"):
        with monkeypatch.context() as m:
            m.setattr(Stats, "save", boom)
            with pytest.raises(RuntimeError):
                remove_documents(idx[n], victims)
        assert Stats(idx[n]).num_docs == 40    # the removal is uncounted
    served = {"fresh": SearchEngine(idx["served"]), "refreshed": refreshed}
    assert refreshed.refresh() is False
    for eng in served.values():
        assert eng.stats.data == want
    assert Stats(idx["served"]).num_docs == 40
    assert remove_documents(idx["retry"], victims) == 0
    assert Stats(idx["retry"]).data == want
    vacuum(idx["vac"])
    assert Stats(idx["vac"]).data == {**want, "tomb_applied": 0}

    path = os.path.join(idx["old"], "stats.json")
    with open(path) as fh:
        old = json.load(fh)
    del old["tomb_applied"]
    with open(path, "w") as fh:
        json.dump(old, fh)
    assert remove_documents(idx["old"], victims) == 2
    assert Stats(idx["old"]).data == want

    ref = RefIndex(1)
    for d, text in rows:
        ref.add_document([text], tok, d)
    for d in victims:
        ref.remove_document(d)
    clean = SearchEngine(idx["clean"])
    for n in ("retry", "vac", "old", "fresh", "refreshed"):
        eng = served[n] if n in served else SearchEngine(idx[n])
        for q in ("common", "w1", "w common"):
            got = eng.query(q, "bm25")
            assert got == clean.query(q, "bm25"), f"{n}:{q!r}"
            assert_results(got, ref.query(q, BM25(), tok, [1.0]),
                           f"{n}:{q!r}")

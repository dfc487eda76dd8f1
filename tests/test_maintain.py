"""Maintenance-path tests: remove/append stats interplay, batch removal,
and vacuum crash-safety (manifest-pointed files must exist at every
intermediate state)."""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from probly_search_ray.build import build_index
from probly_search_ray.maintain import remove_document, remove_documents, vacuum
from probly_search_ray.refmodel import (
    BM25, RefIndex, whitespace_tokenizer as tok)
from probly_search_ray.search import SearchEngine
from probly_search_ray.state.manifest import Manifest, Stats
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


@pytest.mark.usefixtures("ray_session")
def test_vacuum_swaps_atomically_and_gc(tmp_path):
    """Vacuum writes the compacted group under a new versioned dir and
    commits the manifest before deleting the old one: at every step the
    manifest's term_files point at files that exist on disk; stale dirs
    from a simulated crash are cleaned up."""
    f1 = str(tmp_path / "p.parquet")
    _write_file(f1, [(i, "alpha beta gamma w%d" % i) for i in range(20)])
    idx = str(tmp_path / "index")
    build_index([f1], idx, field_cols=["f0"])
    remove_documents(idx, [0, 5])
    # simulate a crashed earlier vacuum: stray unreferenced dir
    stray = os.path.join(idx, "terms", "group=00000.v9")
    os.makedirs(stray)
    with open(os.path.join(stray, "junk.parquet"), "w") as fh:
        fh.write("junk")
    vacuum(idx)
    man = Manifest(idx)
    for rec in man.term_files():
        assert os.path.exists(os.path.join(idx, rec["path"])), rec["path"]
    # old and stray dirs are gone
    dirs = set(os.listdir(os.path.join(idx, "terms")))
    referenced = {os.path.dirname(r["path"]).split(os.sep)[-1]
                  for r in man.term_files()}
    assert dirs == referenced
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
    """Vacuum where EVERY doc is tombstoned: every compactor batch takes
    the all-rows-dropped path.  Regression: read_parquet on files under
    terms/group=G/ hive-infers a `group` column, and the old empty-batch
    `cast(SEGMENT_SCHEMA)` rejected the extra column (flaky — it fired
    only when batch coalescing isolated a fully-dropped batch)."""
    f1 = str(tmp_path / "p.parquet")
    _write_file(f1, [(i, "alpha beta w%d" % i) for i in range(8)])
    idx = str(tmp_path / "index")
    build_index([f1], idx, field_cols=["f0"])
    remove_documents(idx, list(range(8)))
    vacuum(idx)
    assert Stats(idx).num_docs == 0
    eng = SearchEngine(idx)
    assert eng.query("alpha", "bm25") == []


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
        b = bulk_search(qds, idx, k=5, concurrency=2, num_shards=3) \
            .to_pandas().sort_values(["query_id", "rank"]) \
            .reset_index(drop=True)
        # release the term-sharded pool BEFORE spawning the doc-sharded
        # one: both reserve ~all of the 4-CPU test session
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
    # compacted files carry EXACTLY the segment schema — the
    # hive-inferred `group` partition column must not be written back
    from probly_search_ray.stages.segment import SEGMENT_SCHEMA
    for rec in man.term_files():
        names = pq.ParquetFile(
            os.path.join(idx, rec["path"])).schema_arrow.names
        assert names == SEGMENT_SCHEMA.names, names
    assert sum(1 for r in man.groups.values() if r["term_files"]) == 1
    eng2 = SearchEngine(idx)
    for q, want in before.items():
        assert_results(eng2.query(q, "bm25"), want, f"compact:{q!r}")
    assert Stats(idx).data == st_before
    # resume: no group rebuilt
    build_index(files, idx, field_cols=["f0"], files_per_group=1,
                resume=True)
    assert sum(1 for r in Manifest(idx).groups.values()
               if r["term_files"]) == 1
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
    """A crash between compact_groups' manifest commit and its cleanup
    of the old group files leaves a doc's docmeta row twice; the stale-
    avg rank must count distinct ids, not rows."""
    import shutil

    from probly_search_ray.build import _count_docs_le
    f1 = str(tmp_path / "part1.parquet")
    idx = str(tmp_path / "index")
    _write_file(f1, [(0, "a b"), (1, "c"), (2, "d e f"), (7, "g")])
    build_index([f1], idx, field_cols=["f0"], files_per_group=1)
    meta = sorted(glob.glob(os.path.join(idx, "docmeta", "*.parquet")))
    shutil.copy(meta[0], os.path.join(idx, "docmeta", "group=stale.parquet"))
    assert _count_docs_le(idx, 2) == 3
    assert _count_docs_le(idx, 7) == 4


def _scan_field_lengths(index_dir, doc_ids):
    """The one-scan docmeta lookup ``remove_documents`` used before its
    lookups were memoized: the oracle for the memo tests."""
    import pyarrow.dataset as pads
    files = sorted(glob.glob(os.path.join(index_dir, "docmeta", "*.parquet")))
    if not files or not doc_ids:
        return {}
    t = pads.dataset(files).to_table(filter=pads.field("doc_id").isin(
        pa.array([int(d) for d in doc_ids], type=pa.uint64())))
    nf = sum(1 for c in t.column_names if c.startswith("len_"))
    lens = [t[f"len_{f}"].to_numpy() for f in range(nf)]
    return {int(d): [int(ln[i]) for ln in lens]
            for i, d in enumerate(t["doc_id"].to_numpy())}


def _write_meta(path, ids, lens):
    tmp = path + ".tmp"
    pq.write_table(pa.table({
        "doc_id": pa.array(ids, type=pa.uint64()),
        "len_0": pa.array(lens, type=pa.uint32()),
        "tot_0": pa.array(lens, type=pa.uint32())}), tmp)
    os.replace(tmp, path)


def test_docmeta_lookup_last_row_wins_and_rereads(tmp_path):
    """The memoized docmeta lookup resolves a duplicated id to its last
    row (within a file and across files, as the scan did), re-reads a
    file rewritten in place or by rename, and forgets files that left
    the listing."""
    from probly_search_ray.maintain import _DOCMETA_MEMO, _docs_field_lengths
    idx = str(tmp_path / "idx")
    meta = os.path.join(idx, "docmeta")
    os.makedirs(meta)
    a, b = os.path.join(meta, "group=a.parquet"), \
        os.path.join(meta, "group=b.parquet")
    _write_meta(a, [9, 5, 2, 5], [1, 3, 4, 8])
    ask = [5, 2, 9, 77, 2 ** 63 + 1]
    assert _docs_field_lengths(idx, ask) == {5: [8], 2: [4], 9: [1]} \
        == _scan_field_lengths(idx, ask)
    _write_meta(b, [5, 2 ** 63 + 1], [6, 2])
    assert _docs_field_lengths(idx, ask) == \
        {5: [6], 2: [4], 9: [1], 2 ** 63 + 1: [2]} \
        == _scan_field_lengths(idx, ask)
    _write_meta(a, [9, 2], [11, 12])                # rewritten by rename
    assert _docs_field_lengths(idx, ask) == _scan_field_lengths(idx, ask) \
        == {5: [6], 2: [12], 9: [11], 2 ** 63 + 1: [2]}
    pq.write_table(pa.table({                     # rewritten in place
        "doc_id": pa.array([9, 2, 3], type=pa.uint64()),
        "len_0": pa.array([21, 22, 23], type=pa.uint32())}), a)
    assert _docs_field_lengths(idx, [9, 3]) == {9: [21], 3: [23]}
    os.remove(b)
    assert _docs_field_lengths(idx, ask) == {2: [22], 9: [21]}
    assert set(_DOCMETA_MEMO[meta]) == {a}
    assert _docs_field_lengths(idx, []) == {}


@pytest.mark.usefixtures("ray_session")
def test_remove_documents_memo_matches_scan(tmp_path, monkeypatch):
    """A scripted removal sequence — duplicates, unknown and already
    removed ids, a vacuum that rewrites docmeta, an append — gives the
    same counts, ``stats.json`` and tombstones with the memoized lookup
    as with the docmeta scan."""
    import json
    import shutil

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

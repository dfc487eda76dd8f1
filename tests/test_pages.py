"""Pages pipeline: extraction invariant (EXTRACT-1), flagship build,
resume-from-manifest (per-partition checkpointing)."""

import json
import os

import pytest

import ray.data

from probly_search_ray.build import build_index
from probly_search_ray.pipelines.pages import build_pages_index
from probly_search_ray.refmodel import BM25, RefIndex, whitespace_tokenizer as tok
from probly_search_ray.search import SearchEngine
from probly_search_ray.sources.synth import generate_pages
from probly_search_ray.stages.extract import check_extraction
from tests.fixtures import assert_results


@pytest.fixture(scope="module")
def pages_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("pages")
    generate_pages(str(d), num_docs=400, num_files=4, seed=11,
                   vocab_size=500, mean_len=30)
    return str(d)


@pytest.mark.usefixtures("ray_session")
def test_extraction_byte_identical(pages_dir):
    ds = ray.data.read_parquet(pages_dir, columns=["html", "text"])
    assert check_extraction(ds) == 0


@pytest.mark.usefixtures("ray_session")
def test_flagship_matches_refmodel(tmp_path, pages_dir):
    import pyarrow.parquet as pq
    idx_dir = os.path.join(str(tmp_path), "pidx")
    build_pages_index(pages_dir, idx_dir, overwrite=True,
                      files_per_group=2, batch_size=64)
    eng = SearchEngine(idx_dir, doc_shards=2)

    ref = RefIndex(2)
    rows = []
    for f in sorted(os.listdir(pages_dir)):
        if f.endswith(".parquet"):
            t = pq.read_table(os.path.join(pages_dir, f),
                              columns=["doc_id", "text", "html"])
            for r in t.to_pylist():
                html = r["html"].decode()
                title = html.split("<title>")[1].split("</title>")[0]
                rows.append((r["doc_id"], title, r["text"]))
    for doc_id, title, text in sorted(rows):
        ref.add_document([title, text], tok, doc_id)

    for q in ["ba", "ne to", "quafen", "xxxx", "mu sa ke"]:
        exp = ref.query(q, BM25(), tok, [1.0, 1.0])
        got = eng.query(q, "bm25")
        assert_results(got, exp, f"flagship:{q!r}")
    # boosted fields
    exp = ref.query("ba", BM25(), tok, [2.0, 1.0])
    got = eng.query("ba", "bm25", fields_boost=[2.0, 1.0])
    assert_results(got, exp, "flagship-boost")


@pytest.mark.usefixtures("ray_session")
def test_resume_skips_committed_groups(tmp_path, pages_dir):
    idx_dir = os.path.join(str(tmp_path), "ridx")
    build_pages_index(pages_dir, idx_dir, overwrite=True, files_per_group=1)
    man_path = os.path.join(idx_dir, "manifest.json")
    with open(man_path) as f:
        man1 = json.load(f)
    assert len(man1["groups"]) == 4

    # simulate a crash that lost the last group
    del man1["groups"]["00003"]
    with open(man_path, "w") as f:
        json.dump(man1, f)
    os.unlink(os.path.join(idx_dir, "segments", "group=00003.npz"))

    # record the mtime of a committed group's segment
    g0 = os.path.join(idx_dir, "segments", "group=00000.npz")
    mtime = os.path.getmtime(g0)

    build_pages_index(pages_dir, idx_dir, overwrite=False, files_per_group=1)
    with open(man_path) as f:
        man2 = json.load(f)
    assert set(man2["groups"]) == {"00000", "00001", "00002", "00003"}
    assert os.path.getmtime(g0) == mtime, "group 0 rebuilt!"

    # result equality vs a fresh build
    fresh = os.path.join(str(tmp_path), "fidx")
    build_pages_index(pages_dir, fresh, overwrite=True, files_per_group=1)
    e1, e2 = SearchEngine(idx_dir), SearchEngine(fresh)
    for q in ["ba", "ne", "to ri"]:
        assert e1.query(q, "bm25") == e2.query(q, "bm25")


@pytest.mark.usefixtures("ray_session")
def test_bulk_search(tmp_path, pages_dir):
    import pandas as pd
    import ray.data as rd
    from probly_search_ray.pipelines.bulk import bulk_search
    idx_dir = os.path.join(str(tmp_path), "bidx")
    build_pages_index(pages_dir, idx_dir, overwrite=True)
    eng = SearchEngine(idx_dir)
    queries = ["ba", "ne to", "mu", "quafen", "xxxx"]
    qds = rd.from_pandas(pd.DataFrame({
        "query_id": range(len(queries)), "query": queries}))
    out = bulk_search(qds, idx_dir, k=5, concurrency=2).to_pandas()
    for qid, q in enumerate(queries):
        want = eng.query(q, "bm25", k=5)
        got = out[out["query_id"] == qid].sort_values("rank")
        assert len(got) == len(want)
        for (d, s), (_, row) in zip(want, got.iterrows()):
            assert row["doc_id"] == d and abs(row["score"] - s) < 1e-9


@pytest.mark.usefixtures("ray_session")
def test_incremental_append(tmp_path, pages_dir):
    """Appending new input files to an existing index builds only the
    new groups (batch-level add_document) and equals a fresh build."""
    import glob
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    idx = os.path.join(str(tmp_path), "inc")
    build_pages_index(files[:2], idx, overwrite=True, files_per_group=1)
    man1 = json.load(open(os.path.join(idx, "manifest.json")))
    assert len(man1["groups"]) == 2
    g0 = os.path.join(idx, "segments", "group=00000.npz")
    mtime = os.path.getmtime(g0)

    build_pages_index(files, idx, overwrite=False, files_per_group=1)
    man2 = json.load(open(os.path.join(idx, "manifest.json")))
    assert len(man2["groups"]) == 4
    assert os.path.getmtime(g0) == mtime

    fresh = os.path.join(str(tmp_path), "fresh")
    build_pages_index(files, fresh, overwrite=True, files_per_group=1)
    e1, e2 = SearchEngine(idx), SearchEngine(fresh)
    assert e1.stats.num_docs == e2.stats.num_docs
    for q in ["ba", "ne to", "mu sa"]:
        assert e1.query(q, "bm25") == e2.query(q, "bm25")

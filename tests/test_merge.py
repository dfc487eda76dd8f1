"""Index-merge differentials: an index merged from independently
built shards must answer every query identically to an index built
over the concatenated corpus (with and without the optional distributed
compaction), and the up-front safety checks must hold."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from probly_search_ray.build import build_index
from probly_search_ray.maintain import (
    compact_groups, merge_indexes, remove_document)
from probly_search_ray.search import SearchEngine
from probly_search_ray.state.manifest import Manifest, Stats, Tombstones
from probly_search_ray.state.segments import named_segments

SF_DOCS = "/root/testdata/sf0.001/documents.parquet"


def _split_docs(tmp_path, cut=250):
    t = pq.read_table(SF_DOCS, columns=["doc_id", "text"])
    lo = t.filter(pc.less(t["doc_id"], cut))
    hi = t.filter(pc.greater_equal(t["doc_id"], cut))
    pa_, pb = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(lo, pa_)
    pq.write_table(hi, pb)
    return pa_, pb


def _queries(eng):
    out = {}
    for name, kw in (
            ("multi", dict(q="table merge stream", expand=False)),
            ("prefix", dict(q="sca", expand=True)),
            ("z2o", dict(q="table merge", scorer="zero_to_one",
                         expand=False)),
            ("topk", dict(q="table", k=10))):
        kw = dict(kw)
        q = kw.pop("q")
        scorer = kw.pop("scorer", "bm25")
        out[name] = eng.query(q, scorer, **kw)
    return out


def _assert_same(res_a, res_b):
    for name in res_a:
        ra, rb = res_a[name], res_b[name]
        assert [int(d) for d, _ in ra] == [int(d) for d, _ in rb], name
        np.testing.assert_allclose([s for _, s in ra], [s for _, s in rb],
                                   rtol=1e-12, err_msg=name)


@pytest.mark.usefixtures("ray_session")
def test_merge_matches_full_build(tmp_path):
    pa_, pb = _split_docs(tmp_path)
    full, ia, ib = (str(tmp_path / d) for d in ("full", "ia", "ib"))
    build_index([SF_DOCS], full, key_col="doc_id", field_cols=["text"])
    build_index([pa_], ia, key_col="doc_id", field_cols=["text"])
    build_index([pb], ib, key_col="doc_id", field_cols=["text"])

    merged = str(tmp_path / "merged")
    merge_indexes([ia, ib], merged)
    sf, sm = Stats(full), Stats(merged)
    assert sm.num_docs == sf.num_docs
    assert sm.field_sum(0) == sf.field_sum(0)
    base = _queries(SearchEngine(full))
    _assert_same(base, _queries(SearchEngine(merged)))

    # optional compaction keeps results invariant and collapses the
    # groups into one segment
    merged_c = str(tmp_path / "merged_c")
    merge_indexes([ia, ib], merged_c, compact=True)
    man = Manifest(merged_c)
    assert len(named_segments(man.groups)) == 1
    _assert_same(base, _queries(SearchEngine(merged_c)))


@pytest.mark.usefixtures("ray_session")
def test_merge_carries_tombstones(tmp_path):
    pa_, pb = _split_docs(tmp_path)
    ia, ib = str(tmp_path / "ia"), str(tmp_path / "ib")
    build_index([pa_], ia, key_col="doc_id", field_cols=["text"])
    build_index([pb], ib, key_col="doc_id", field_cols=["text"])
    eng0 = SearchEngine(ia)
    victim = int(eng0.query("table", "bm25", k=1)[0][0])
    assert remove_document(ia, victim)

    merged = str(tmp_path / "merged")
    merge_indexes([ia, ib], merged)
    assert victim in Tombstones(merged).doc_ids
    hits = SearchEngine(merged).query("table", "bm25", expand=False)
    assert victim not in {int(d) for d, _ in hits}
    # stats excluded the tombstoned doc exactly like the source did
    assert Stats(merged).num_docs == \
        Stats(ia).num_docs + Stats(ib).num_docs


@pytest.mark.usefixtures("ray_session")
def test_merge_safety_checks(tmp_path):
    pa_, pb = _split_docs(tmp_path)
    ia, ib = str(tmp_path / "ia"), str(tmp_path / "ib")
    build_index([pa_], ia, key_col="doc_id", field_cols=["text"])
    build_index([pb], ib, key_col="doc_id", field_cols=["text"])

    # duplicate doc ids across sources → refused (exact check fires:
    # same file on both sides means identical, overlapping intervals)
    ia2 = str(tmp_path / "ia2")
    build_index([pa_], ia2, key_col="doc_id", field_cols=["text"])
    with pytest.raises(ValueError, match="duplicate doc_id"):
        merge_indexes([ia, ia2], str(tmp_path / "bad"))

    # config mismatch → refused
    ic = str(tmp_path / "ic")
    build_index([pb], ic, key_col="doc_id", field_cols=["text"],
                block_postings=7)
    with pytest.raises(ValueError, match="config mismatch"):
        merge_indexes([ia, ic], str(tmp_path / "bad2"))

    # destination already an index → refused
    occupied = str(tmp_path / "occupied")
    os.makedirs(occupied)
    with open(os.path.join(occupied, "manifest.json"), "w") as f:
        f.write("{}")
    with pytest.raises(ValueError, match="already holds"):
        merge_indexes([ia, ib], occupied)

    # fewer than two sources → refused
    with pytest.raises(ValueError, match="at least two"):
        merge_indexes([ia], str(tmp_path / "bad3"))

    # destination equal to / nested in a source → refused BEFORE any
    # destructive step (overwrite=True must not rmtree a source)
    with pytest.raises(ValueError, match="overlaps"):
        merge_indexes([ia, ib], ia, overwrite=True)
    with pytest.raises(ValueError, match="overlaps"):
        merge_indexes([ia, ib], os.path.join(ia, "sub"), overwrite=True)
    assert os.path.exists(os.path.join(ia, "manifest.json"))


@pytest.mark.usefixtures("ray_session")
def test_append_already_indexed_file_raises(tmp_path):
    """Lineage guard: an append build that would re-index a file already
    covered by a committed group (positional gids can't see merged
    m##-* groups) fails loudly instead of silently double-indexing."""
    pa_, pb = _split_docs(tmp_path)
    ia, ib = str(tmp_path / "ia"), str(tmp_path / "ib")
    build_index([pa_], ia, key_col="doc_id", field_cols=["text"])
    build_index([pb], ib, key_col="doc_id", field_cols=["text"])
    merged = str(tmp_path / "merged")
    merge_indexes([ia, ib], merged)
    with pytest.raises(ValueError, match="already indexed"):
        build_index([pa_, pb], merged, key_col="doc_id",
                    field_cols=["text"], resume=True)
    # moved group boundaries on a plain (unmerged) index also refuse
    with pytest.raises(ValueError, match="boundaries moved|committed"):
        build_index([pb, pa_], ia, key_col="doc_id",
                    field_cols=["text"], resume=True)


@pytest.mark.usefixtures("ray_session")
def test_merge_then_append_resumes(tmp_path):
    """A merged index keeps the build resume contract: re-running
    build_index over the merged dir with an extra input file appends
    only the new group."""
    pa_, pb = _split_docs(tmp_path)
    ia, ib = str(tmp_path / "ia"), str(tmp_path / "ib")
    build_index([pa_], ia, key_col="doc_id", field_cols=["text"])
    build_index([pb], ib, key_col="doc_id", field_cols=["text"])
    merged = str(tmp_path / "merged")
    merge_indexes([ia, ib], merged)

    extra = str(tmp_path / "extra.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([10_000], type=pa.int64()),
        "text": pa.array(["zzmergeterm table"], type=pa.string()),
    }), extra)
    before = set(Manifest(merged).groups)
    build_index([extra], merged, key_col="doc_id", field_cols=["text"],
                resume=True)
    after = Manifest(merged)
    assert set(after.groups) - before == {"00000"}
    hits = SearchEngine(merged).query("zzmergeterm", "bm25", expand=False)
    assert [int(d) for d, _ in hits] == [10_000]

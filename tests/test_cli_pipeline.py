"""CLI `pipeline` command: the queries() surface is drivable from the
command line with sampled-JSON or partitioned-parquet output."""

import json

import duckdb
import pytest


@pytest.mark.usefixtures("ray_session")
def test_pipeline_command(tmp_path, capsys):
    from probly_search_ray.cli import main

    main(["pipeline", "--name", "list"])
    names = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "tfidf_top3" in names and len(names) >= 70

    main(["pipeline", "--name", "token_stats",
          "--sf-dir", "/root/testdata/sf0.001", "--head", "2"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["rows"] == 500
    assert out["columns"] == ["doc_id", "n_tokens", "n_unique"]
    assert len(out["head"]) == 2

    dest = str(tmp_path / "out")
    main(["pipeline", "--name", "top_terms",
          "--sf-dir", "/root/testdata/sf0.001", "--out", dest])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["files"] >= 1
    rows = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{dest}/*.parquet')").fetchone()
    assert rows[0] == 20

    with pytest.raises(SystemExit):
        main(["pipeline", "--name", "no_such_pipeline"])


@pytest.mark.usefixtures("ray_session")
def test_stats_command_reports_index_bytes(tmp_path, capsys):
    """`cli stats` splits the index's bytes into segments/, cache/ and
    the rest, gives each group's segment bytes, and lists the warm
    cache's arrays; the parts add up to the directory's size."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from probly_search_ray.build import build_index
    from probly_search_ray.cli import main

    path = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(30), type=pa.uint64()),
        "f0": pa.array([f"ka mu{d % 4} x{d % 7}" for d in range(30)]),
    }), path)
    idx = str(tmp_path / "index")
    build_index(path, idx, field_cols=["f0"])
    main(["stats", "--index", idx])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    total = sum(os.path.getsize(os.path.join(r, f))
                for r, _, fs in os.walk(idx) for f in fs)
    assert set(out["bytes"]) == {"segments", "cache", "other"}
    assert out["index_bytes"] == sum(out["bytes"].values()) == total
    assert min(out["bytes"][p] for p in ("segments", "cache")) > 0
    assert out["bytes"]["segments"] == sum(
        g["segment_bytes"] for g in out["groups"].values())
    assert "term_files" not in out and "term_rows" not in out
    arrays = out["cache_array_bytes"]
    assert out["cache_warm"] and sum(arrays.values()) == out["bytes"]["cache"]
    assert {"p_ord", "p_tf_0", "doc_ids", "doc_len_0"} <= set(arrays)
    assert not any(a.startswith(("p_docs", "p_len")) for a in arrays)

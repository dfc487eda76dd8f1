"""Smoke tests of the benchmark itself (tiny corpus, about 3 minutes).

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
LAYER_SPANS = {
    "tokenize", "search.query", "search.complete", "search.refresh",
    "search.engine_start", "shard.expand", "shard.df_adjust",
    "shard.bounds", "shard.score", "shard.gather", "state.load",
    "maintain.remove", "maintain.vacuum", "maintain.compact",
    "build.build", "build.finalize_stats", "search.csr_cache",
}


def _run(workload, trace, seed=7, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--docs", "800"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(p):
    assert p.returncode == 0, p.stderr[-3000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0, p.stderr[-3000:]
    assert res["attempted"] >= 1
    return res


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload):
    res = _result(_run(workload, 0))
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_covers_every_layer():
    res = _result(_run("churn", 1))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    with open(os.path.join(ROOT, ".pb", "traces", "churn-7.jsonl")) as f:
        spans = [json.loads(line) for line in f]
    assert LAYER_SPANS <= {s["name"] for s in spans}
    assert all(s["end"] >= s["start"] for s in spans)


def test_fails_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for d in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, d), tmp_path / d,
                        ignore=shutil.ignore_patterns("__pycache__"))
    p = _run("serve", 0, cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout.strip() == ""

"""A serving process loads what serving uses.  Importing the package,
querying a warm-cache index or one without a cache (the cold load
merges the segments), removing documents (also through an engine
opened after a crash between a removal's two state writes), vacuum and
compaction load none of Ray, pandas and pyarrow; the CLI's in-process
``query``/``complete`` load no Ray.  Each case runs in a fresh
interpreter: this one has all of them loaded already."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from probly_search_ray.build import build_index
from probly_search_ray.search import SearchEngine

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEAVY = ("ray", "pandas", "pyarrow")
VOCAB = np.array(["ka", "kar", "kex", "mu", "mux", "ma", "x", "xy"])

# the last line a case prints: which of HEAVY the process has loaded
_REPORT = f"""
import json, sys
print(json.dumps(sorted(m for m in {HEAVY!r} if m in sys.modules)))
"""


def _run(code: str, *args) -> list[str]:
    """Run ``code`` in a fresh interpreter at the repo root; return the
    heavy modules it loaded."""
    out = subprocess.run([sys.executable, "-c", code + _REPORT, *args],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def warm_index(tmp_path_factory, ray_session):
    """A small two-field index of two groups with its CSR cache built."""
    d = tmp_path_factory.mktemp("footprint")
    rng = np.random.default_rng(3)
    paths = []
    for g, docs in enumerate((range(120), range(120, 200))):
        paths.append(str(d / f"c{g}.parquet"))
        pq.write_table(pa.table({
            "doc_id": pa.array(list(docs), type=pa.uint64()),
            "f0": [" ".join(rng.choice(VOCAB, size=int(rng.integers(1, 8))))
                   for _ in docs],
            "f1": [" ".join(rng.choice(VOCAB, size=int(rng.integers(0, 4))))
                   for _ in docs]}), paths[-1])
    idx = str(d / "index")
    build_index(paths, idx, key_col="doc_id", field_cols=["f0", "f1"],
                files_per_group=1, overwrite=True)
    assert os.path.isdir(os.path.join(idx, "cache"))
    return idx


def test_package_import_loads_nothing_heavy():
    assert _run("import probly_search_ray") == []


def test_warm_cache_queries_load_nothing_heavy(warm_index):
    code = """
import sys
from probly_search_ray.search import SearchEngine
eng = SearchEngine(sys.argv[1])
assert eng.query("ka", "bm25", k=5)
assert eng.query("k mu", "zero_to_one", k=5)
eng.query("ka mu", "bm25", require_all=True)
eng.query("ka", "bm25", exclude="mu")
assert eng.complete("k")
assert eng.refresh() is False
"""
    assert _run(code, warm_index) == []


def test_cold_load_queries_load_nothing_heavy(warm_index, tmp_path):
    """No cache dir: the engine merges the segments (NumPy only) and
    writes the cache."""
    idx = str(tmp_path / "index")
    shutil.copytree(warm_index, idx, ignore=shutil.ignore_patterns("cache"))
    want = SearchEngine(warm_index).query("k mu", "bm25", k=5)
    code = f"""
import sys
from probly_search_ray.search import SearchEngine
eng = SearchEngine(sys.argv[1])
assert eng.query("k mu", "bm25", k=5) == {want!r}
assert eng.query("k mu", "zero_to_one", k=5)
assert eng.complete("k")
"""
    assert _run(code, idx) == []
    assert os.path.isdir(os.path.join(idx, "cache"))


def test_vacuum_and_compaction_load_nothing_heavy(warm_index, tmp_path):
    """``vacuum`` and ``compact_groups`` rewrite segments in-process:
    neither imports Ray (nor pandas or pyarrow)."""
    idx = str(tmp_path / "index")
    shutil.copytree(warm_index, idx)
    code = """
import sys
from probly_search_ray import maintain
from probly_search_ray.search import SearchEngine
assert maintain.remove_documents(sys.argv[1], [3, 4, 150]) == 3
maintain.vacuum(sys.argv[1])
assert maintain.compact_groups(sys.argv[1]) == 2
eng = SearchEngine(sys.argv[1])
assert not {3, 4, 150} & {d for d, _ in eng.query("ka mu x", "bm25")}
"""
    assert _run(code, idx) == []


def test_removal_loads_neither_ray_nor_pandas(warm_index, tmp_path):
    idx = str(tmp_path / "index")
    shutil.copytree(warm_index, idx)
    code = """
import sys
from probly_search_ray import maintain
from probly_search_ray.search import SearchEngine
eng = SearchEngine(sys.argv[1])
assert maintain.remove_documents(sys.argv[1], [3, 4, 5]) == 3
eng.refresh()
assert not {3, 4, 5} & {d for d, _ in eng.query("ka mu x", "bm25")}
"""
    assert _run(code, idx) == []


def test_engine_after_a_removal_crash_loads_no_pyarrow(warm_index,
                                                       tmp_path):
    """Tombstones written, ``stats.json`` not (a crash between the two
    writes of a removal): an engine opened on that index applies the
    uncounted removals to its stats in memory (``replay_pending``,
    which reads the docs' lengths from the segments' docmeta) without
    loading pyarrow, Ray or pandas."""
    from probly_search_ray.state.manifest import Stats, Tombstones
    idx = str(tmp_path / "index")
    shutil.copytree(warm_index, idx)
    n = Stats(idx).data["num_docs"]
    Tombstones(idx).add_many([3, 4])
    code = f"""
import sys
from probly_search_ray.search import SearchEngine
eng = SearchEngine(sys.argv[1])
assert eng.stats.data["num_docs"] == {n - 2}
assert not {{3, 4}} & {{d for d, _ in eng.query("ka mu x", "bm25")}}
"""
    assert _run(code, idx) == []


def test_public_names_resolve_to_their_home_modules():
    code = """
import importlib
import probly_search_ray as p
from probly_search_ray import build_index
home = {"build_index": "build", "SearchEngine": "search",
        "remove_document": "maintain", "vacuum": "maintain",
        "ScoreCalculator": "refmodel", "BM25": "refmodel",
        "ZeroToOne": "refmodel", "RefIndex": "refmodel"}
assert sorted(p.__all__) == sorted(home)
for name, mod in home.items():
    m = importlib.import_module("probly_search_ray." + mod)
    assert getattr(p, name) is getattr(m, name), name
assert build_index is p.build_index
assert set(p.__all__) <= set(dir(p))
try:
    p.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
"""
    _run(code)


def _cli(*argv) -> tuple[object, set[str]]:
    """Run the CLI under ``-X importtime``: its JSON output and the
    names of every module it imported."""
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "probly_search_ray.cli",
         *argv], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    mods = {ln.rsplit("|", 1)[1].strip() for ln in out.stderr.splitlines()
            if ln.startswith("import time:") and "|" in ln}
    return json.loads(out.stdout.splitlines()[-1]), mods


def test_cli_in_process_query_and_complete_never_import_ray(warm_index):
    eng = SearchEngine(warm_index)
    got, mods = _cli("query", "--index", warm_index, "--query", "k mu",
                     "--k", "5")
    assert got == [{"doc_id": d, "score": s}
                   for d, s in eng.query("k mu", "bm25", k=5)]
    assert got and not any(m == "ray" or m.startswith("ray.")
                           for m in mods)
    got, mods = _cli("complete", "--index", warm_index, "--prefix", "k")
    assert got == [{"term": t, "df": int(df)}
                   for t, df in eng.complete("k", k=10)]
    assert got and not any(m == "ray" or m.startswith("ray.")
                           for m in mods)

"""Randomized lifecycle differential fuzz: random interleavings of
append-build / remove / vacuum / compact / refresh (plus periodic
merge_indexes cases) vs the pure-Python reference model — a
confidence sweep for maintain.py + manifest/refresh paths beyond the
fixed-seed lifecycle tests.

Run from the repo root:  FUZZ_SEEDS=200 python tools/fuzz_lifecycle.py
(owns its Ray session, like bench.py).  320 seeds x 5-9 ops x 5
queries/op across two rounds: 0 failures."""
import os
import sys
import time
import traceback

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)
sys.path.insert(0, os.path.join(_REPO, "tools"))

from probly_search_ray.build import build_index  # noqa: E402
from probly_search_ray.maintain import (  # noqa: E402
    compact_groups, merge_indexes, remove_document, vacuum)
from probly_search_ray.refmodel import (  # noqa: E402
    BM25, RefIndex, ZeroToOne, whitespace_tokenizer as tok)
from probly_search_ray.search import SearchEngine  # noqa: E402
# tie-aware comparator: the vectorized engine and the sequential
# refmodel sum floats in different orders, so scores that tie at the
# last ulp on one side can differ by 1 ulp on the other and flip the
# (score desc, id asc) tie-break — exact-rank compare (tests.fixtures)
# trips on that benign artifact (seed 84142: 0.5547779865235005 vs
# ...04); fuzz_diff's comparator is exact BETWEEN tie groups and
# unordered WITHIN a 1e-8 group, same as fuzz_diff/fuzz_ext use
from fuzz_diff import assert_results  # noqa: E402

N_SEEDS = int(os.environ.get("FUZZ_SEEDS", "120"))
START = int(os.environ.get("FUZZ_START", "5000"))

VOCAB = np.array(["ka", "kar", "karr", "ke", "kex", "mu", "mux", "ma",
                  "common", "the", "x", "xy", "é", "éclair"])


def _write_file(path, rows, nfields):
    cols = {"doc_id": pa.array([r[0] for r in rows], type=pa.uint64())}
    for f in range(nfields):
        cols[f"f{f}"] = pa.array([r[1][f] for r in rows], type=pa.string())
    pq.write_table(pa.table(cols), path)


def _rand_rows(rng, base_id, n, nfields):
    rows = []
    for i in range(n):
        fields = tuple(
            " ".join(rng.choice(VOCAB, size=int(rng.integers(0, 8))))
            for _ in range(nfields))
        rows.append((base_id + i, fields))
    return rows


def _check(eng, ref, rng, nfields, ctx):
    boosts = [float(rng.choice([0.5, 1.0, 2.0])) for _ in range(nfields)]
    for q in ["common", "k", "ka mu", str(rng.choice(VOCAB)),
              " ".join(str(t) for t in rng.choice(VOCAB, size=3))]:
        exp = ref.query(q, BM25(), tok, boosts)
        assert_results(eng.query(q, "bm25", fields_boost=boosts), exp,
                       f"bm25 {ctx} q={q!r}")
        kk = int(rng.integers(1, 6))
        gk = eng.query(q, "bm25", k=kk, fields_boost=boosts)
        # full expected + k=: a truncated expected list can cut a tie
        # group mid-way, where the engine may return a different (but
        # equally valid) member of the tie at the boundary
        assert_results(gk, exp, f"bm25k {ctx} q={q!r} k={kk}", k=kk)
        expz = ref.query(q, ZeroToOne(), tok, boosts)
        assert_results(eng.query(q, "zero_to_one", fields_boost=boosts),
                       expz, f"z2o {ctx} q={q!r}")
        assert_results(eng.query(q, "zero_to_one", k=kk,
                                 fields_boost=boosts),
                       expz, f"z2ok {ctx} q={q!r} k={kk}", k=kk)


def run_seed(seed, workdir):
    rng = np.random.default_rng(seed)
    nfields = int(rng.integers(1, 3))
    idx = os.path.join(workdir, "index")
    ref = RefIndex(nfields)
    files = []
    live = []
    step = 0

    def append(n_docs):
        nonlocal step
        f = os.path.join(workdir, f"p{step}.parquet")
        rows = _rand_rows(rng, step * 1000, n_docs, nfields)
        _write_file(f, rows, nfields)
        files.append(f)
        build_index(files, idx, key_col="doc_id",
                    field_cols=[f"f{i}" for i in range(nfields)],
                    files_per_group=1, resume=True,
                    batch_size=int(rng.choice([5, 4096])))
        for did, fields in rows:
            ref.add_document(list(fields), tok, did)
            live.append(did)
        step += 1

    append(int(rng.integers(3, 12)))
    eng = SearchEngine(idx)
    _check(eng, ref, rng, nfields, f"seed={seed} init")

    for op_i in range(int(rng.integers(4, 9))):
        op = rng.choice(["append", "remove", "vacuum", "compact",
                         "fresh_engine"],
                        p=[0.35, 0.30, 0.15, 0.10, 0.10])
        ctx = f"seed={seed} op{op_i}={op}"
        if op == "append":
            append(int(rng.integers(1, 8)))
            eng.refresh()
        elif op == "remove" and live:
            for _ in range(min(len(live), int(rng.integers(1, 3)))):
                victim = int(live.pop(int(rng.integers(0, len(live)))))
                assert remove_document(idx, victim), ctx
                ref.remove_document(victim)
            eng.refresh()
        elif op == "vacuum":
            vacuum(idx)
            ref.vacuum()
            eng.refresh()
        elif op == "compact":
            compact_groups(idx)  # semantics-preserving
            eng.refresh()
        elif op == "fresh_engine":
            # doc_shards=2 applies each removal per shard: every later
            # remove / vacuum / compact runs the per-shard tombstone delta
            eng = SearchEngine(idx, **[{"num_shards": 1}, {"num_shards": 3},
                                       {"doc_shards": 2}][
                int(rng.integers(0, 3))])
        _check(eng, ref, rng, nfields, ctx)

    # merge case every 4th seed: split a corpus across two indexes,
    # merge, compare against a ref holding the union
    if seed % 4 == 0:
        ia, ib, im = (os.path.join(workdir, d) for d in ("ia", "ib", "im"))
        fa, fb = (os.path.join(workdir, f) for f in ("ma.parquet",
                                                     "mb.parquet"))
        ra = _rand_rows(rng, 50000, int(rng.integers(2, 9)), nfields)
        rb = _rand_rows(rng, 60000, int(rng.integers(2, 9)), nfields)
        _write_file(fa, ra, nfields)
        _write_file(fb, rb, nfields)
        fcols = [f"f{i}" for i in range(nfields)]
        build_index(fa, ia, key_col="doc_id", field_cols=fcols,
                    overwrite=True)
        build_index(fb, ib, key_col="doc_id", field_cols=fcols,
                    overwrite=True)
        merge_indexes([ia, ib], im, compact=bool(rng.integers(0, 2)))
        refm = RefIndex(nfields)
        for did, fields in ra + rb:
            refm.add_document(list(fields), tok, did)
        _check(SearchEngine(im), refm, rng, nfields, f"seed={seed} merge")


def main():
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import logging
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import tempfile
    fails = 0
    t0 = time.time()
    done = 0
    for seed in range(START, START + N_SEEDS):
        with tempfile.TemporaryDirectory(dir="/tmp/fuzzwork") as td:
            try:
                run_seed(seed, td)
            except Exception:
                fails += 1
                print(f"FAIL seed={seed}", flush=True)
                traceback.print_exc()
                if fails >= 3:
                    break
        done += 1
        if done % 10 == 0:
            print(f"{done}/{N_SEEDS} seeds, {time.time()-t0:.0f}s, "
                  f"fails={fails}", flush=True)
    print(f"LIFECYCLE_FUZZ_DONE fails={fails} seeds={done} "
          f"elapsed={time.time()-t0:.0f}s", flush=True)
    ray.shutdown()
    sys.exit(1 if fails else 0)


if __name__ == "__main__":
    os.makedirs("/tmp/fuzzwork", exist_ok=True)
    main()

#!/usr/bin/env python3
"""Replay a perfbench query stream in-process, class by class.

    python3 tools/replay_stream.py --workload serve --seed 1
    python3 tools/replay_stream.py --workload churn --seed 1 --passes 3
    python3 tools/replay_stream.py --workload serve --seed 1 --work DIR
    python3 tools/replay_stream.py --workload serve --seed 1 --top 18

It runs ``perfbench/run.py``'s own ``Run`` for the workload and seed up
to its query loop: the same corpus, the lifecycle cycles under Ray
(which build the served index and draw the removal rng as the benchmark
does), then the loop's spec (the warm-up ops and the timed ops, for
``churn`` with its removal batches) in place of the loop process.  Ray
is stopped before the replay, as in perfbench.  It replays that spec on
the default in-process ``SearchEngine``; ``churn`` replays each pass on
a fresh copy of the served index, since its writes remove documents.

It prints, per op class, the op count, p50 and p99 of the process CPU
time (each op's minimum over the passes; not normalized for host speed)
and the class's share of the loop's CPU, then one SHA-256 digest over
every op's result with scores written as ``repr(float)``.  Two trees
serve bit-identical results on the stream exactly when their digests
match: run this file from each checkout with the same ``--work`` DIR,
which keeps the drawn spec and the served index between runs so that
both replay the same index.  Without ``--work`` everything goes to a
temporary directory that is removed at the end.  ``--top N`` adds one
line before the digest: the class mix of the N slowest ops (N = 1% of
the ops is the set that sets the p99).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pickle
import shutil
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, os.path.join(ROOT, "perfbench")]

# perfbench's own run and op runner, used read-only
from run import DOCS, LOOP_OPS_PER_SECOND, Run, stop_ray  # noqa: E402
from stream import run_query  # noqa: E402

CLASSES = ("bigram", "unigram", "prefix", "zero_to_one", "require_all",
           "exclude", "complete", "write")


class _Drawn(Exception):
    """Carries the query loop's spec out of ``Run.run``."""


class _UpToLoop(Run):
    """perfbench's run with the loop spec raised instead of handed to
    the loop process."""

    def child_loop(self, spec: dict) -> dict:
        raise _Drawn(spec)


def draw(work: str, workload: str, seed: int, seconds: int) -> dict:
    """perfbench's loop spec for this workload and seed, plus the
    ``prefixes`` pool, kept in ``work`` and reused from there."""
    path = os.path.join(work, f"{workload}-{seed}-{seconds}")
    spec_path = os.path.join(path, "spec.pkl")
    if os.path.exists(spec_path):
        with open(spec_path, "rb") as f:
            return pickle.load(f)
    shutil.rmtree(path, ignore_errors=True)
    run = _UpToLoop(workload, seed, seconds, False, path, DOCS)
    try:
        run.run()
        raise RuntimeError("perfbench's run ended without a query loop")
    except _Drawn as d:
        spec = d.args[0]
    finally:
        stop_ray()
    if run.failed:
        print(f"lifecycle checks failed: {run.failures}", file=sys.stderr)
    spec["prefixes"] = set(run.mix.pools["prefix"])
    with open(spec_path, "wb") as f:
        pickle.dump(spec, f)
    return spec


def op_class(op, prefixes) -> str:
    kind = op["kind"]
    if kind == "bm25":
        if " " in op["q"]:
            return "bigram"
        return "prefix" if op["q"] in prefixes else "unigram"
    return {"z2o": "zero_to_one", "and": "require_all", "not": "exclude"
            }.get(kind, kind)


def replay(idx: str, warm, ops):
    """One pass: per-op process CPU seconds and results."""
    import probly_search_ray.maintain as maintain
    from probly_search_ray.search import SearchEngine
    engine = SearchEngine(idx)
    for o in warm:
        run_query(engine, o)
    lat = np.zeros(len(ops))
    results = []
    for i, op in enumerate(ops):
        t0 = time.process_time()
        if op["kind"] == "write":
            res = maintain.remove_documents(idx, op["docs"])
            engine.refresh()
        else:
            res = run_query(engine, op)
        lat[i] = time.process_time() - t0
        results.append(res)
    return lat, results


def digest(ops, results) -> str:
    h = hashlib.sha256()
    for i, (op, res) in enumerate(zip(ops, results)):
        if op["kind"] == "write":
            line = f"{i} write {op['docs']} {res}"
        else:
            line = f"{i} {op['kind']} {op['q']!r} " + " ".join(
                f"{d}:{s!r}" for d, s in res)
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(LOOP_OPS_PER_SECOND),
                    default="serve")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=6,
                    help="stream length, as perfbench's --seconds")
    ap.add_argument("--passes", type=int, default=3)
    ap.add_argument("--work", default=None,
                    help="keep the drawn stream and index here and reuse "
                         "them")
    ap.add_argument("--top", type=int, default=0,
                    help="also print the class mix of the N slowest ops")
    args = ap.parse_args(argv)
    work = os.path.abspath(args.work or tempfile.mkdtemp(prefix="replay-"))
    try:
        spec = draw(work, args.workload, args.seed, args.seconds)
        ops = spec["ops"]
        lat = np.full(len(ops), np.inf)
        digests = []
        for _ in range(args.passes):
            served = spec["index"]
            if args.workload == "churn":
                served = os.path.join(work, "replayed")
                shutil.rmtree(served, ignore_errors=True)
                shutil.copytree(spec["index"], served)
            t, results = replay(served, spec["warm_ops"], ops)
            lat = np.minimum(lat, t)
            digests.append(digest(ops, results))
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    cls = np.asarray([op_class(o, spec["prefixes"]) for o in ops])
    total = lat.sum()
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops, "
          f"{args.passes} passes, loop CPU {total:.3f} s (min per op)")
    print(f"{'class':<12} {'ops':>5} {'p50 ms':>8} {'p99 ms':>8} "
          f"{'CPU share':>9}")
    for c in CLASSES:
        m = cls == c
        if not m.any():
            continue
        ms = lat[m] * 1000.0
        print(f"{c:<12} {int(m.sum()):>5} {np.percentile(ms, 50):>8.3f} "
              f"{np.percentile(ms, 99):>8.3f} "
              f"{100.0 * lat[m].sum() / total:>8.1f}%")
    ms = lat * 1000.0
    print(f"{'all':<12} {len(ops):>5} {np.percentile(ms, 50):>8.3f} "
          f"{np.percentile(ms, 99):>8.3f} {100.0:>8.1f}%")
    if args.top > 0:
        top = np.argsort(-lat, kind="stable")[:args.top]
        names, counts = np.unique(cls[top], return_counts=True)
        mix = ", ".join(f"{n} {c}" for c, n in sorted(
            zip(counts, names), key=lambda x: (-x[0], x[1])))
        print(f"slowest {len(top)} ops (from {ms[top].min():.3f} ms): "
              f"{mix}")
    if len(set(digests)) != 1:
        print(f"passes disagree: {digests}")
        return 1
    print(f"digest {digests[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

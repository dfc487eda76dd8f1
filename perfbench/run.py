#!/usr/bin/env python3
"""Benchmark of the probly_search_ray engine: serve and churn.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 6 --trace 0

Every run generates its pages corpus from ``--seed`` with
``sources.synth.generate_pages``, builds, maintains and serves it through
the engine's public entry points, checks the answers against
``oracle.py`` and prints one JSON line as the last line of stdout.
``--trace 1`` runs the same workload with spans around each layer and
prints per-layer metrics instead of end-to-end ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from loop import host_slowdown

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNTIME = os.path.join(ROOT, ".pb")

WORKLOADS = ("serve", "churn")

# Corpus: the seed picks FILES + 1 of 2 * (FILES + 1) files of one fixed
# synthetic corpus, so every seed shares one vocabulary and term
# distribution.  The first FILES picked are the served corpus (DOCS
# pages); the last one is the file group a lifecycle cycle appends.
DOCS = 5000
FILES = 4
CORPUS_SEED = 42
VOCAB = 5000
MEAN_LEN = 60

CYCLES = 4               # lifecycle cycles; each step reports its median
WARMUP_OPS = 200         # warm-up draws, disjoint from the timed stream
CYCLE_WRITES = 20        # removal batches per lifecycle cycle
SAMPLE_OPS = 12          # fixed query sample checked around vacuum/compact
LOOP_OPS_PER_SECOND = {"serve": 300, "churn": 200}
WRITE_EVERY = 25         # churn: every 25th op of the loop is a write
WRITE_BATCH = 3          # docs per removal batch
CHECK_EVERY = 5          # every 5th loop query is compared with the oracle
TRACE_BLOCK = 32         # traced run: alternate traced/untraced blocks
FIRST_OP = {"kind": "bm25", "q": "ba", "k": 10}
PROBE_EVERY = 16         # loop ops between two host-speed probes


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def pct(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values))


def term_files(idx: str) -> list[str]:
    out = []
    for root, _, files in os.walk(os.path.join(idx, "terms")):
        out.extend(os.path.relpath(os.path.join(root, f), idx)
                   for f in files if f.endswith(".parquet"))
    return out


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool,
                 work: str, docs: int):
        from tracing import Tracer
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.docs = docs
        self.tracer = Tracer()
        self.op_kind: dict[int, str] = {}
        self.op_info: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.e2e: dict[str, tuple[float, str]] = {}
        self.layer: dict[str, tuple[float, str]] = {}

    # -- bookkeeping -------------------------------------------------------

    def new_op(self, kind: str) -> int:
        op = len(self.op_kind)
        self.op_kind[op] = kind
        self.tracer.op = op
        return op

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, got, want, k, what) -> None:
        from oracle import same_topk
        if not same_topk(got, want, k):
            self.fail(f"{what}: differs from the oracle")

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def put(self, name, value, unit) -> None:
        self.e2e[name] = (float(value), unit)

    # -- phases ------------------------------------------------------------

    def run(self) -> dict:
        from oracle import Corpus
        from probly_search_ray.sources.synth import generate_pages
        from stream import QueryMix

        per_file = self.docs // FILES
        pool = generate_pages(
            os.path.join(self.work, "pages"),
            num_docs=2 * (FILES + 1) * per_file, num_files=2 * (FILES + 1),
            seed=CORPUS_SEED, vocab_size=VOCAB, mean_len=MEAN_LEN)
        pick = np.random.default_rng([self.seed, 5]).choice(
            len(pool), size=FILES + 1, replace=False)
        files = [pool[i] for i in sorted(pick)]
        self.base, self.extra = files[:-1], files[-1]
        self.corpus = Corpus(files)
        self.base_live = np.zeros(self.corpus.max_doc, dtype=bool)
        self.base_live[np.concatenate(self.corpus.file_docs[:-1])] = True
        self.all_live = self.base_live.copy()
        self.all_live[self.corpus.file_docs[-1]] = True
        self.mix = QueryMix(self.corpus.hot_terms())
        self.warm_ops = self.mix.draw([self.seed, 2], WARMUP_OPS)
        self.rng = np.random.default_rng([self.seed, 3])
        served = os.path.join(self.work, "served")

        start_ray()
        self.warm_ray_worker()
        if self.trace:
            self.tracer.install()
        t0 = time.perf_counter()
        for c in range(CYCLES):
            self.cycle(c, served if c == CYCLES - 1 else None)
        log(f"lifecycle {time.perf_counter() - t0:.1f} s")
        self.tracer.uninstall()
        stop_ray()

        self.query_loop(served)
        for name in ("setup_s", "docs_to_servable_s",
                     "append_to_servable_s", "vacuum_s", "compact_s"):
            log(f"{name} samples "
                f"{[round(x, 3) for x in self.samples[name]]}")
            self.put(name, median(self.samples[name]), "s")
        if self.wl == "serve":
            self.put_writes(self.samples["write"])
        if self.trace:
            self.layer_metrics()
        return self.result()

    def warm_ray_worker(self) -> None:
        """An untimed build of the appended file alone, so the timed
        steps find Ray's worker started and its imports done."""
        import probly_search_ray.pipelines.pages as pages
        t0 = time.perf_counter()
        idx = os.path.join(self.work, "warm")
        pages.build_pages_index([self.extra], idx, overwrite=True)
        shutil.rmtree(idx)
        log(f"ray worker warm-up {time.perf_counter() - t0:.1f} s")

    def step(self, kind: str, fn):
        """One timed lifecycle step.  It spans Ray's processes, so it
        counts the CPU seconds of the whole process tree; its wall time
        is kept for the traced run."""
        from tracing import tree_cpu_s
        op = self.new_op(kind)
        self.attempted += 1
        c0 = tree_cpu_s()
        t0 = time.perf_counter()
        out = fn()
        self.sample(kind + ".wall", time.perf_counter() - t0)
        self.sample(kind, tree_cpu_s() - c0)
        return op, out

    def cycle(self, c: int, served: str | None) -> None:
        """Docs → servable (+ warm-up = one set-up), append, removals,
        vacuum, compaction.  ``served``: keep a copy of the fresh index
        there for the query loop."""
        import probly_search_ray.maintain as maintain
        import probly_search_ray.pipelines.pages as pages
        from oracle import Oracle
        from probly_search_ray.search import SearchEngine
        from stream import run_query
        from tracing import dir_bytes, tree_cpu_s

        idx = os.path.join(self.work, f"cycle{c}")
        t0 = time.perf_counter()

        def fresh():
            c0 = tree_cpu_s()
            pages.build_pages_index(self.base, idx, overwrite=True,
                                    files_per_group=FILES)
            self.sample("build_cpu", tree_cpu_s() - c0)
            eng = SearchEngine(idx)
            run_query(eng, FIRST_OP)
            return eng
        op, eng = self.step("docs_to_servable_s", fresh)
        self.new_op("warmup")
        for o in self.warm_ops:
            run_query(eng, o)
        self.sample("setup_s", time.perf_counter() - t0)
        if self.trace:
            self.op_info[op] = self.build_info(idx)
        if served:
            shutil.copytree(idx, served)
            self.put("index_bytes_per_text_byte", dir_bytes(idx) / float(
                self.corpus.text_bytes[self.base_live].sum()), "ratio")

        def append():
            pages.build_pages_index(self.base + [self.extra], idx,
                                    files_per_group=FILES)
            eng.refresh()
            run_query(eng, FIRST_OP)
        self.step("append_to_servable_s", append)

        live = self.all_live.copy()
        for _ in range(CYCLE_WRITES):
            self.new_op("write")
            slow = host_slowdown()
            self.sample("write", self.write(
                eng, idx, self.pick_live(live, WRITE_BATCH), live) / slow)

        # the fixed sample must give the reference answers before
        # vacuum, after it and after compaction: the live docs are equal
        sample = self.mix.draw([self.seed, 4, c], SAMPLE_OPS)
        oracle = Oracle(self.corpus, live)
        want = [oracle.answer(o) for o in sample]

        def check_sample(engine, when):
            self.new_op("check")
            for o, w in zip(sample, want):
                self.attempted += 1
                self.check(run_query(engine, o), w, o["k"], f"{when} {o}")
        check_sample(eng, "before vacuum")

        def vacuum():
            before = set(term_files(idx))
            maintain.vacuum(idx)
            eng.refresh()
            run_query(eng, FIRST_OP)
            return sum(os.path.getsize(os.path.join(idx, f))
                       for f in term_files(idx) if f not in before)
        op, rewritten = self.step("vacuum_s", vacuum)
        if self.trace:
            self.op_info[op] = {"bytes_rewritten": rewritten}
        check_sample(eng, "after vacuum")

        def compact():
            maintain.compact_groups(idx)
            eng2 = SearchEngine(idx)
            run_query(eng2, FIRST_OP)
            return eng2
        _, eng = self.step("compact_s", compact)
        check_sample(eng, "after compact")
        shutil.rmtree(idx)

    def build_info(self, idx: str) -> dict:
        """Per-build figures the index records itself: the Ray Data job
        and the group finalize times from the manifest, and its size."""
        from tracing import dir_bytes
        with open(os.path.join(idx, "manifest.json")) as f:
            groups = json.load(f)["groups"].values()
        return {"job_s": sum(g["job_sec"] for g in groups),
                "finalize_s": sum(g["finalize_sec"] for g in groups),
                "index_bytes": dir_bytes(idx)}

    def pick_live(self, live, n) -> list[int]:
        cand = np.flatnonzero(live)
        return sorted(int(d) for d in self.rng.choice(cand, size=n,
                                                      replace=False))

    def write(self, engine, idx, docs, live) -> float:
        """One lifecycle write: remove ``docs``, refresh, probe.  Returns
        the CPU seconds until the removal is visible (NaN on error)."""
        from loop import write
        self.attempted += 1
        dt, err = write(engine, idx, docs, self.probe(docs))
        if err:
            self.fail(err)
        if dt == dt:  # removed
            live[docs] = False
        return dt

    def probe(self, docs) -> str:
        """A query on the rarest term of each doc: it must not return
        them once they are removed."""
        return " ".join(self.corpus.rarest_term(d) for d in docs)

    def put_writes(self, writes) -> None:
        w = [x * 1000.0 for x in writes if x == x]
        self.put("write_p50_ms", pct(w, 50), "ms")
        self.put("write_p95_ms", pct(w, 95), "ms")

    def query_loop(self, served: str) -> None:
        """Closed loop, one client, on a fixed op sequence from the seed.
        It runs in a fresh process (``loop.py``) that holds only the
        engine, so its peak RSS is the engine's.  Op times are that
        process's CPU time, divided by the host slowdown probed every
        PROBE_EVERY ops: the engine does no I/O waits, and CPU time
        leaves out the time a shared host deschedules the VM."""
        from tracing import PARENT
        n = LOOP_OPS_PER_SECOND[self.wl] * self.seconds
        ops = self.mix.draw([self.seed, 1], n)
        if self.wl == "churn":
            live = self.base_live.copy()
            for i in range(WRITE_EVERY - 1, n, WRITE_EVERY):
                docs = self.pick_live(live, WRITE_BATCH)
                live[docs] = False
                ops[i] = {"kind": "write", "docs": docs,
                          "probe": self.probe(docs)}
        is_q = np.asarray([o["kind"] != "write" for o in ops])
        base = len(self.op_kind)
        for q in is_q:
            self.new_op("query" if q else "write")
        self.attempted += n
        spec = {"index": served, "warm_ops": self.warm_ops, "ops": ops,
                "trace": self.trace, "op_base": base,
                "probe_every": PROBE_EVERY, "trace_block": TRACE_BLOCK}
        out = self.child_loop(spec)
        for i, err in sorted(out["errors"].items()):
            self.fail(err)

        removed: list[int] = []
        removed_at = np.zeros(n, dtype=np.int64)  # removals before op i
        for i, op in enumerate(ops):
            removed_at[i] = len(removed)
            if op["kind"] == "write":
                removed.extend(op["docs"])
        lat, slow = out["lat"], out["slow"]
        w = np.arange(n) // PROBE_EVERY
        log(f"loop: host slowdown {slow.min():.2f}..{slow.max():.2f}, "
            f"raw query p50 {np.nanpercentile(lat, 50) * 1000:.3f} ms")
        lat = lat / ((slow[w] + slow[w + 1]) / 2.0)
        self.check_loop(ops, out["results"], removed, removed_at)

        ok = lat == lat
        q_ms = lat[is_q & ok] * 1000.0
        self.put("query_p50_ms", pct(q_ms, 50), "ms")
        self.put("query_p99_ms", pct(q_ms, 99), "ms")
        self.put("ops_per_s", int(ok.sum()) / float(lat[ok].sum()), "1/s")
        if self.wl == "churn":
            self.put_writes(lat[~is_q])
        self.put("peak_rss_mb", out["peak_rss_mb"], "MB")
        traced = self.trace & ((np.arange(n) // TRACE_BLOCK) % 2 == 1)
        self.loop_lat, self.loop_traced = lat, traced
        offset = len(self.tracer.spans)
        for s in out["spans"]:
            if s[PARENT] >= 0:
                s[PARENT] += offset
        self.tracer.spans.extend(out["spans"])
        from probly_search_ray.state.manifest import Tombstones
        self.tombstones_end = len(Tombstones(served).doc_ids)
        log(f"loop: {n} ops ({int((~is_q).sum())} writes), "
            f"{float(lat[ok].sum()):.1f} s of normalized op time, "
            f"peak RSS {out['peak_rss_mb']:.1f} MB")

    def child_loop(self, spec: dict) -> dict:
        """Run ``loop.py`` on ``spec`` and wait for it; a failed child
        fails the run."""
        import pickle
        spec_path = os.path.join(self.work, "loop-spec.pkl")
        out_path = os.path.join(self.work, "loop-out.pkl")
        with open(spec_path, "wb") as f:
            pickle.dump(spec, f)
        t0 = time.perf_counter()
        p = subprocess.run([sys.executable, os.path.join(HERE, "loop.py"),
                            spec_path, out_path],
                           stdout=sys.stderr, timeout=150)
        if p.returncode != 0:
            raise RuntimeError(f"query loop process exited {p.returncode}")
        log(f"loop process {time.perf_counter() - t0:.1f} s")
        with open(out_path, "rb") as f:
            return pickle.load(f)

    def check_loop(self, ops, results, removed, removed_at) -> None:
        """No result holds a doc removed before it; every CHECK_EVERY-th
        query matches the oracle on the docs live at that point."""
        from oracle import Oracle
        memo: dict = {}
        oracle, at = None, -1
        for i, (op, got) in enumerate(zip(ops, results)):
            if op["kind"] == "write" or got is None:
                continue
            gone = set(removed[:removed_at[i]])
            if op["kind"] != "complete" and gone & {d for d, _ in got}:
                self.fail(f"op {i} {op}: served a removed doc")
                continue
            if i % CHECK_EVERY:
                continue
            key = (json.dumps(op, sort_keys=True), int(removed_at[i]))
            if key not in memo:
                if at != removed_at[i]:
                    live = self.base_live.copy()
                    live[list(gone)] = False
                    oracle, at = Oracle(self.corpus, live), removed_at[i]
                memo[key] = oracle.answer(op)
            self.check(got, memo[key], op["k"], f"op {i} {op}")

    # -- per-layer metrics (traced run) --------------------------------------

    def layer_metrics(self) -> None:
        from tracing import EXTRA, OP, SpanView
        sp = self.tracer.spans
        sv = SpanView(sp)

        def put(name, value, unit):
            self.layer[name] = (float(value), unit)

        def ops_of(kind):
            return {op for op, k in self.op_kind.items() if k == kind}

        # query ops of the loop's traced blocks
        q_ops = {s[OP] for s in sp if self.op_kind.get(s[OP]) == "query"}
        nq = max(len(q_ops), 1)
        put("tokenize.ms_per_query", 1000.0 * sum(
            sv.dur(i) for i in sv.select("tokenize", q_ops)) / nq, "ms")
        qs = sv.select("search.query", q_ops)
        coord = [1000.0 * sv.self_s[i] for i in qs] or [0.0]
        put("search.coord.self_ms_p50", pct(coord, 50), "ms")
        put("search.coord.self_ms_p99", pct(coord, 99), "ms")
        for layer in ("expand", "df_adjust", "bounds", "score", "gather"):
            idx = sv.select(f"shard.{layer}", q_ops)
            top = sv.outermost(idx)
            put(f"search.{layer}.calls_per_query", len(top) / nq, "count")
            put(f"search.{layer}.ms_per_query",
                1000.0 * float(sum(sv.self_s[i] for i in idx)) / nq, "ms")
            if layer == "expand":
                terms = sum(sp[i][EXTRA] for i in top)
                put("search.expand.terms_per_call",
                    terms / max(len(top), 1), "count")
                q_terms = sum(sp[i][EXTRA] for i in qs) + len(
                    sv.select("search.complete", q_ops))
                put("search.expansion_cache.miss_ratio",
                    len(top) / max(q_terms, 1), "ratio")
            if layer == "score":
                put("search.score.candidates_per_query",
                    sum(sp[i][EXTRA] or 0 for i in idx) / nq, "count")
        comp = [1000.0 * sv.dur(i)
                for i in sv.select("search.complete", q_ops)]
        put("search.complete.ms_p50", pct(comp or [0.0], 50), "ms")
        rem = [1000.0 * sv.dur(i) for i in sv.select("maintain.remove")]
        put("maintain.remove.ms_p50", pct(rem or [0.0], 50), "ms")
        ref = sv.select("search.refresh")
        put("search.refresh.ms_p50",
            pct([1000.0 * sv.dur(i) for i in ref] or [0.0], 50), "ms")
        put("search.refresh.reloads", sum(1 for i in ref if sp[i][EXTRA]),
            "count")
        loads = [i for i in sv.select("state.load")
                 if sv.under(i, "search.refresh")]
        put("state.load.ms_per_refresh",
            1000.0 * sum(sv.dur(i) for i in loads) / max(len(ref), 1), "ms")
        put("state.tombstones.count_end", self.tombstones_end, "count")

        fresh = sorted(ops_of("docs_to_servable_s"))
        info = [self.op_info[o] for o in fresh]

        def med(values):
            return median(values) if values else 0.0
        put("build.pipeline_s", med([i["job_s"] for i in info]), "s")
        put("build.finalize_stats_s", med([
            i["finalize_s"] + sum(sv.dur(j) for j in sv.select(
                "build.finalize_stats", {o})) for o, i in zip(fresh, info)]),
            "s")
        put("build.tree_cpu_s", med(self.samples["build_cpu"]), "s")
        put("build.index_bytes", med([i["index_bytes"] for i in info]),
            "bytes")
        put("search.csr_cache_s", med([sv.dur(i) for i in sv.select(
            "search.csr_cache", set(fresh))]), "s")
        put("search.engine_start_s", med([sv.dur(i) for i in sv.select(
            "search.engine_start", set(fresh))]), "s")
        put("maintain.vacuum.self_s", med([
            sv.self_s[i] for i in sv.select("maintain.vacuum")]), "s")
        put("maintain.vacuum.bytes_rewritten", med([
            self.op_info[o]["bytes_rewritten"]
            for o in ops_of("vacuum_s")]), "bytes")
        put("maintain.compact.self_s", med([
            sv.self_s[i] for i in sv.select("maintain.compact")]), "s")
        put("maintain.compact.groups_merged", med([
            sp[i][EXTRA] for i in sv.select("maintain.compact")]), "count")
        for kind in ("docs_to_servable", "append_to_servable", "vacuum",
                     "compact"):
            put(f"{kind}.wall_s", med(self.samples[f"{kind}_s.wall"]), "s")

        t, lat = self.loop_traced, self.loop_lat
        ok = lat == lat
        on = pct(lat[t & ok], 50) if (t & ok).any() else 0.0
        overhead = 100.0 * (on / pct(lat[~t & ok], 50) - 1.0)
        put("trace.overhead_pct", overhead, "%")
        put("trace.spans", len(sp), "count")
        put("failed_ops_ratio", self.failed / max(self.attempted, 1),
            "ratio")
        log(f"tracing overhead {overhead:+.1f}% (median op time, traced "
            f"vs untraced blocks of the query loop)")

    def result(self) -> dict:
        metrics = self.layer if self.trace else self.e2e
        for f in self.failures:
            log(f"FAILED {f}")
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in metrics.items()}}


_ray_session = None


def start_ray() -> None:
    """A private local Ray instance: one CPU, a small object store, its
    files inside the checkout, and the repo root on the workers' path
    (without it the workers cannot import probly_search_ray)."""
    global _ray_session
    import logging

    import ray
    from ray.data import DataContext
    t0 = time.perf_counter()
    tmp = os.path.join(RUNTIME, "r")
    kwargs = {}
    # Ray's socket paths under <tmp>/session_<stamp>/sockets/ must fit
    # the 107-byte AF_UNIX limit
    if len(tmp) <= 40:
        os.makedirs(tmp, exist_ok=True)
        kwargs["_temp_dir"] = tmp
    else:
        log("checkout path too long for Ray's sockets; Ray keeps its "
            "files in its default temp dir")
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=200 << 20,
             runtime_env={"env_vars": {"PYTHONPATH": ROOT}}, **kwargs)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    if kwargs:
        import ray._private.worker as worker
        _ray_session = worker._global_node.get_session_dir_path()
    log(f"ray start {time.perf_counter() - t0:.1f} s")


def stop_ray() -> None:
    """Stop Ray and its processes, then drop its session files."""
    global _ray_session
    import ray
    if ray.is_initialized():
        ray.shutdown()
    if _ray_session:
        shutil.rmtree(_ray_session, ignore_errors=True)
    _ray_session = None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=6)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--docs", type=int, default=DOCS,
                    help="served corpus size (smaller for smoke tests)")
    args = ap.parse_args(argv)
    sys.path.insert(0, ROOT)
    try:
        import probly_search_ray  # noqa: F401
    except ImportError as e:
        log(f"FAILED: cannot import probly_search_ray from {ROOT}: {e}")
        return 2
    work = os.path.join(RUNTIME, f"w-{args.workload}-{args.seed}-"
                                 f"{os.getpid()}")
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              work, args.docs)
    try:
        result = run.run()
    except Exception as e:  # noqa: BLE001 - name the failure, print no result
        traceback.print_exc()
        log(f"FAILED: {args.workload} seed {args.seed}: {e!r}")
        return 1
    finally:
        stop_ray()
        shutil.rmtree(work, ignore_errors=True)
        if args.trace:
            run.tracer.dump(os.path.join(
                RUNTIME, "traces", f"{args.workload}-{args.seed}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

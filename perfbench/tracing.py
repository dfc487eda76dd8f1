"""Spans recorded around the engine's public entry points.

The benchmark never edits the program: ``Tracer.install`` replaces a
fixed list of functions and methods with timing wrappers, and
``Tracer.uninstall`` puts the originals back.  Each span keeps its name,
start, end, parent span and the benchmark op it ran under; spans stay in
memory and are written out once, at exit.  Ray workers run in other
processes and are not traced; their work shows as the self time of the
span in this process that waited for it.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

NAME, T0, T1, PARENT, OP, EXTRA = range(6)


def _descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                # the field after the parenthesized command is the state,
                # then the parent pid
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # the process ended meanwhile
        children.setdefault(ppid, []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


def tree_cpu_s() -> float:
    """CPU seconds run so far by this process and every live descendant
    (the local Ray processes), from ``/proc/<pid>/schedstat`` at
    nanosecond resolution."""
    total_ns = 0
    for pid in _descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/schedstat") as f:
                total_ns += int(f.read().split()[0])
        except OSError:
            pass  # the process ended meanwhile
    return total_ns / 1e9


def dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


def _postings_scored(args, kwargs, _res):
    """Postings a ``score_bm25_batch`` call read (its work count)."""
    shard, terms = args[0], args[1]
    idx = kwargs.get("term_idx")
    if idx is None and len(args) > 12:
        idx = args[12]
    if idx is None:
        idx = np.fromiter((shard._term_index(t) for t in terms),
                          dtype=np.int64, count=len(terms))
    idx = np.asarray(idx)
    idx = idx[idx >= 0]
    return int((shard.post_off[idx + 1] - shard.post_off[idx]).sum())


def _query_terms(args, kwargs, _res):
    q = args[1]
    excl = kwargs.get("exclude") or ""
    return sum(1 for t in q.split(" ") + excl.split(" ") if t)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self._saved: list[tuple] = []

    def wrap(self, name, fn, extra=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op, None]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[T0] = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                span[T1] = time.perf_counter()
                tracer._stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, kwargs, res)
            return res

        return traced

    def install(self):
        import probly_search_ray.build as build
        import probly_search_ray.maintain as maintain
        import probly_search_ray.pipelines.pages as pages
        import probly_search_ray.search as search
        import probly_search_ray.state.manifest as manifest
        from probly_search_ray.functions.tokenize import WHITESPACE

        sd, se = search.ShardData, search.SearchEngine
        targets = [
            (WHITESPACE, "py_fn", "tokenize", None),
            (se, "query", "search.query", _query_terms),
            (se, "complete", "search.complete",
             lambda a, kw, r: 1),
            (se, "refresh", "search.refresh", lambda a, kw, r: bool(r)),
            (se, "__init__", "search.engine_start", None),
            (sd, "expand", "shard.expand", lambda a, kw, r: len(r)),
            (sd, "expand_with_bounds", "shard.expand",
             lambda a, kw, r: len(r[0])),
            (sd, "expand_fuzzy", "shard.expand", lambda a, kw, r: len(r)),
            (sd, "df_adjusted", "shard.df_adjust", None),
            (sd, "df_adjusted_many", "shard.df_adjust", None),
            (sd, "tomb_hits_many", "shard.df_adjust", None),
            (sd, "bounds_arrays", "shard.bounds", None),
            (sd, "frontier_ub", "shard.bounds", None),
            (sd, "score_bm25_batch", "shard.score", _postings_scored),
            (sd, "score_bm25_topk_pruned", "shard.score", None),
            (sd, "score_bm25_reduced", "shard.score", None),
            (sd, "gather_postings", "shard.gather", None),
            (sd, "gather_postings_many", "shard.gather", None),
            (sd, "union_docs", "shard.gather", None),
            (manifest.Manifest, "__init__", "state.load", None),
            (manifest.Stats, "__init__", "state.load", None),
            (manifest.Tombstones, "__init__", "state.load", None),
            (maintain, "remove_documents", "maintain.remove", None),
            (maintain, "vacuum", "maintain.vacuum", None),
            (maintain, "compact_groups", "maintain.compact",
             lambda a, kw, r: int(r)),
            (pages, "build_pages_index", "build.build", None),
            (build, "finalize_stats", "build.finalize_stats", None),
            (search, "build_csr_cache", "search.csr_cache", None),
        ]
        for owner, attr, name, extra in targets:
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(name, orig, extra))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def dump(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s[NAME],
                                    "start": s[T0], "end": s[T1],
                                    "parent": s[PARENT], "op": s[OP],
                                    "extra": s[EXTRA]}) + "\n")


class SpanView:
    """Self times and counts derived from a span list."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        child = np.zeros(len(spans))
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[T1] - s[T0]
        self.self_s = np.asarray([s[T1] - s[T0] for s in spans]) - child

    def select(self, name, ops=None):
        return [i for i, s in enumerate(self.spans) if s[NAME] == name
                and (ops is None or s[OP] in ops)]

    def outermost(self, idxs):
        """Spans whose parent is not a span of the same name (a
        ``df_adjusted_many`` calling ``df_adjusted`` is one call)."""
        sp = self.spans
        return [i for i in idxs if sp[i][PARENT] < 0
                or sp[sp[i][PARENT]][NAME] != sp[i][NAME]]

    def dur(self, i):
        return self.spans[i][T1] - self.spans[i][T0]

    def under(self, i, ancestor_name):
        sp = self.spans
        p = sp[i][PARENT]
        while p >= 0:
            if sp[p][NAME] == ancestor_name:
                return True
            p = sp[p][PARENT]
        return False

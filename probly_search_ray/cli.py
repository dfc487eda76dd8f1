"""CLI entrypoints — the ``ray job submit`` surface.

On a real cluster:

    ray job submit --working-dir . -- \
        python -m probly_search_ray.cli build \
        --input 's3://bucket/pages/*.parquet' --index /mnt/index \
        --fields title,text

In this sandbox Ray runs local-mode; the CLI guards its own
``ray.init`` so the driver can also import this module with Ray
already initialised.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray():
    import ray
    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")


def cmd_build(args):
    _ensure_ray()
    from probly_search_ray.build import build_index
    man = build_index(
        args.input, args.index,
        key_col=args.key, field_cols=args.fields.split(","),
        files_per_group=args.files_per_group, batch_size=args.batch_size,
        block_postings=args.block_postings, overwrite=args.overwrite,
        resume=not args.no_resume, warm_cache=args.warm_cache)
    groups = man["groups"]
    total = sum(g["num_docs"] for g in groups.values())
    print(json.dumps({"groups": len(groups), "docs": total,
                      "per_group_docs_per_sec": {
                          k: g["docs_per_sec"] for k, g in groups.items()}}))


def cmd_build_pages(args):
    _ensure_ray()
    from probly_search_ray.pipelines.pages import build_pages_index
    man = build_pages_index(
        args.input, args.index, files_per_group=args.files_per_group,
        batch_size=args.batch_size, overwrite=args.overwrite,
        resume=not args.no_resume)
    groups = man["groups"]
    print(json.dumps({
        "groups": len(groups),
        "docs": sum(g["num_docs"] for g in groups.values()),
        "per_group": {k: {"docs": g["num_docs"],
                          "wall_sec": g["wall_sec"],
                          "docs_per_sec": g["docs_per_sec"]}
                      for k, g in groups.items()}}))


def cmd_query(args):
    # only an actor pool needs Ray; the in-process engine never starts it
    use_actors = args.actors or args.doc_shards > 1
    if use_actors:
        _ensure_ray()
    from probly_search_ray.search import SearchEngine
    eng = SearchEngine(args.index, use_actors=use_actors,
                       doc_shards=args.doc_shards)
    res = eng.query(args.query, args.scorer, k=args.k,
                    require_all=args.require_all, exclude=args.exclude)
    print(json.dumps([{"doc_id": d, "score": s} for d, s in res]))


def cmd_remove(args):
    from probly_search_ray.maintain import remove_document
    ok = remove_document(args.index, args.doc_id)
    print(json.dumps({"removed": ok}))


def cmd_vacuum(args):
    from probly_search_ray.maintain import vacuum
    vacuum(args.index)
    print(json.dumps({"vacuumed": True}))


def cmd_compact(args):
    from probly_search_ray.maintain import compact_groups
    n = compact_groups(args.index)
    print(json.dumps({"groups_merged": n}))


def cmd_complete(args):
    from probly_search_ray.search import SearchEngine
    eng = SearchEngine(args.index)
    print(json.dumps([{"term": t, "df": int(df)}
                      for t, df in eng.complete(args.prefix, k=args.k)]))


def cmd_stats(args):
    """Index observability without starting an engine: manifest lineage
    (per-group inputs/docs/timings/segment bytes), corpus stats,
    tombstone count, cache presence — all metadata reads."""
    import os

    from probly_search_ray.search import ShardData
    from probly_search_ray.state.manifest import Manifest, Stats, Tombstones
    man = Manifest(args.index)
    if not man.data["config"]:
        raise FileNotFoundError(f"no index at {args.index}")
    st = Stats(args.index)
    cache = ShardData._cache_path(args.index, man)
    # where the bytes are: file sizes only, no file is opened
    sizes = {}
    for root, _, files in os.walk(args.index):
        for f in files:
            sizes[os.path.join(root, f)] = os.path.getsize(
                os.path.join(root, f))
    parts = {d: sum(n for p, n in sizes.items() if p.startswith(
        os.path.join(args.index, d) + os.sep))
        for d in ("segments", "cache")}
    parts["other"] = sum(sizes.values()) - sum(parts.values())
    warm = {os.path.basename(p).rsplit(".", 1)[0]: n
            for p, n in sorted(sizes.items())
            if os.path.dirname(p) == cache}
    print(json.dumps({
        "num_docs": st.num_docs,
        "fields": st.data["fields"],
        "tombstones": len(Tombstones(args.index).doc_ids),
        "groups": {g: {"docs": r["num_docs"],
                       "segment_bytes": os.path.getsize(os.path.join(
                           args.index, r["segment"]))
                       if r.get("segment") else 0,
                       "input_files": len(r.get("input_files", [])),
                       "wall_sec": r.get("wall_sec"),
                       "docs_per_sec": r.get("docs_per_sec")}
                   for g, r in sorted(man.groups.items())},
        "cache_warm": os.path.isdir(cache),
        "index_bytes": sum(sizes.values()),
        "bytes": parts,
        "cache_array_bytes": warm,
        "format_version": man.data["config"].get("format_version"),
    }))


def cmd_pipeline(args):
    """Run any registered data-processing pipeline (the `queries()`
    surface — dedup, similarity, text analysis, windows, curation…)
    over a parquet table directory.  Streams the result to partitioned
    parquet with --out (resumable consumption: one file per block, a
    re-run with a different --out never clobbers), else prints a
    row-count + head sample."""
    _ensure_ray()
    from probly_search_ray.pipelines.queries import QUERIES
    if args.name == "list" or args.name not in QUERIES:
        names = sorted(QUERIES)
        if args.name != "list":
            print(json.dumps({"error": f"unknown pipeline {args.name!r}",
                              "available": names}))
            raise SystemExit(2)
        print(json.dumps(names))
        return
    import ray.data as rd
    res = QUERIES[args.name](args.sf_dir)
    if args.out:
        if not isinstance(res, rd.Dataset):
            import pyarrow as pa_
            res = rd.from_arrow(pa_.Table.from_pandas(res))
        import glob as _glob
        stale = _glob.glob(f"{args.out}/*.parquet")
        if stale:
            # a prior run's files would silently mix with (and possibly
            # schema-conflict) this run's output under a glob read
            print(json.dumps({
                "error": f"--out {args.out!r} already holds "
                         f"{len(stale)} parquet file(s)",
                "hint": "pick a fresh directory or delete the old files"}))
            raise SystemExit(2)
        res.write_parquet(args.out)
        files = _glob.glob(f"{args.out}/*.parquet")
        print(json.dumps({"pipeline": args.name, "out": args.out,
                          "files": len(files)}))
    else:
        if isinstance(res, rd.Dataset):
            # never pull the full Dataset to the driver just to print a
            # summary — materialize() pins blocks in the (spillable)
            # object store ONCE, making count() metadata-only and
            # limit() a few-block pull, instead of executing the lazy
            # plan twice (once per accessor)
            res = res.materialize()
            rows = int(res.count())
            df = res.limit(args.head).to_pandas()
        else:
            df = res.to_pandas() if not hasattr(res, "head") else res
            rows = int(len(df))
        print(json.dumps({
            "pipeline": args.name, "rows": rows,
            "columns": list(map(str, df.columns)),
            "head": json.loads(df.head(args.head).to_json(
                orient="records", date_format="iso"))}))


def cmd_merge(args):
    from probly_search_ray.maintain import merge_indexes
    man = merge_indexes(args.sources.split(","), args.dest,
                        compact=args.compact, overwrite=args.overwrite)
    from probly_search_ray.state.manifest import Stats
    # Stats is tombstone-adjusted; group partials are not
    print(json.dumps({"groups": len(man["groups"]),
                      "docs": Stats(args.dest).num_docs}))


def main(argv=None):
    p = argparse.ArgumentParser(prog="probly_search_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build an index over parquet docs")
    b.add_argument("--input", required=True)
    b.add_argument("--index", required=True)
    b.add_argument("--key", default="doc_id")
    b.add_argument("--fields", default="text")
    b.add_argument("--files-per-group", type=int, default=64)
    b.add_argument("--batch-size", type=int, default=4096)
    b.add_argument("--block-postings", type=int, default=4096)
    b.add_argument("--overwrite", action="store_true")
    b.add_argument("--no-resume", action="store_true")
    b.add_argument("--warm-cache", dest="warm_cache", action="store_true",
                   default=True,
                   help="pre-decode the mmap CSR cache after the build "
                        "(default on; see --no-warm-cache)")
    b.add_argument("--no-warm-cache", dest="warm_cache",
                   action="store_false",
                   help="skip the build-time CSR cache (first engine "
                        "start then pays the cold decode)")
    b.set_defaults(fn=cmd_build)

    bp = sub.add_parser("build-pages", help="flagship CC-pages pipeline")
    bp.add_argument("--input", required=True)
    bp.add_argument("--index", required=True)
    bp.add_argument("--files-per-group", type=int, default=64)
    bp.add_argument("--batch-size", type=int, default=2048)
    bp.add_argument("--overwrite", action="store_true")
    bp.add_argument("--no-resume", action="store_true")
    bp.set_defaults(fn=cmd_build_pages)

    q = sub.add_parser("query", help="query a built index")
    q.add_argument("--index", required=True)
    q.add_argument("--query", required=True)
    q.add_argument("--scorer", default="bm25",
                   choices=["bm25", "zero_to_one"])
    q.add_argument("--k", type=int, default=10)
    q.add_argument("--actors", action="store_true")
    q.add_argument("--doc-shards", type=int, default=1,
                   help="serve from N shard actors, each holding the "
                        "full dictionary and the postings of its hash "
                        "partition of the docs (default 1: one shard, "
                        "in-process unless --actors)")
    q.add_argument("--require-all", action="store_true",
                   help="conjunctive (AND) semantics")
    q.add_argument("--exclude", default=None,
                   help="space-separated NOT terms: drop docs matching "
                        "any of them")
    q.set_defaults(fn=cmd_query)

    r = sub.add_parser("remove", help="tombstone a document")
    r.add_argument("--index", required=True)
    r.add_argument("--doc-id", type=int, required=True)
    r.set_defaults(fn=cmd_remove)

    v = sub.add_parser("vacuum", help="compact away tombstones")
    v.add_argument("--index", required=True)
    v.set_defaults(fn=cmd_vacuum)

    c = sub.add_parser("compact",
                       help="merge all groups into one sorted group")
    c.add_argument("--index", required=True)
    c.set_defaults(fn=cmd_compact)

    ac = sub.add_parser("complete",
                        help="autocomplete a prefix from the dictionary")
    ac.add_argument("--index", required=True)
    ac.add_argument("--prefix", required=True)
    ac.add_argument("--k", type=int, default=10)
    ac.set_defaults(fn=cmd_complete)

    st = sub.add_parser("stats", help="index metadata / lineage report")
    st.add_argument("--index", required=True)
    st.set_defaults(fn=cmd_stats)

    mg = sub.add_parser(
        "merge", help="merge independently built indexes into one")
    mg.add_argument("--sources", required=True,
                    help="comma-separated source index dirs")
    mg.add_argument("--dest", required=True)
    mg.add_argument("--compact", action="store_true",
                    help="re-sort all postings into one group after "
                         "the metadata merge (distributed)")
    mg.add_argument("--overwrite", action="store_true")
    mg.set_defaults(fn=cmd_merge)

    pl = sub.add_parser(
        "pipeline", help="run a registered data-processing pipeline "
        "(use --name list to enumerate)")
    pl.add_argument("--name", required=True,
                    help="pipeline name from queries(), or 'list'")
    pl.add_argument("--sf-dir", default="/root/testdata/sf0.001",
                    help="directory holding the parquet tables")
    pl.add_argument("--out", default=None,
                    help="write result as partitioned parquet here")
    pl.add_argument("--head", type=int, default=5,
                    help="sample rows to print when --out is not given")
    pl.set_defaults(fn=cmd_pipeline)

    args = p.parse_args(argv)
    args.fn(args)
    ray = sys.modules.get("ray")   # loaded only by commands that use it
    if ray is not None and ray.is_initialized():
        ray.shutdown()


if __name__ == "__main__":
    main()

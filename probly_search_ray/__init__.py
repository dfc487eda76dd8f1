"""probly-search-ray: Ray-Data-native inverted-index + BM25 engine with
probly-search semantics, plus training-data pipeline operators.

Public API:

    from probly_search_ray import build_index, SearchEngine
    build_index("pages/*.parquet", "/mnt/idx", field_cols=["text"])
    eng = SearchEngine("/mnt/idx", doc_shards=4, use_actors=True)
    eng.query("hello wor", "bm25", k=10)

The names resolve on first use (PEP 562), so importing the package, or
only its serving engine, loads neither Ray nor pandas nor pyarrow.
"""

import importlib

# public name → the module that defines it
_HOME = {
    "build_index": "build",
    "SearchEngine": "search",
    "remove_document": "maintain",
    "vacuum": "maintain",
    "ScoreCalculator": "refmodel",
    "BM25": "refmodel",
    "ZeroToOne": "refmodel",
    "RefIndex": "refmodel",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""Tokenizers.

The engine's default tokenizer matches the reference contract exactly:
split on a *single space* character, empty tokens dropped downstream
(``/root/reference/src/lib.rs:42-44``, ``src/index.rs:100-110``).

Two forms are provided for each tokenizer:
- a vectorized Arrow form used inside ``map_batches`` (hot path), and
- a plain-Python form used on query strings (one string at a time).
Both MUST byte-match each other — pinned by tests.
"""

from __future__ import annotations

import re


def whitespace_split_arrow(col) -> pa.Array:
    """Vectorized: split each string on a single space → list<string>."""
    import pyarrow as pa
    import pyarrow.compute as pc
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pc.split_pattern(col, " ")


def whitespace_split_py(s: str) -> list[str]:
    return s.split(" ")


_UNICODE_WORD = re.compile(r"\w+", re.UNICODE)


_NONWORD = re.compile(r"[^a-zA-Z0-9_]+")


def word_split_py(s: str) -> list[str]:
    """Extension tokenizer: lowercase + split on ASCII non-word runs.
    Byte-matches ``word_split_arrow`` (empty tokens dropped downstream,
    same as the whitespace contract)."""
    return _NONWORD.split(s.lower())


def word_split_arrow(col) -> pa.Array:
    """Vectorized form of ``word_split_py`` (RE2 has no unicode \\w, so
    the class is explicit ASCII on both sides)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    lowered = pc.utf8_lower(col)
    return pc.split_pattern_regex(lowered, r"[^a-zA-Z0-9_]+")


class Tokenizer:
    """A pluggable tokenizer = (arrow_fn, py_fn) pair (U1 hook,
    ``/root/reference/src/lib.rs:14``)."""

    def __init__(self, name: str, arrow_fn, py_fn):
        self.name = name
        self.arrow_fn = arrow_fn
        self.py_fn = py_fn

    def __call__(self, s: str) -> list[str]:
        return self.py_fn(s)


WHITESPACE = Tokenizer("whitespace", whitespace_split_arrow, whitespace_split_py)
WORD = Tokenizer("word", word_split_arrow, word_split_py)

TOKENIZERS = {"whitespace": WHITESPACE, "word": WORD}


def get_tokenizer(name_or_tok) -> Tokenizer:
    if isinstance(name_or_tok, Tokenizer):
        return name_or_tok
    return TOKENIZERS[name_or_tok]

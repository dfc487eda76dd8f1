"""Reference answers for the benchmark's correctness checks.

Everything here is computed from the generated Parquet pages with plain
Python and NumPy; nothing is imported from ``probly_search_ray``.  The
semantics follow the reference library (probly-search):

- a document is its ``title`` then its ``text`` field, each split on a
  single space with empty tokens dropped; documents are inserted in
  ascending ``doc_id`` order;
- document frequency counts occurrences (every occurrence of a term
  adds a posting), over live documents only;
- a query term expands to every dictionary term it prefixes, visited in
  trie order: the term itself, then child nodes newest first, where a
  node is created by the first inserted token that passes through it;
- BM25 per expansion is ``sum_f tf_norm_f * idf * boost * field_boost``
  and merges per document as ``prev + first`` for the first expansion
  of a query term that visits the document, ``max`` for later ones;
- removing a document drops it from N, from the field-length averages
  and from df immediately.
"""

from __future__ import annotations

import bisect
import math

import numpy as np
import pyarrow.parquet as pq

K1 = 1.2
B = 0.75
_TOP = chr(0x10FFFF)


def _html_title(html: bytes) -> str:
    s = html.decode()
    return s.split("<title>", 1)[1].split("</title>", 1)[0]


class Corpus:
    """Tokenized pages with a CSR postings table per dictionary term."""

    def __init__(self, files: list[str]):
        ids, titles, texts = [], [], []
        self.file_docs = []
        for f in files:
            t = pq.read_table(f, columns=["doc_id", "html", "text"])
            self.file_docs.append(t["doc_id"].to_numpy().astype(np.int64))
            ids.extend(t["doc_id"].to_pylist())
            titles.extend(_html_title(h) for h in t["html"].to_pylist())
            texts.extend(t["text"].to_pylist())
        order = sorted(range(len(ids)), key=ids.__getitem__)
        self.doc_ids = np.asarray([ids[i] for i in order], dtype=np.int64)
        self.max_doc = int(self.doc_ids.max()) + 1 if len(ids) else 0
        toks: list[str] = []
        tok_doc: list[int] = []
        tok_field: list[int] = []
        self.lens = np.zeros((2, self.max_doc), dtype=np.int64)
        # UTF-8 bytes of title + text per doc
        self.text_bytes = np.zeros(self.max_doc, dtype=np.int64)
        for i in order:
            d = ids[i]
            for f, s in enumerate((titles[i], texts[i])):
                self.text_bytes[d] += len(s.encode())
                words = [w for w in s.split(" ") if w]
                self.lens[f, d] = len(words)
                toks.extend(words)
                tok_doc.extend([d] * len(words))
                tok_field.extend([f] * len(words))
        terms, first_pos, term_of_tok = np.unique(
            np.asarray(toks, dtype=object).astype(str), return_index=True,
            return_inverse=True)
        self.terms: list[str] = terms.tolist()
        self.first_pos = first_pos.astype(np.int64)
        self.occ = np.bincount(term_of_tok, minlength=len(terms))
        tok_doc_a = np.asarray(tok_doc, dtype=np.int64)
        tok_field_a = np.asarray(tok_field, dtype=np.int64)
        # one posting per (term, doc) with per-field counts
        key = term_of_tok.astype(np.int64) * self.max_doc + tok_doc_a
        uk, inv = np.unique(key, return_inverse=True)
        self.p_doc = uk % self.max_doc
        self.p_tf = np.zeros((2, len(uk)), dtype=np.int64)
        np.add.at(self.p_tf, (tok_field_a, inv), 1)
        p_term = uk // self.max_doc
        self.post_off = np.zeros(len(terms) + 1, dtype=np.int64)
        np.cumsum(np.bincount(p_term, minlength=len(terms)),
                  out=self.post_off[1:])

    def doc_terms(self, doc: int) -> list[str]:
        """Dictionary terms of one document (slow; used for probes)."""
        hit = np.flatnonzero(self.p_doc == doc)
        t_idx = np.searchsorted(self.post_off, hit, side="right") - 1
        return [self.terms[i] for i in t_idx]

    def rarest_term(self, doc: int) -> str:
        ts = self.doc_terms(doc)
        return min(ts, key=lambda t: (self.occ[bisect.bisect_left(
            self.terms, t)], t))

    def hot_terms(self) -> list[str]:
        """Dictionary terms by occurrence count, most frequent first."""
        o = np.lexsort((np.arange(len(self.terms)), -self.occ))
        return [self.terms[i] for i in o]


class Oracle:
    """Query answers over the live documents of a ``Corpus``."""

    def __init__(self, corpus: Corpus, live: np.ndarray):
        c = corpus
        self.c = c
        self.live = live  # bool per doc id
        self.n = int(live.sum())
        self.avgs = [float(c.lens[f][live].sum()) / self.n for f in (0, 1)]

    def _range(self, term: str):
        """Dictionary rows of ``term`` and every term it prefixes."""
        t = self.c.terms
        lo = bisect.bisect_left(t, term)
        return lo, bisect.bisect_left(t, term + _TOP, lo)

    def _trie_rank(self, term: str, lo: int, hi: int) -> np.ndarray:
        """Rank of each dictionary term in [lo, hi) in the trie walk
        from ``term``'s node (parent before children, newest child
        first)."""
        words = self.c.terms[lo:hi]
        fp = self.c.first_pos[lo:hi]
        born: dict[str, int] = {}
        for w, p in zip(words, fp):
            for j in range(len(term) + 1, len(w) + 1):
                q = w[:j]
                if born.get(q, 1 << 62) > p:
                    born[q] = int(p)
        keys = [tuple(-born[w[:j]] for j in range(len(term) + 1,
                                                  len(w) + 1))
                for w in words]
        order = sorted(range(len(words)), key=keys.__getitem__)
        rank = np.empty(len(words), dtype=np.int64)
        rank[order] = np.arange(len(words))
        return rank

    def _postings(self, lo: int, hi: int):
        c = self.c
        a, b = c.post_off[lo], c.post_off[hi]
        n_per = np.diff(c.post_off[lo:hi + 1])
        which = np.repeat(np.arange(hi - lo), n_per)
        docs = c.p_doc[a:b]
        tf = c.p_tf[:, a:b]
        keep = self.live[docs]
        return which[keep], docs[keep], tf[:, keep]

    def term_records(self, term: str):
        """(docs, trie rank, score) of every live BM25 record of one
        query term, or None when no dictionary term matches."""
        lo, hi = self._range(term)
        if lo == hi:
            return None
        which, docs, tf = self._postings(lo, hi)
        df = np.bincount(which, weights=tf.sum(axis=0),
                         minlength=hi - lo)
        freq = np.minimum(float(self.n), df)
        idf = np.log(1.0 + (self.n - freq + 0.5) / (freq + 0.5))
        words = self.c.terms[lo:hi]
        bl = np.asarray([len(w.encode()) for w in words], dtype=np.float64)
        boost = np.log(1.0 + 1.0 / (1.0 + np.abs(bl - len(term.encode()))))
        boost[[w == term for w in words]] = 1.0
        coef = (idf * boost)[which]
        s = np.zeros(len(docs))
        for f in (0, 1):
            tff = tf[f].astype(np.float64)
            pos = tff > 0
            fl = self.c.lens[f][docs[pos]]
            t = tff[pos]
            s[pos] += ((K1 + 1.0) * t) / (
                K1 * ((1.0 - B) + B * (fl / self.avgs[f])) + t) * coef[pos]
        return docs, self._trie_rank(term, lo, hi)[which], s

    def bm25(self, q: str) -> dict[int, float]:
        scores: dict[int, float] = {}
        for term in q.split(" "):
            if not term:
                continue
            rec = self.term_records(term)
            if rec is None or not len(rec[0]):
                continue
            docs, rank, s = rec
            o = np.lexsort((rank, docs))
            docs, s = docs[o], s[o]
            starts = np.flatnonzero(np.r_[True, docs[1:] != docs[:-1]])
            first = s[starts]
            rest = s.copy()
            rest[starts] = -np.inf
            rest_max = np.maximum.reduceat(rest, starts)
            for d, sf, rm in zip(docs[starts].tolist(), first.tolist(),
                                 rest_max.tolist()):
                prev = scores.get(d)
                base = sf if prev is None else prev + sf
                scores[d] = max(base, rm)
        return scores

    def matches(self, term: str) -> set[int]:
        lo, hi = self._range(term)
        if lo == hi:
            return set()
        return set(self._postings(lo, hi)[1].tolist())

    def zero_to_one(self, term: str) -> dict[int, float]:
        """Single-term zero-to-one: per doc, the best expansion score
        over fields, divided by max(field length, query length = 1)."""
        lo, hi = self._range(term)
        if lo == hi:
            return {}
        which, docs, tf = self._postings(lo, hi)
        words = self.c.terms[lo:hi]
        te = np.asarray([len(w.encode()) for w in words], dtype=np.float64)
        e_score = (1.0 - np.abs(te - len(term.encode())) / te)[which]
        best: dict[int, float] = {}
        for f in (0, 1):
            pos = tf[f] > 0
            fl = np.maximum(self.c.lens[f][docs[pos]], 1)
            v = e_score[pos] / fl
            for d, x in zip(docs[pos].tolist(), v.tolist()):
                if x > best.get(d, -1.0):
                    best[d] = x
        return best

    def complete(self, prefix: str, k: int) -> list[tuple[str, int]]:
        lo, hi = self._range(prefix)
        if lo == hi:
            return []
        which, _, tf = self._postings(lo, hi)
        df = np.bincount(which, weights=tf.sum(axis=0), minlength=hi - lo)
        words = self.c.terms[lo:hi]
        ranked = sorted(((words[i], int(df[i])) for i in range(hi - lo)
                         if df[i] > 0), key=lambda x: (-x[1], x[0]))
        return ranked[:k]

    def answer(self, op: dict):
        """Full reference answer for one query op, as a doc → score map
        (or the completion list for ``complete``)."""
        kind = op["kind"]
        if kind == "complete":
            return self.complete(op["q"], op["k"])
        if kind == "z2o":
            return self.zero_to_one(op["q"])
        scores = self.bm25(op["q"])
        if kind == "and":
            keep = None
            for t in dict.fromkeys(w for w in op["q"].split(" ") if w):
                m = self.matches(t)
                keep = m if keep is None else keep & m
            scores = {d: s for d, s in scores.items() if d in (keep or ())}
        elif kind == "not":
            drop = set()
            for t in op["exclude"].split(" "):
                if t:
                    drop |= self.matches(t)
            scores = {d: s for d, s in scores.items() if d not in drop}
        return scores


def same_topk(got, want, k) -> bool:
    """Tie-aware top-k comparison of an engine result against a full
    reference score map: the returned scores are the k best reference
    scores, and every returned doc carries its own reference score."""
    if isinstance(want, list):  # completions compare exactly
        return [(t, int(d)) for t, d in got] == want
    best = sorted(want.values(), reverse=True)
    if k is not None:
        best = best[:k]
    if len(got) != len(best):
        return False
    for (d, s), w in zip(got, best):
        if d not in want or not _close(want[d], s) or not _close(w, s):
            return False
    return all(got[i][1] >= got[i + 1][1] for i in range(len(got) - 1))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)

"""Seeded query streams.

The mix follows the repo's earlier serving benchmark (``bench.py``,
``bench_queries``): hot unigrams, cold unigrams, bigrams and short
prefixes in equal shares, over the same rank bands of the vocabulary.
It adds the small shares of ``zero_to_one``, ``require_all``,
``exclude`` and ``complete`` that the engine also serves.  Where
``bench.py`` draws uniformly inside a band, every term here is drawn
with Zipf weights over its band, with the exponent the synthetic corpus
uses for its words (``sources.synth``, ``zipf_s=1.07``): a term comes up
in queries as often, against its band-mates, as it comes up in the text.
So hot terms recur (the sharing the engine's expansion cache exploits)
while the tail keeps bringing cold ones.  Bands are ordered by corpus
rank, not by the seed, so every seed loads the engine alike and only the
sampled sequence differs.  README.md gives the reason for each share.
"""

from __future__ import annotations

import numpy as np

K = 10
ZIPF_S = 1.07            # sources.synth.generate_pages' default zipf_s

# class -> share of the query stream.  The four classes of bench.py keep
# its equal shares; the four small ones take 5% each (an assumption: the
# engine serves them, and no measured share is at hand).
MIX = {
    "hot": 0.20,       # unigram of the 20 most frequent terms
    "cold": 0.20,      # unigram beyond the top tenth of the dictionary
    "multi": 0.20,     # bigram of two terms among the top 2000
    "prefix": 0.20,    # 2-3 character prefix of a top-200 term
    "z2o": 0.05,       # zero-to-one scorer: half hot unigrams, half prefixes
    "and": 0.05,       # require_all over a bigram
    "not": 0.05,       # hot unigram excluding a top-2000 term
    "complete": 0.05,  # dictionary autocomplete on a prefix
}


class _Pool:
    """Zipf-weighted draws from one ranked pool.  Draws come in shuffled
    chunks of systematic samples, so each term's count in a chunk is
    within one of its expected count: seeds differ in order, not in how
    often the costly hot terms come up."""

    def __init__(self, terms: list[str], rng):
        self.terms = terms
        w = 1.0 / np.power(np.arange(1, len(terms) + 1, dtype=np.float64),
                           ZIPF_S)
        self.cdf = np.cumsum(w / w.sum())
        self.rng = rng
        self.queue: list[str] = []

    def next(self) -> str:
        if not self.queue:
            n = 256
            u = (np.arange(n) + self.rng.random()) / n
            idx = np.minimum(np.searchsorted(self.cdf, u), len(self.terms) - 1)
            self.queue = [self.terms[i] for i in self.rng.permutation(idx)]
        return self.queue.pop()


def _prefixes(terms: list[str]) -> list[str]:
    """2- and 3-character prefixes that expand (are shorter than their
    term), in the rank order of the first term that gives them."""
    out: dict[str, None] = {}
    for t in terms:
        for k in (2, 3):
            if len(t) > k:
                out.setdefault(t[:k])
    return list(out)


class QueryMix:
    """Term pools built once per corpus; ``draw`` samples ops.  The rank
    bands are bench.py's: its hot (top 20), bigram (top 2000) and prefix
    (top 200 terms) bands are absolute ranks and fit this dictionary
    as they are; its cold band (ranks 5000-50000 of 50000) is the tail
    beyond the top tenth, and is kept as that share."""

    def __init__(self, ranked_terms: list[str]):
        self.pools = {
            "hot": ranked_terms[:20],
            "cold": ranked_terms[len(ranked_terms) // 10:],
            "multi": ranked_terms[:2000],
            "prefix": _prefixes(ranked_terms[:200]),
        }

    def draw(self, seed_key, n: int) -> list[dict]:
        """``n`` ops; each class gets its exact share, in seeded order."""
        rng = np.random.default_rng(seed_key)
        pools = {k: _Pool(v, rng) for k, v in self.pools.items()}
        counts = {c: int(round(share * n)) for c, share in MIX.items()}
        counts["hot"] += n - sum(counts.values())
        cls = rng.permutation([c for c, m in counts.items()
                               for _ in range(m)])
        return [self._op(rng, pools, c) for c in cls]

    @staticmethod
    def _terms(pools, names) -> list[str]:
        while True:
            words = [pools[p].next() for p in names]
            if len(set(words)) == len(words):
                return words

    def _op(self, rng, pools, c) -> dict:
        if c in ("hot", "cold", "prefix"):
            return {"kind": "bm25", "q": pools[c].next(), "k": K}
        if c == "multi":
            return {"kind": "bm25",
                    "q": " ".join(self._terms(pools, ["multi", "multi"])),
                    "k": K}
        if c == "z2o":
            pool = "prefix" if rng.random() < 0.5 else "hot"
            return {"kind": "z2o", "q": pools[pool].next(), "k": K}
        if c == "and":
            return {"kind": "and",
                    "q": " ".join(self._terms(pools, ["multi", "multi"])),
                    "k": K}
        if c == "not":
            while True:
                a, b = self._terms(pools, ["hot", "multi"])
                if not b.startswith(a):
                    return {"kind": "not", "q": a, "exclude": b, "k": K}
        return {"kind": "complete", "q": pools["prefix"].next(), "k": K}


def run_query(engine, op):
    kind = op["kind"]
    if kind == "complete":
        return engine.complete(op["q"], k=op["k"])
    if kind == "z2o":
        return engine.query(op["q"], "zero_to_one", k=op["k"])
    if kind == "and":
        return engine.query(op["q"], "bm25", k=op["k"], require_all=True)
    if kind == "not":
        return engine.query(op["q"], "bm25", k=op["k"],
                            exclude=op["exclude"])
    return engine.query(op["q"], "bm25", k=op["k"])

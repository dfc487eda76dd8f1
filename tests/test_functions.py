"""Unit tests: varint/delta codec, hashing primitives, text stages,
multimodal plumbing."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from probly_search_ray.functions.codec import (
    decode_blob, encode_block, encode_many, varint_decode_all, varint_encode)
from probly_search_ray.functions.hashing import (
    hash_tokens_u64, minhash_signatures, rolling_fingerprint,
    shingle_hashes, simhash64)


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=200))
@settings(max_examples=50, deadline=None)
def test_varint_roundtrip(values):
    a = np.asarray(values, dtype=np.uint64)
    assert (varint_decode_all(varint_encode(a)) == a).all()


def test_encode_many_boundaries():
    rng = np.random.default_rng(0)
    vals = rng.integers(0, 2**50, size=300).astype(np.uint64)
    bounds = np.array([0, 17, 17, 300])
    segs = encode_many(vals, bounds)
    assert b"".join(segs) == varint_encode(vals)
    assert segs[0] == b"" and segs[2] == b""
    assert (varint_decode_all(segs[1]) == vals[:17]).all()


def test_block_roundtrip_multiblock():
    rng = np.random.default_rng(1)
    blobs = b""
    all_docs = []
    base = 0
    for _ in range(3):
        d = np.unique(rng.integers(base, base + 10**6, 50).astype(np.uint64))
        base += 10**6
        tfs = [rng.integers(1, 3, len(d)).astype(np.uint64),
               rng.integers(0, 3, len(d)).astype(np.uint64)]
        lens = [rng.integers(1, 99, len(d)).astype(np.uint64)] * 2
        blobs += encode_block(d, tfs, lens)
        all_docs.append((d, tfs[0] + tfs[1]))
    docs, occ, tfs, lens = decode_blob(blobs, 2)
    assert (docs == np.concatenate([d for d, _ in all_docs])).all()
    # occ reconstructed as sum of per-field tf
    assert (occ == np.concatenate([o for _, o in all_docs])).all()


def test_token_hash_deterministic_and_distinct():
    toks = np.array(["a", "b", "ab", "ba", "the", "the,", "日本語"])
    h1 = hash_tokens_u64(toks)
    h2 = hash_tokens_u64(toks.copy())
    assert (h1 == h2).all()
    assert len(np.unique(h1)) == len(toks)


def test_token_hash_mixed_types_batch_independent():
    """An object array past the factorize cutoff hashes each value's
    str() like the direct path: 1, 1.0 and True share a pandas code
    but not a string, so they must not share a hash."""
    big = np.array([1, 1.0, True, "1", "a"] * 1000, dtype=object)
    want = np.concatenate([hash_tokens_u64(big[i:i + 5])
                           for i in range(0, len(big), 5)])
    assert (hash_tokens_u64(big) == want).all()
    assert len(np.unique(want[:5])) == 4   # "1", "1.0", "True", "a"


def test_shingles_and_minhash_similarity():
    def sig_of(tokens):
        h = hash_tokens_u64(np.asarray(tokens))
        sh, n = shingle_hashes(h, np.array([len(tokens)]))
        return minhash_signatures(sh, n, k=128)[0]

    a = ["w%d" % i for i in range(50)]
    b = a[:45] + ["x%d" % i for i in range(5)]  # high overlap
    c = ["y%d" % i for i in range(50)]          # disjoint
    sab = (sig_of(a) == sig_of(b)).mean()
    sac = (sig_of(a) == sig_of(c)).mean()
    assert sab > 0.6
    assert sac < 0.2


def test_short_doc_has_no_shingles():
    h = hash_tokens_u64(np.array(["a", "b"]))
    sh, n = shingle_hashes(h, np.array([2]), w=3)
    assert n[0] == 0 and len(sh) == 0


def test_rolling_fingerprint_order_sensitive():
    h1 = hash_tokens_u64(np.array(["a", "b", "c"]))
    h2 = hash_tokens_u64(np.array(["c", "b", "a"]))
    f1 = rolling_fingerprint(h1, np.array([3]))
    f2 = rolling_fingerprint(h2, np.array([3]))
    assert f1[0] != f2[0]
    # identical docs → identical fp; batched == single
    both = rolling_fingerprint(np.concatenate([h1, h1]), np.array([3, 3]))
    assert both[0] == both[1] == f1[0]


def test_simhash_close_for_similar_docs():
    a = np.array(["w%d" % i for i in range(100)])
    b = np.concatenate([a[:95], np.array(["z%d" % i for i in range(5)])])
    c = np.array(["q%d" % i for i in range(100)])
    ha, hb, hc = (simhash64(hash_tokens_u64(x), np.array([len(x)]))[0]
                  for x in (a, b, c))
    def ham(x, y):
        return bin(int(x) ^ int(y)).count("1")
    assert ham(ha, hb) < ham(ha, hc)


def test_media_codecs_roundtrip():
    """The PPM / PCM1 codecs are real: encode→decode is lossless, and
    resize / frame-sample behave as specified."""
    import numpy as np
    from probly_search_ray.stages.multimodal import (
        decode_audio, decode_image, encode_pcm16, encode_ppm, frame_rms,
        resize_nearest)
    rng = np.random.default_rng(8)
    rgb = rng.integers(0, 256, (20, 30, 3), dtype=np.uint8)
    assert (decode_image(encode_ppm(rgb)) == rgb).all()
    small = resize_nearest(rgb, 10, 10)
    assert small.shape == (10, 10, 3)
    assert (small == rgb[::2][:, (np.arange(10) * 3)]).all()
    samples = rng.integers(-3000, 3000, 2048).astype(np.int16)
    dec, rate = decode_audio(encode_pcm16(samples, 16000))
    assert rate == 16000 and (dec == samples).all()
    rms = frame_rms(samples, frame=512, hop=256)
    assert len(rms) == 1 + (2048 - 512) // 256
    assert (rms >= 0).all() and (rms <= 1).all()
    # compressed formats hit the explicit no-decoder boundary
    with pytest.raises(NotImplementedError):
        decode_image(b"\xff\xd8\xff\xe0 fake jpeg")
    with pytest.raises(NotImplementedError):
        decode_audio(b"fLaC fake")


@pytest.mark.usefixtures("ray_session")
def test_multimodal_pipeline():
    import ray.data as rd
    from probly_search_ray.stages.multimodal import (
        media_feature_pipeline, synth_media_table)
    tbl = synth_media_table(64)
    out = media_feature_pipeline(rd.from_arrow(tbl), concurrency=2,
                                 batch_size=16).to_pandas()
    assert len(out) == 64
    assert set(out.columns) == {"media_id", "kind", "feature", "feat_norm"}
    assert all(len(f) == 13 for f in out["feature"])
    # deterministic across runs
    out2 = media_feature_pipeline(rd.from_arrow(tbl), concurrency=2,
                                  batch_size=16).to_pandas()
    assert (out.sort_values("media_id")["feat_norm"].to_numpy()
            == out2.sort_values("media_id")["feat_norm"].to_numpy()).all()
    # null text ⇒ black image (the all-null hazard class, bug #7)
    import pyarrow as pa
    from probly_search_ray.stages.multimodal import media_from_documents
    docs = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                     "text": pa.array(["abc def", None])})
    med = media_from_documents(docs)
    assert len(med) == 2 and med["payload"][1].as_py().startswith(b"P6")


def test_ref_mix64_matches_pandas_hash_array():
    """The pure-Python mix behind hll_check / kmeans_check must be
    bit-equal to pandas.util.hash_array on uint64 input (and the
    hash_key must be inert for numeric arrays — the sample ranking's
    determinism rests on that)."""
    import numpy as np
    import pandas as pd
    from probly_search_ray.pipelines.queries import _ref_mix64
    vals = np.array([0, 1, 2, 12345, 2**63 - 1, 2**64 - 1, 987654321],
                    dtype=np.uint64)
    want = pd.util.hash_array(vals)
    assert [int(w) for w in want] == [_ref_mix64(int(v)) for v in vals]
    assert (pd.util.hash_array(vals, hash_key="9" * 16) == want).all()


def test_ref_hll_estimate_matches_stage():
    """Pure-Python HLL == the vectorized register+estimator path for
    arbitrary value multisets (duplicates must not move the max)."""
    import numpy as np
    from probly_search_ray.pipelines.queries import _ref_hll_estimate
    from probly_search_ray.stages.sketches import (hll_estimate,
                                                   hll_registers)
    rng = np.random.default_rng(17)
    for n in (1, 100, 5000):
        vals = rng.integers(0, 10**12, size=n, dtype=np.int64)
        vals = np.concatenate([vals, vals[: n // 2]])  # duplicates
        fast = hll_estimate(hll_registers(vals))
        ref = _ref_hll_estimate(vals.tolist())
        assert round(fast) == round(ref), (n, fast, ref)


@pytest.mark.parametrize("cpus,want", [(1, (1, 1)), (2, (1, 1)),
                                       (4, (2, 2)), (32, (2, 16))])
def test_auto_pool_leaves_a_cpu(monkeypatch, cpus, want):
    """The pool's minimum never takes every CPU of a small session, so
    the pipeline's other stages can still schedule."""
    import ray
    from probly_search_ray.functions.sizing import auto_pool
    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "cluster_resources",
                        lambda: {"CPU": float(cpus)})
    assert auto_pool() == want
    lo, hi = auto_pool()
    assert lo <= hi and (cpus == 1 or lo <= cpus - 1)


def test_in_sorted_empty_sorted_array():
    """Membership in an empty sorted array is all-False, not an
    IndexError (a vacuum refresh empties the tombstone set)."""
    from probly_search_ray.search import _in_sorted
    vals = np.array([3, 1, 7], dtype=np.uint64)
    assert not _in_sorted(vals, np.empty(0, np.uint64)).any()
    assert len(_in_sorted(vals, np.empty(0, np.uint64))) == 3
    assert len(_in_sorted(np.empty(0, np.uint64), np.empty(0, np.uint64))) == 0
    got = _in_sorted(vals, np.array([1, 7], dtype=np.uint64))
    assert got.tolist() == [False, True, True]

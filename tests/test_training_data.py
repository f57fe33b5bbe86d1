"""Tests for dedup / similarity / text-analysis / multimodal stages.

Synthetic corpora with PLANTED duplicates and neighbors — the sf tables
have no duplicate text, so these tests exercise the merge paths that the
oracle equality checks cannot."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def _docs_table():
    base = ("the quick brown fox jumps over the lazy dog and runs far "
            "away into the deep green forest tonight")
    near = base.replace("tonight", "today")           # high jaccard
    far = "completely different words about databases and query engines"
    rows = [
        (0, base), (1, base),          # exact dup pair
        (2, near),                     # near dup of 0/1
        (3, far), (4, far + " extra"),  # near pair
        (5, "tiny"),
    ]
    return pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
    })


@pytest.fixture()
def docs_ds(ray_session):
    import ray.data as rd

    return rd.from_arrow(_docs_table())


def test_exact_dedup(docs_ds):
    from jsonld_js_ray.stages.dedup import exact_dedup

    out = exact_dedup(docs_ds).to_pandas()
    assert len(out) == 5                      # 6 docs, one exact dup pair
    dup = out[out["n_dups"] == 2]
    assert len(dup) == 1 and int(dup["keep_doc_id"].iloc[0]) == 0


def test_minhash_lsh_dedup_clusters_near_dups(docs_ds):
    from jsonld_js_ray.stages.dedup import minhash_lsh_dedup

    out = minhash_lsh_dedup(docs_ds, threshold=0.5).to_pandas()
    by_id = dict(zip(out["doc_id"], out["cluster_id"]))
    assert by_id[1] == 0                       # exact dup joins doc 0
    assert by_id[2] == 0                       # near dup joins doc 0
    assert by_id[3] not in (0,)                # unrelated stays apart
    keep = set(out[out["keep"]]["doc_id"])
    assert 0 in keep and 1 not in keep and 2 not in keep


def test_simhash_dedup_exact_pair(docs_ds):
    from jsonld_js_ray.stages.dedup import simhash64, simhash_dedup

    assert simhash64("a b c") == simhash64("a b c")
    out = simhash_dedup(docs_ds, max_hamming=3).to_pandas()
    by_id = dict(zip(out["doc_id"], out["cluster_id"]))
    assert by_id[1] == 0                       # identical text, hamming 0


def test_ngram_jaccard_kernel():
    from jsonld_js_ray.stages.dedup import ngram_jaccard

    assert ngram_jaccard("abcdef", "abcdef") == 1.0
    assert ngram_jaccard("abcdef", "zzzzzz") == 0.0
    assert 0.0 < ngram_jaccard("abcdef", "abcdxf") < 1.0


def test_embedding_dedup(ray_session):
    import ray.data as rd

    from jsonld_js_ray.stages.dedup import embedding_dedup

    rng = np.random.RandomState(0)
    base = rng.standard_normal(16)
    vecs = [base, base * 2.0,                      # same direction → dup
            base + rng.standard_normal(16) * 2.0,  # different
            -base]                                  # opposite
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(4), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float32())),
    }))
    out = embedding_dedup(ds, threshold=0.95).to_pandas()
    by_id = dict(zip(out["vec_id"], out["cluster_id"]))
    assert by_id[1] == 0 and by_id[2] == 2 and by_id[3] == 3


def test_knn_brute_matches_numpy(ray_session):
    import ray.data as rd

    from jsonld_js_ray.stages.similarity import knn_brute

    rng = np.random.RandomState(42)
    mat = rng.standard_normal((50, 8))
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(50), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in mat],
                              pa.list_(pa.float32())),
    }))
    out = knn_brute(ds, k=5, n_queries=2).to_pandas()
    # numpy reference (float32 input cast, like the stage does)
    m = mat.astype(np.float32).astype(np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    for q in (0, 1):
        sims = m @ m[q]
        sims[q] = -np.inf
        expect = list(np.argsort(-sims, kind="stable")[:5])
        got = list(out[out["query_id"] == q].sort_values("rank")["vec_id"])
        assert got == expect


def test_knn_lsh_subset_of_brute(ray_session):
    import ray.data as rd

    from jsonld_js_ray.stages.similarity import knn_lsh

    rng = np.random.RandomState(7)
    mat = rng.standard_normal((200, 16))
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(200), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in mat],
                              pa.list_(pa.float32())),
    }))
    out = knn_lsh(ds, k=5, n_queries=2).to_pandas()
    assert set(out["query_id"]) <= {0, 1}
    for q in set(out["query_id"]):
        ranks = list(out[out["query_id"] == q].sort_values("rank")["rank"])
        assert ranks == list(range(1, len(ranks) + 1))


def test_text_stats_and_lang_id(ray_session):
    import ray.data as rd

    from jsonld_js_ray.stages.text import lang_id_batch, text_stats_batch

    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([
            "The cat and the dog, in a house!",
            "der hund und die katze ist auf dem tisch",
            "le chat est pour la maison avec un chien",
        ], pa.string()),
    })
    stats = text_stats_batch(tbl).to_pydict()
    assert stats["n_tokens"][0] == 8
    assert stats["n_stop_en"][0] == 5            # the, and, the, in, a
    assert stats["n_punct"][0] == 2              # comma + bang
    langs = lang_id_batch(tbl).to_pydict()
    assert langs["lang_pred"] == ["en", "de", "fr"]


def test_quality_and_fingerprint(ray_session):
    import ray.data as rd

    from jsonld_js_ray.stages.text import Fingerprinter, quality_score_batch

    tbl = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array([
            "a rich and varied document with many different useful words "
            "for the reader to enjoy in moderation",
            "x x x x x x",
        ], pa.string()),
    })
    q = quality_score_batch(tbl).to_pydict()
    assert q["quality"][0] > q["quality"][1]

    fp = Fingerprinter()
    a = fp.fingerprint("some reasonably long text for fingerprinting here")
    b = fp.fingerprint("some reasonably long text for fingerprinting here")
    c = fp.fingerprint("entirely other content that shares nothing at all")
    assert a == b != c


def test_multimodal_decode_and_resize(ray_session):
    import ray.data as rd

    from jsonld_js_ray.stages.multimodal import (
        FrameSampleActor, ImageDecodeActor, ImageResizeActor,
        synthesize_media_table,
    )

    media = synthesize_media_table(n_items=8, seed=3)
    ds = rd.from_arrow(media)
    feats = ds.map_batches(ImageDecodeActor, batch_format="pyarrow",
                           batch_size=4, concurrency=1).to_pandas()
    assert len(feats) == 8
    assert (feats["width"] >= 8).all() and (feats["channels"] == 3).all()
    assert feats["mean_r"].between(0, 255).all()

    resized = ds.map_batches(ImageResizeActor, batch_format="pyarrow",
                             batch_size=4, concurrency=1)
    feats2 = resized.map_batches(ImageDecodeActor, batch_format="pyarrow",
                                 batch_size=4, concurrency=1).to_pandas()
    assert (feats2["width"] == 16).all() and (feats2["height"] == 16).all()

    frames = ds.map_batches(FrameSampleActor, batch_format="pyarrow",
                            batch_size=4, concurrency=1).to_pandas()
    assert frames.groupby("item_id").size().min() >= 2

    # non-image payloads fail loudly without a heavier codec
    try:
        import PIL  # noqa: F401
    except ImportError:
        with pytest.raises(ValueError):
            ImageDecodeActor()._decode(b"\x89PNG_not_really")


def test_multimodal_synth_deterministic():
    from jsonld_js_ray.stages.multimodal import synthesize_media_table

    assert synthesize_media_table(4, seed=9).equals(
        synthesize_media_table(4, seed=9))


def test_ngram_jaccard_dedup_pipeline(docs_ds):
    from jsonld_js_ray.stages.dedup import ngram_jaccard_dedup

    out = ngram_jaccard_dedup(docs_ds, threshold=0.6).to_pandas()
    by_id = dict(zip(out["doc_id"], out["cluster_id"]))
    assert by_id[1] == 0            # exact dup pair clusters
    assert by_id[2] == 0            # near dup (one word changed)
    assert by_id[5] == 5            # tiny unrelated doc stays alone


def test_knn_lsh_recall_vs_brute(ray_session):
    """Measure LSH recall against the exact baseline on clustered data
    (where ANN is meaningful); must clear a floor with multi-probe."""
    import ray.data as rd

    from jsonld_js_ray.stages.similarity import knn_brute, knn_lsh

    rng = np.random.RandomState(11)
    # 10 gaussian clusters → near neighbors share hyperplane signs
    centers = rng.standard_normal((10, 16)) * 3
    mat = np.concatenate(
        [c + rng.standard_normal((50, 16)) * 0.5 for c in centers])
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(len(mat)), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in mat],
                              pa.list_(pa.float32())),
    }))
    brute = knn_brute(ds, k=10, n_queries=5).to_pandas()
    approx = knn_lsh(ds, k=10, n_queries=5).to_pandas()
    recalls = []
    for q in range(5):
        truth = set(brute[brute["query_id"] == q]["vec_id"])
        got = set(approx[approx["query_id"] == q]["vec_id"])
        recalls.append(len(truth & got) / len(truth))
    mean_recall = sum(recalls) / len(recalls)
    assert mean_recall >= 0.9, recalls


def test_knn_lsh_recall_on_embeddings_table(ray_session, sf_dir):
    """recall@10 ≥ 0.9 against knn_brute on the real embeddings table
    (the multi-table defaults are sized for this corpus; deterministic
    fixed-seed planes)."""
    import ray.data as rd

    from jsonld_js_ray.stages.similarity import knn_brute, knn_lsh

    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    brute = knn_brute(emb).to_pandas()
    approx = knn_lsh(emb).to_pandas()
    recalls = []
    for q in sorted(set(brute["query_id"])):
        truth = set(brute[brute["query_id"] == q]["vec_id"])
        got = set(approx[approx["query_id"] == q]["vec_id"])
        recalls.append(len(truth & got) / len(truth))
    assert sum(recalls) / len(recalls) >= 0.9, recalls


def test_embedding_dedup_planted_clusters(ray_session):
    """LSH-bucketed embedding dedup finds planted cosine-0.999 clusters
    with no driver-side matrix."""
    from jsonld_js_ray.stages.dedup import embedding_dedup

    rng = np.random.RandomState(5)
    base = rng.standard_normal((50, 64))
    rows, ids, expected = [], [], {}
    vid = 0
    for i in range(50):
        root = vid
        for j in range(3):
            v = base[i] if j == 0 else \
                base[i] + rng.standard_normal(64) * 0.01
            rows.append(list(map(float, v)))
            ids.append(vid)
            expected[vid] = root
            vid += 1
    import ray.data as rd

    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array(rows, pa.list_(pa.float32())),
    }))
    out = embedding_dedup(ds, threshold=0.95).to_pandas()
    got = dict(zip(out["vec_id"], out["cluster_id"]))
    assert got == expected
    keep = dict(zip(out["vec_id"], out["keep"]))
    assert all(keep[v] == (expected[v] == v) for v in expected)


def test_minhash_agreement_estimates_jaccard():
    """Regression for the collapsed multiply-shift family: signature
    agreement fraction must estimate Jaccard (the broken (A·x+B) mod P
    family made all permutations agree on the same min shingle, so one
    new shingle flipped most positions)."""
    from jsonld_js_ray.stages.dedup import minhash_sig, word_shingles

    toks = [f"tok{i}" for i in range(60)]
    a = " ".join(toks)
    b = " ".join(toks + ["extra"])
    sa, sb = word_shingles(a), word_shingles(b)
    j = len(sa & sb) / len(sa | sb)
    agree = float((minhash_sig(a) == minhash_sig(b)).mean())
    assert j > 0.9
    assert abs(agree - j) < 0.15, (agree, j)


def test_simhash_in_bucket_verification(ray_session):
    """Verified pairs come out of the band groupby (no driver sig map):
    exact copies cluster, unrelated docs do not."""
    import ray.data as rd

    from jsonld_js_ray.stages.dedup import simhash_dedup

    texts = ["the quick brown fox jumps over the lazy dog again"] * 2 + \
        ["completely different text about ray data pipelines at scale"]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(texts, pa.large_string()),
    }))
    out = simhash_dedup(ds).to_pandas().set_index("doc_id")
    assert out.loc[1, "cluster_id"] == 0 and not out.loc[1, "keep"]
    assert out.loc[2, "cluster_id"] == 2 and out.loc[2, "keep"]


def test_planted_dedup_oracle(ray_session, sf_dir):
    """Construction-based oracle: interleaved doc-unique corpus makes
    minhash dedup output exactly SQL-predictable."""
    import duckdb

    from jsonld_js_ray.pipelines.training_data import (
        q_dedup_minhash_planted,
    )
    from jsonld_js_ray.stages.dedup import DEDUP_PLANTED_SQL

    mine = q_dedup_minhash_planted(sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"'{sf_dir}/documents.parquet'")
    orc = con.sql(DEDUP_PLANTED_SQL).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    assert a.equals(b.astype(a.dtypes.to_dict()))


def test_planted_corpus_excludes_empty_docs(ray_session):
    """Empty/whitespace docs break every sketch's planted contract
    (empty shingle sets, shared SimHash 0, equal fingerprints) — the
    corpus builder must drop them, mirroring WHERE nt >= 1."""
    import ray.data as rd

    from jsonld_js_ray.stages.dedup import (
        minhash_lsh_dedup_planted, planted_documents,
    )

    long_doc = " ".join(f"word{i}" for i in range(25))   # ≥ 20 tokens
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["", "   ", long_doc], pa.large_string()),
    }))
    corpus = planted_documents(ds).to_pandas()
    assert set(corpus["doc_id"]) == {2, 1_000_002, 2_000_002}
    out = minhash_lsh_dedup_planted(ds).to_pandas().set_index("doc_id")
    assert out.loc[1_000_002, "cluster_id"] == 2


def test_knn_lsh_probe_hamming_two_fills_all_columns():
    """probe_hamming=2 must generate all C(bits,1)+C(bits,2) flip masks
    (regression: trailing probe columns were left zero)."""
    from itertools import combinations

    from jsonld_js_ray.stages.similarity import LSH_BITS

    masks = [0]
    for dist in (1, 2):
        for flip in combinations(range(LSH_BITS), dist):
            masks.append(sum(1 << b for b in flip))
    # count matches 1 + C(b,1) + C(b,2) and all masks distinct
    import math
    assert len(masks) == 1 + LSH_BITS + math.comb(LSH_BITS, 2)
    assert len(set(masks)) == len(masks)


def test_knn_lsh_probe_hamming_two_runs(ray_session):
    import ray.data as rd

    from jsonld_js_ray.stages.similarity import knn_lsh

    rng = np.random.RandomState(3)
    mat = rng.standard_normal((100, 16))
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(100), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in mat],
                              pa.list_(pa.float32())),
    }))
    out = knn_lsh(ds, k=5, n_queries=2, probe_hamming=2).to_pandas()
    assert set(out["query_id"]) == {0, 1}
    assert all(out.groupby("query_id").size() == 5)


def test_embedding_dedup_planted_oracle(ray_session, sf_dir):
    import duckdb

    from jsonld_js_ray.pipelines.training_data import (
        q_dedup_embedding_planted,
    )
    from jsonld_js_ray.stages.dedup import EMBEDDING_PLANTED_SQL

    mine = q_dedup_embedding_planted(sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW embeddings AS SELECT * FROM "
            f"'{sf_dir}/embeddings.parquet'")
    orc = con.sql(EMBEDDING_PLANTED_SQL).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    assert a.equals(b.astype(a.dtypes.to_dict()))


def test_audio_decode_features(ray_session):
    import ray.data as rd

    from jsonld_js_ray.stages.multimodal import (
        AudioDecodeActor, audio_features, encode_wav_audio,
        synthesize_audio_table,
    )

    media = synthesize_audio_table(n_items=8, seed=3)
    out = audio_features(rd.from_arrow(media),
                         concurrency=1).to_pandas()
    assert len(out) == 8
    assert (out["sample_rate"].isin([8000, 16000, 44100])).all()
    assert (out["duration_s"] > 0).all()
    assert (out["rms"] > 0).all()
    assert (out["peak"] <= 32768).all()
    # deterministic: same synthesis → same features
    out2 = audio_features(rd.from_arrow(
        synthesize_audio_table(n_items=8, seed=3)),
        concurrency=1).to_pandas()
    assert out.equals(out2)
    # known payload → exact features
    p = encode_wav_audio(8000, 4000, seed=1)
    one = AudioDecodeActor()(pa.table({
        "item_id": pa.array([7], pa.int64()),
        "payload": pa.array([p], pa.large_binary()),
    })).to_pydict()
    assert one["sample_rate"] == [8000]
    assert one["n_samples"] == [4000]
    assert one["duration_s"] == [0.5]


def test_audio_peak_handles_full_scale_negative():
    """np.abs(int16(-32768)) wraps; the decode must widen first."""
    from jsonld_js_ray.stages.multimodal import AudioDecodeActor, encode_wav

    samples = np.array([-32768, 100], dtype=np.int16)
    payload = encode_wav(8000, samples)
    out = AudioDecodeActor()(pa.table({
        "item_id": pa.array([0], pa.int64()),
        "payload": pa.array([payload], pa.large_binary()),
    })).to_pydict()
    assert out["peak"] == [32768]


def test_wav_codec_cross_checks_against_stdlib_wave():
    """Our struct WAV codec vs the independent stdlib ``wave`` module,
    both directions — the decode path is a real container format."""
    import io
    import wave

    from jsonld_js_ray.stages.multimodal import decode_wav, encode_wav

    samples = (np.sin(np.arange(800) / 10.0) * 20000).astype(np.int16)

    # ours → stdlib
    buf = io.BytesIO(encode_wav(16000, samples))
    with wave.open(buf) as r:
        assert r.getframerate() == 16000
        assert r.getnchannels() == 1 and r.getsampwidth() == 2
        got = np.frombuffer(r.readframes(r.getnframes()), dtype="<i2")
    assert np.array_equal(got, samples)

    # stdlib → ours
    buf2 = io.BytesIO()
    with wave.open(buf2, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(8000)
        w.writeframes(samples.tobytes())
    sr, got2 = decode_wav(buf2.getvalue())
    assert sr == 8000 and np.array_equal(got2, samples)


def test_bmp_codec_roundtrip_and_golden_bytes():
    """BMP encode/decode round-trip + golden header bytes per the
    public BMP spec (BITMAPFILEHEADER/BITMAPINFOHEADER layout)."""
    import struct

    from jsonld_js_ray.stages.multimodal import decode_bmp, encode_bmp

    px = np.arange(5 * 3 * 3, dtype=np.uint8).reshape(5, 3, 3)
    payload = encode_bmp(px)
    assert payload[:2] == b"BM"
    file_size, = struct.unpack_from("<I", payload, 2)
    assert file_size == len(payload)
    info_size, w, h = struct.unpack_from("<Iii", payload, 14)
    assert (info_size, w, h) == (40, 3, 5)
    planes, bpp, comp = struct.unpack_from("<HHI", payload, 26)
    assert (planes, bpp, comp) == (1, 24, 0)
    # rows padded to 4 bytes: 3 px * 3 B = 9 -> 12 per row
    assert len(payload) == 54 + 12 * 5
    # bottom-up BGR: first stored pixel is the LAST row's first (RGB
    # 36,37,38 -> BGR 38,37,36)
    assert payload[54:57] == bytes([38, 37, 36])
    w2, h2, c2, out = decode_bmp(payload)
    assert (w2, h2, c2) == (3, 5, 3)
    assert np.array_equal(out, px)

    # top-down variant (negative height) decodes too
    neg = bytearray(payload)
    struct.pack_into("<i", neg, 22, -5)
    body = np.frombuffer(payload, np.uint8, offset=54).reshape(5, 12)
    neg[54:] = body[::-1].tobytes()
    _, _, _, out2 = decode_bmp(bytes(neg))
    assert np.array_equal(out2, px)


def test_token_counts_matches_oracle(ray_session, sf_dir):
    import duckdb

    from jsonld_js_ray.pipelines.training_data import q_token_counts
    from jsonld_js_ray.stages.text import TOKEN_COUNTS_SQL

    mine = q_token_counts(sf_dir).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"'{sf_dir}/documents.parquet'")
    orc = con.sql(TOKEN_COUNTS_SQL).df().sort_values(
        "doc_id").reset_index(drop=True)
    assert mine.equals(orc.astype(mine.dtypes.to_dict()))
    # BPE-ish pieces never exceed... sanity: at least as many as ws
    assert (mine["n_bpe_tokens"] >= mine["n_ws_tokens"]).all()


def test_knn_ivf_recall_on_clustered_data(ray_session):
    """IVF prunes cells; on clustered data (its use case) recall vs the
    exact baseline clears 0.9, and results are always a subset of valid
    neighbors (exact rerank — no false scores)."""
    import ray.data as rd

    from jsonld_js_ray.stages.similarity import knn_brute, knn_ivf

    rng = np.random.RandomState(17)
    centers = rng.standard_normal((8, 32)) * 4
    mat = np.concatenate(
        [c + rng.standard_normal((60, 32)) * 0.4 for c in centers])
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(len(mat)), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in mat],
                              pa.list_(pa.float32())),
    }))
    brute = knn_brute(ds, k=10, n_queries=5).to_pandas()
    approx = knn_ivf(ds, k=10, n_queries=5, n_centroids=8,
                     n_probe=3).to_pandas()
    recalls = []
    for q in range(5):
        truth = set(brute[brute["query_id"] == q]["vec_id"])
        got = set(approx[approx["query_id"] == q]["vec_id"])
        recalls.append(len(truth & got) / len(truth))
    assert sum(recalls) / len(recalls) >= 0.9, recalls


def test_knn_ivf_probe_all_equals_brute(ray_session):
    """Probing every cell makes IVF exhaustive: output must equal the
    exact baseline (validates assignment/rerank correctness)."""
    import ray.data as rd

    from jsonld_js_ray.stages.similarity import knn_brute, knn_ivf

    rng = np.random.RandomState(23)
    mat = rng.standard_normal((150, 16))
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(150), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in mat],
                              pa.list_(pa.float32())),
    }))
    brute = knn_brute(ds, k=8, n_queries=3).to_pandas()
    ivf = knn_ivf(ds, k=8, n_queries=3, n_centroids=8,
                  n_probe=8).to_pandas()
    cols = ["query_id", "rank", "vec_id"]
    a = brute[cols].sort_values(cols).reset_index(drop=True)
    b = ivf[cols].sort_values(cols).reset_index(drop=True)
    assert a.equals(b)


def test_split_and_sample_deterministic_and_oracled(ray_session, sf_dir):
    import duckdb

    from jsonld_js_ray.pipelines.training_data import (
        q_sample_docs, q_split_assign,
    )
    from jsonld_js_ray.stages.text import SAMPLE_DOCS_SQL, SPLIT_ASSIGN_SQL

    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"'{sf_dir}/documents.parquet'")
    for q, sql in ((q_split_assign, SPLIT_ASSIGN_SQL),
                   (q_sample_docs, SAMPLE_DOCS_SQL)):
        mine = q(sf_dir).to_pandas()
        again = q(sf_dir).to_pandas()
        assert mine.sort_values(list(mine.columns)).reset_index(drop=True) \
            .equals(again.sort_values(list(mine.columns))
                    .reset_index(drop=True))     # reproducible
        orc = con.sql(sql).df()
        cols = sorted(mine.columns)
        a = mine[cols].sort_values(cols).reset_index(drop=True)
        b = orc[cols].sort_values(cols).reset_index(drop=True)
        assert a.equals(b.astype(a.dtypes.to_dict()))
    # split proportions roughly honored
    sp = q_split_assign(sf_dir).to_pandas()
    frac = (sp["split"] == "train").mean()
    assert 0.8 < frac < 0.97


def test_distributed_cluster_labeling_equals_union_find(ray_session,
                                                        sf_dir):
    """The propagation-based labeling must produce exactly the clusters
    the driver union-find produces (planted corpus: known clusters)."""
    import ray.data as rd

    from jsonld_js_ray.stages.dedup import (
        minhash_lsh_dedup_planted, minhash_lsh_dedup_distributed,
        planted_documents,
    )

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    corpus = planted_documents(docs).materialize()
    uf = minhash_lsh_dedup_planted(docs).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    dist = minhash_lsh_dedup_distributed(corpus, threshold=0.7) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert uf.equals(dist[uf.columns.tolist()])


def test_distributed_labeling_handles_long_chains(ray_session):
    """A 20-hop adjacent-pair chain (diameter > the old 10-round cap)
    must fold to ONE cluster under the default max_rounds=50."""
    import pandas as pd
    import ray.data as rd

    from jsonld_js_ray.stages.dedup import cluster_pairs_distributed

    n = 21
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array([f"doc {i}" for i in range(n)],
                         pa.large_string()),
    }))
    pairs = pd.DataFrame({"a": list(range(n - 1)),
                          "b": list(range(1, n))})
    out = cluster_pairs_distributed(docs, pairs).to_pandas()
    assert set(out["cluster_id"]) == {0}
    assert out[out["keep"]]["doc_id"].tolist() == [0]


def test_adaptive_labeler_threshold_swaps_to_distributed(
        ray_session, sf_dir, monkeypatch):
    """Above DISTRIBUTED_LABELER_PAIRS verified pairs, minhash_lsh_dedup
    must auto-swap to the distributed labeler and still produce the
    exact union-find clusters."""
    import ray.data as rd

    from jsonld_js_ray.stages import dedup

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    corpus = dedup.planted_documents(docs).materialize()
    baseline = dedup.minhash_lsh_dedup(corpus, threshold=0.7) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    monkeypatch.setattr(dedup, "DISTRIBUTED_LABELER_PAIRS", 0)
    swapped = dedup.minhash_lsh_dedup(corpus, threshold=0.7) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert baseline.equals(swapped[baseline.columns.tolist()])


def test_strict_caps_raise_instead_of_truncating(ray_session):
    """Oracle-facing (planted) paths run with strict_caps=True: a
    hot-bucket cap must fail the run loudly, never silently under-merge
    (ADVICE: worker warnings are easy to miss on the driver)."""
    import ray.data as rd

    from jsonld_js_ray.stages import dedup

    # 150 identical docs -> every band bucket holds C(150,2)=11175
    # candidate pairs > MAX_PAIRS_PER_BUCKET=10000 (a real worker-side
    # cap hit: monkeypatching the constant would not reach workers)
    n = 150
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(["one two three four five six"] * n,
                         pa.large_string()),
    }))
    import pytest as _pytest
    with _pytest.raises(Exception, match="strict_caps"):
        dedup.minhash_lsh_dedup(docs, strict_caps=True).to_pandas()
    # non-strict: same corpus completes (warn + truncate); the first
    # 10000 ordered pairs keep the clique connected, so labeling is
    # still exact here
    out = dedup.minhash_lsh_dedup(docs, strict_caps=False).to_pandas()
    assert len(out) == n and set(out["cluster_id"]) == {0}


def test_scrub_pii_masks_in_order(ray_session):
    from jsonld_js_ray.stages.text import scrub_pii_batch

    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            "mail me at alice@example.com or call +1-555-123-4567",
            # email inside a URL must be masked as part of the URL,
            # not double-counted as an email (URL pass runs first)
            "see https://example.com/u/bob@example.com?q=1 now",
            "no pii here at all",
            None,
        ], pa.string()),
    })
    out = scrub_pii_batch(tbl).to_pydict()
    assert out["scrubbed"][0] == "mail me at <EMAIL> or call <PHONE>"
    assert out["n_emails"][0] == 1 and out["n_phones"][0] == 1
    assert out["scrubbed"][1] == "see <URL> now"
    assert out["n_urls"][1] == 1 and out["n_emails"][1] == 0
    assert out["scrubbed"][2] == "no pii here at all"
    assert out["scrubbed"][3] == ""


def test_curation_filter_reasons(ray_session):
    from jsonld_js_ray.stages.text import curation_filter_batch

    richly = ("a rich and varied document with many different useful "
              "words for the reader to enjoy in moderation because the "
              "content keeps introducing novel vocabulary throughout")
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            richly,                                   # ok
            "too few",                                # short
            "der hund und die katze ist auf dem tisch "
            "sowie der vogel und das pferd sind hier",  # lang (de)
            "x x x x x x x x x x x x",                # quality
        ], pa.string()),
    })
    out = curation_filter_batch(tbl).to_pydict()
    assert out["reason"] == ["ok", "short", "lang", "quality"]
    assert out["keep"] == [True, False, False, False]


def test_curation_and_stats_null_text_oracle_parity(ray_session):
    """NULL text must produce IDENTICAL rows from the Arrow kernels and
    the DuckDB oracles (both coalesce to '' -> n_tokens 0 -> 'short')."""
    import duckdb
    import pandas as pd

    from jsonld_js_ray.stages.text import (
        curation_filter_batch,
        curation_filter_sql,
        text_stats_batch,
        TEXT_STATS_SQL,
    )

    tbl = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["the quick brown fox is on the mat", None],
                         pa.string()),
    })
    con = duckdb.connect()
    con.register("documents", tbl)

    eng = curation_filter_batch(tbl).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    sql = con.execute(curation_filter_sql()).fetchdf() \
        .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(eng, sql, check_dtype=False)
    assert sql.loc[1, "reason"] == "short"

    eng_s = text_stats_batch(tbl).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    sql_s = con.execute(TEXT_STATS_SQL).fetchdf() \
        .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(eng_s, sql_s, check_dtype=False)


def test_decontaminate_semantics(ray_session):
    """Benchmark members (doc_id % 97 == 0, >= 8 chars) are never
    'contaminated'; a non-member containing a probe snippet is; n_hits
    carries per-benchmark-doc multiplicity."""
    import ray.data as rd

    from jsonld_js_ray.stages.text import decontaminate

    probe = "this is a benchmark question about the capital of france"
    tbl = pa.table({
        "doc_id": pa.array([0, 97, 194, 291, 5, 6, 7, 8], pa.int64()),
        "text": pa.array([
            probe,                        # bench member
            probe,                        # bench member, SAME snippet
            "short",                      # % 97 == 0 but < 8 chars
            None,                         # % 97 == 0 but null
            "prefix " + probe + " suffix",  # contaminated (hits 2)
            "totally clean document text here",
            probe,                        # contaminated verbatim copy
            "",                           # clean empty
        ], pa.string()),
    })
    out = decontaminate(rd.from_arrow(tbl)).to_pandas() \
        .set_index("doc_id").sort_index()
    assert bool(out.loc[0, "is_benchmark"]) is True
    assert bool(out.loc[97, "is_benchmark"]) is True
    assert bool(out.loc[194, "is_benchmark"]) is False
    assert bool(out.loc[291, "is_benchmark"]) is False
    assert not out.loc[[0, 97], "contaminated"].any()
    # duplicate snippet counts twice (multiplicity contract)
    assert int(out.loc[5, "n_hits"]) == 2
    assert bool(out.loc[5, "contaminated"]) is True
    assert bool(out.loc[7, "contaminated"]) is True
    assert int(out.loc[6, "n_hits"]) == 0
    assert not bool(out.loc[6, "contaminated"])
    assert not bool(out.loc[8, "contaminated"])


def test_decontaminate_oracle_parity_sf(ray_session, sf_dir):
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    mine = E.queries()["decontaminate"](sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"'{sf_dir}/documents.parquet'")
    orc = con.sql(E.oracle_sql()["decontaminate"]).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))
    # the probe set is non-empty at sf0.001 (doc_ids cover 0..499)
    assert a["is_benchmark"].sum() > 0


def test_stratified_sample_semantics(ray_session):
    """Exactly min(K, stratum size) rows per stratum; members are the
    md5-smallest texts; rank is 1-based hash order."""
    import hashlib

    import ray.data as rd

    from jsonld_js_ray.stages.text import STRATIFIED_K, stratified_sample

    rows = []
    did = 0
    for lang in ("en", "fr"):
        for src in ("a", "b"):
            n = 5 if (lang, src) != ("fr", "b") else 2
            for i in range(n):
                rows.append((did, f"{lang} {src} document {i}", lang, src))
                did += 1
    tbl = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
        "lang": pa.array([r[2] for r in rows], pa.string()),
        "source": pa.array([r[3] for r in rows], pa.string()),
    })
    out = stratified_sample(rd.from_arrow(tbl)).to_pandas()
    sizes = out.groupby(["lang", "source"]).size().to_dict()
    assert sizes == {("en", "a"): 3, ("en", "b"): 3,
                     ("fr", "a"): 3, ("fr", "b"): 2}
    # check one stratum against a hand computation
    en_a = [(hashlib.md5(r[1].encode()).hexdigest(), r[0])
            for r in rows if (r[2], r[3]) == ("en", "a")]
    want = [d for _, d in sorted(en_a)][:STRATIFIED_K]
    got = out[(out.lang == "en") & (out.source == "a")] \
        .sort_values("stratum_rank")["doc_id"].tolist()
    assert got == want


def test_stratified_sample_oracle_parity_sf(ray_session, sf_dir):
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    mine = E.queries()["stratified_sample"](sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"'{sf_dir}/documents.parquet'")
    orc = con.sql(E.oracle_sql()["stratified_sample"]).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))


def test_tfidf_topk_semantics(ray_session):
    """A term appearing in fewer docs outranks a same-tf common term;
    rank order is tf/df desc, token asc."""
    import ray.data as rd

    from jsonld_js_ray.stages.tfidf import tfidf_topk

    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([
            "apple apple banana common",
            "banana common",
            "common common cherry",
        ], pa.string()),
    })
    out = tfidf_topk(rd.from_arrow(tbl)).to_pandas()
    d0 = out[out.doc_id == 0].sort_values("term_rank")
    # doc 0: apple tf=2 df=1 (key 2e12) > banana tf=1 df=2 (5e11)
    #        > common tf=1 df=3 (3.33e11)
    assert d0["token"].tolist() == ["apple", "banana", "common"]
    assert d0["tf"].tolist() == [2, 1, 1]
    assert d0["df"].tolist() == [1, 2, 3]
    d2 = out[out.doc_id == 2].sort_values("term_rank")
    # doc 2: cherry tf=1 df=1 (1e12) > common tf=2 df=3 (6.66e11)
    assert d2["token"].tolist() == ["cherry", "common"]


def test_tfidf_topk_oracle_parity_sf(ray_session, sf_dir):
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    mine = E.queries()["tfidf_topk"](sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"'{sf_dir}/documents.parquet'")
    orc = con.sql(E.oracle_sql()["tfidf_topk"]).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))


def test_inverted_index_semantics(ray_session):
    import ray.data as rd

    from jsonld_js_ray.stages.tfidf import POSTINGS_CAP, inverted_index

    tbl = pa.table({
        "doc_id": pa.array(list(range(40)), pa.int64()),
        "text": pa.array(
            ["common word"] * 40, pa.string()),
    })
    out = inverted_index(rd.from_arrow(tbl)).to_pandas() \
        .set_index("token")
    assert int(out.loc["common", "df"]) == 40          # df exact
    posted = out.loc["common", "postings"].split(",")
    assert len(posted) == POSTINGS_CAP                 # postings capped
    assert posted == [str(i) for i in range(POSTINGS_CAP)]


def test_inverted_index_oracle_parity_sf(ray_session, sf_dir):
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    mine = E.queries()["inverted_index"](sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"'{sf_dir}/documents.parquet'")
    orc = con.sql(E.oracle_sql()["inverted_index"]).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))


def test_repetition_semantics(ray_session):
    from jsonld_js_ray.stages.text import repetition_batch

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array(["a b a b c", "x x x x", "one", None],
                         pa.string()),
    })
    out = repetition_batch(tbl).to_pydict()
    # doc 1: bigrams [ab, ba, ab, bc] -> 4 total, 3 distinct
    assert out["n_bigrams"] == [4, 3, 0, 0]
    assert out["n_distinct_bigrams"] == [3, 1, 0, 0]
    assert out["rep2_u"] == [250000, 666666, 0, 0]
    assert out["n_trigrams"] == [3, 2, 0, 0]
    assert out["n_distinct_trigrams"] == [3, 1, 0, 0]
    assert out["rep3_u"] == [0, 500000, 0, 0]


def test_repetition_cross_doc_boundary(ray_session):
    """Adjacent docs in one batch must not leak grams across rows."""
    from jsonld_js_ray.stages.text import repetition_batch

    tbl = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["p q", "q p q p"], pa.string()),
    })
    out = repetition_batch(tbl).to_pydict()
    assert out["n_bigrams"] == [1, 3]
    assert out["n_distinct_bigrams"] == [1, 2]


def test_repetition_oracle_parity_sf(ray_session, sf_dir):
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    mine = E.queries()["repetition"](sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"'{sf_dir}/documents.parquet'")
    orc = con.sql(E.oracle_sql()["repetition"]).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))


def test_stratified_sample_null_strata(ray_session):
    """NULL lang/source is a real stratum on BOTH sides (SQL PARTITION
    BY groups NULLs; the engine must not drop them)."""
    import duckdb
    import pandas as pd
    import ray.data as rd

    from jsonld_js_ray.stages.text import (
        STRATIFIED_SAMPLE_SQL, stratified_sample,
    )

    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
        "text": pa.array([f"doc {i}" for i in range(6)], pa.string()),
        "lang": pa.array(["en", "en", None, None, "en", None],
                         pa.string()),
        "source": pa.array(["a", None, "a", None, "a", "a"],
                           pa.string()),
    })
    out = stratified_sample(rd.from_arrow(tbl)).to_pandas()
    con = duckdb.connect()
    con.register("documents", tbl)
    orc = con.sql(STRATIFIED_SAMPLE_SQL).df()
    cols = sorted(out.columns)
    a = out[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))
    assert len(a) == 6          # every doc survives (all strata <= K)


def test_decontaminate_id_cap(ray_session):
    """doc_ids >= BENCH_ID_CAP are never benchmark members even when
    divisible by BENCH_MOD (bounded probe-set contract)."""
    import ray.data as rd

    from jsonld_js_ray.stages.text import (
        BENCH_ID_CAP, BENCH_MOD, decontaminate,
    )

    big = ((BENCH_ID_CAP // BENCH_MOD) + 7) * BENCH_MOD  # >= cap
    assert big % BENCH_MOD == 0 and big >= BENCH_ID_CAP
    tbl = pa.table({
        "doc_id": pa.array([0, big], pa.int64()),
        "text": pa.array(["benchmark question text here",
                          "unrelated long document body"], pa.string()),
    })
    out = decontaminate(rd.from_arrow(tbl)).to_pandas() \
        .set_index("doc_id")
    assert bool(out.loc[0, "is_benchmark"]) is True
    assert bool(out.loc[big, "is_benchmark"]) is False


def test_corpus_token_quantiles_semantics(ray_session):
    """quantile_disc convention: sorted element at 1-based ceil(p*n)."""
    import ray.data as rd

    from jsonld_js_ray.stages.text import corpus_token_quantiles

    # token counts: 1..10 (one doc each)
    tbl = pa.table({
        "doc_id": pa.array(list(range(10)), pa.int64()),
        "text": pa.array([" ".join(["w"] * (i + 1)) for i in range(10)],
                         pa.string()),
    })
    out = corpus_token_quantiles(rd.from_arrow(tbl)).to_pydict()
    assert out["n_docs"] == [10]
    assert out["p25"] == [3]      # ceil(0.25*10)=3rd smallest
    assert out["p50"] == [5]
    assert out["p90"] == [9]
    assert out["p99"] == [10]


def test_corpus_token_quantiles_oracle_parity_sf(ray_session, sf_dir):
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    mine = E.queries()["corpus_token_quantiles"](sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"'{sf_dir}/documents.parquet'")
    orc = con.sql(E.oracle_sql()["corpus_token_quantiles"]).df()
    cols = sorted(mine.columns)
    a = mine[cols].reset_index(drop=True)
    b = orc[cols].reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))


def test_chunk_docs_semantics(ray_session):
    from jsonld_js_ray.stages.text import (
        CHUNK_STRIDE, CHUNK_TOKENS, chunk_docs_batch,
    )

    toks = [f"t{i}" for i in range(CHUNK_TOKENS + CHUNK_STRIDE + 5)]
    sub = [f"s{i}" for i in range(CHUNK_TOKENS + 5)]  # nt in (C, C+S]
    tbl = pa.table({
        "doc_id": pa.array([7, 8, 9, 10, 11], pa.int64()),
        "text": pa.array([" ".join(toks), "a b", None,
                          " ".join(sub),
                          " ".join(f"u{i}" for i in range(CHUNK_TOKENS))],
                         pa.string()),
    })
    out = chunk_docs_batch(tbl).to_pandas()
    d7 = out[out.doc_id == 7].sort_values("chunk_idx")
    # nt = C+S+5 -> 3 chunks (ceil((nt-C)/S)+1 = 3) at 0, S, 2S
    assert d7["chunk_idx"].tolist() == [0, 1, 2]
    assert d7["n_chunk_tokens"].tolist() == [
        CHUNK_TOKENS,
        min(CHUNK_TOKENS, len(toks) - CHUNK_STRIDE),
        len(toks) - 2 * CHUNK_STRIDE]
    assert d7.iloc[0]["chunk_text"].split(" ") == toks[:CHUNK_TOKENS]
    # overlap: chunk 1 starts at STRIDE
    assert d7.iloc[1]["chunk_text"].split(" ")[0] == toks[CHUNK_STRIDE]
    d8 = out[out.doc_id == 8]
    assert len(d8) == 1 and d8.iloc[0]["chunk_text"] == "a b"
    assert (out.doc_id != 9).all()             # empty doc -> no chunks
    # no trailing chunk that is a subset of its predecessor: a doc with
    # C < nt <= C+S gets exactly 2 chunks, one of exactly C gets 1
    d10 = out[out.doc_id == 10].sort_values("chunk_idx")
    assert d10["chunk_idx"].tolist() == [0, 1]
    assert d10["n_chunk_tokens"].tolist() == [
        CHUNK_TOKENS, len(sub) - CHUNK_STRIDE]
    assert len(out[out.doc_id == 11]) == 1
    # every chunk contributes tokens beyond the previous chunk's end
    for _, g in out.groupby("doc_id"):
        g = g.sort_values("chunk_idx")
        ends = (g["chunk_idx"] * CHUNK_STRIDE + g["n_chunk_tokens"]).tolist()
        assert all(b > a for a, b in zip(ends, ends[1:]))


def test_chunk_docs_oracle_parity_sf(ray_session, sf_dir):
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    mine = E.queries()["chunk_docs"](sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"'{sf_dir}/documents.parquet'")
    orc = con.sql(E.oracle_sql()["chunk_docs"]).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))
    assert len(a) >= 500       # docs have >= 10 tokens, so >= 1 chunk


def test_pack_sequences_semantics_multibucket(ray_session):
    """Docs spread across several doc_id-range buckets, with sequences
    crossing both document AND bucket boundaries — the packed stream
    must equal the plain Python concat-and-chop."""
    import ray.data as rd

    from jsonld_js_ray.stages.pack import (
        PACK_BUCKET_DOCS, SEQ_LEN, pack_sequences,
    )

    rng = np.random.default_rng(7)
    # doc_ids span 3 buckets; lengths are coprime-ish with SEQ_LEN so
    # pieces land mid-sequence; one empty and one whitespace-only doc
    ids = [1, 3, PACK_BUCKET_DOCS + 2, PACK_BUCKET_DOCS + 9,
           3 * PACK_BUCKET_DOCS + 1, 3 * PACK_BUCKET_DOCS + 5]
    texts = []
    for i, d in enumerate(ids):
        nt = int(rng.integers(SEQ_LEN // 3, 3 * SEQ_LEN))
        texts.append(" ".join(f"d{d}w{j}" for j in range(nt)))
    ids += [2, PACK_BUCKET_DOCS + 3]
    texts += ["", "   "]
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()),
                    "text": pa.array(texts, pa.string())})
    out = pack_sequences(rd.from_arrow(tbl)).to_pandas() \
        .sort_values("seq_id").reset_index(drop=True)

    stream: list[str] = []
    for d, t in sorted(zip(ids, texts)):
        stream.extend(t.lower().split())
    want = [stream[i:i + SEQ_LEN] for i in range(0, len(stream), SEQ_LEN)]
    assert out["seq_id"].tolist() == list(range(len(want)))
    assert out["n_tokens"].tolist() == [len(w) for w in want]
    assert out["seq_text"].tolist() == [" ".join(w) for w in want]


def test_pack_sequences_oracle_parity_sf(ray_session, sf_dir):
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    from jsonld_js_ray.stages.pack import SEQ_LEN

    mine = E.queries()["pack_sequences"](sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"'{sf_dir}/documents.parquet'")
    orc = con.sql(E.oracle_sql()["pack_sequences"]).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))
    # every sequence but the highest-seq_id tail is exactly full
    body = a[a["seq_id"] < a["seq_id"].max()]
    assert (body["n_tokens"] == SEQ_LEN).all()


def test_top_bigrams_semantics(ray_session):
    import ray.data as rd

    from jsonld_js_ray.stages.ngrams import top_bigrams

    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            "a b a b a b",      # (a,b) x3, (b,a) x2
            "a b c",            # (a,b), (b,c)
            "c",                # no bigrams
            None,
        ], pa.string()),
    })
    out = top_bigrams(rd.from_arrow(tbl), k=3).to_pandas()
    rows = list(out.itertuples(index=False, name=None))
    assert rows == [("a", "b", 4), ("b", "a", 2), ("b", "c", 1)]


def test_top_bigrams_oracle_parity_sf(ray_session, sf_dir):
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    mine = E.queries()["top_bigrams"](sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"'{sf_dir}/documents.parquet'")
    orc = con.sql(E.oracle_sql()["top_bigrams"]).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))
    assert len(a) == 50


def test_length_outlier_filter_semantics(ray_session):
    import ray.data as rd

    from jsonld_js_ray.stages.text import length_outlier_filter

    # nt = [1, 10, 10, 10, 100]: p25 = sorted[ceil(.25*5)=2] = 10,
    # p99 = sorted[5] = 100 -> band [10, 100] keeps 4 docs
    tbl = pa.table({
        "doc_id": pa.array(range(5), pa.int64()),
        "text": pa.array([
            "x", " ".join(["w"] * 10), " ".join(["w"] * 10),
            " ".join(["w"] * 10), " ".join(["w"] * 100),
        ], pa.string()),
    })
    out = length_outlier_filter(rd.from_arrow(tbl)).to_pandas()
    assert sorted(out["doc_id"]) == [1, 2, 3, 4]
    assert set(out["n_tokens"]) == {10, 100}


def test_length_outlier_filter_oracle_parity_sf(ray_session, sf_dir):
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    mine = E.queries()["length_outlier_filter"](sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"'{sf_dir}/documents.parquet'")
    orc = con.sql(E.oracle_sql()["length_outlier_filter"]).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))
    assert 0 < len(a) < 500    # a real band: keeps most, drops some


def test_scan_operators_empty_corpus(ray_session):
    """Zero-row corpora must produce empty results, not KeyError on the
    column-less empty aggregate (regression)."""
    import ray.data as rd

    from jsonld_js_ray.stages.pack import pack_sequences
    from jsonld_js_ray.stages.text import (
        corpus_token_quantiles, length_outlier_filter,
    )

    empty = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
    }))
    assert pack_sequences(empty).count() == 0
    q = corpus_token_quantiles(empty).to_pydict()
    assert q["n_docs"] == [0] and q["p50"] == [None]
    assert length_outlier_filter(empty).count() == 0


def test_top_bigrams_k_above_default(ray_session):
    """k > the module default must not be silently truncated per
    bucket (regression)."""
    import ray.data as rd

    from jsonld_js_ray.stages.ngrams import TOP_BIGRAMS_K, top_bigrams

    from collections import Counter

    n = TOP_BIGRAMS_K + 20
    texts = [" ".join([f"a{i} b{i}"] * (i + 1)) for i in range(n)]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))
    k = 2 * n - 10          # above the per-bucket default cap
    out = top_bigrams(ds, k=k).to_pandas()
    cnt: Counter = Counter()
    for t in texts:
        toks = t.split()
        cnt.update(zip(toks, toks[1:]))
    want = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    got = [((r.w1, r.w2), r.cnt) for r in out.itertuples()]
    assert got == want


def test_lm_unigram_score_semantics(ray_session):
    import ray.data as rd

    from jsonld_js_ray.stages.tfidf import LM_SCALE, lm_unigram_score

    # corpus: 'a' x3 total, 'b' x2, 'z' x1
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["a a b", "a b", "z"], pa.string()),
    })
    out = lm_unigram_score(rd.from_arrow(tbl)).to_pandas() \
        .set_index("doc_id")
    # doc0: (2*3 + 1*2) / 3, doc1: (3 + 2) / 2, doc2: 1/1
    assert out.loc[0, "lm_score"] == 8 * LM_SCALE // 3
    assert out.loc[1, "lm_score"] == 5 * LM_SCALE // 2
    assert out.loc[2, "lm_score"] == 1 * LM_SCALE
    # common-token doc scores above the rare-token doc
    assert out.loc[0, "lm_score"] > out.loc[2, "lm_score"]


def test_lm_unigram_score_oracle_parity_sf(ray_session, sf_dir):
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    mine = E.queries()["lm_unigram_score"](sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"'{sf_dir}/documents.parquet'")
    orc = con.sql(E.oracle_sql()["lm_unigram_score"]).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))
    assert len(a) == 500


def test_pagerank_semantics_tiny_graph(ray_session):
    """3-node cycle + a hub: the distributed integer PageRank must
    equal the plain-Python reference of the same integer recurrence."""
    import ray.data as rd

    from jsonld_js_ray.stages.graph import (
        PR_BASE, PR_ITERS, PR_SCALE, pagerank_quads,
    )

    edges = [("a", "b"), ("b", "c"), ("c", "a"),
             ("a", "hub"), ("b", "hub"), ("c", "hub"),
             ("a", "b")]          # duplicate must collapse
    quads = pa.table({
        "subj": pa.array([e[0] for e in edges], pa.string()),
        "obj_kind": pa.array(["iri"] * len(edges), pa.string()),
        "obj_value": pa.array([e[1] for e in edges], pa.string()),
    })
    out = pagerank_quads(rd.from_arrow(quads)).to_pandas() \
        .set_index("node")["pagerank"].to_dict()

    dedup = sorted(set(edges))
    nodes = sorted({u for u, _ in dedup} | {v for _, v in dedup})
    deg = {u: sum(1 for s, _ in dedup if s == u) for u in nodes}
    score = {u: PR_SCALE for u in nodes}
    for _ in range(PR_ITERS):
        nxt = {}
        for v in nodes:
            insum = sum(score[u] // deg[u] for u, w in dedup if w == v)
            nxt[v] = PR_BASE + (85 * insum) // 100
        score = nxt
    assert out == score
    assert out["hub"] > out["a"]          # 3 in-edges beats 1


def test_pagerank_oracle_parity_sf(ray_session, sf_dir):
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    mine = E.queries()["kg_pagerank"](sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM "
            f"'{sf_dir}/events.parquet'")
    orc = con.sql(E.oracle_sql()["kg_pagerank"]).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))
    assert len(a) > 100


def test_mix_sources_semantics(ray_session):
    """Weight-0 sources vanish; integer-epoch expansion: every doc of a
    weight-w source appears floor(w/1000) or floor(w/1000)+1 times with
    epochs 0..rep-1; the extra-epoch decision is md5-prefix32 % 1000."""
    import hashlib

    import ray.data as rd

    from jsonld_js_ray.stages.text import mix_sources

    texts = [f"doc number {i} body" for i in range(40)]
    srcs = (["src0"] * 10        # wt 0    -> dropped
            + ["src1"] * 10      # wt 600  -> 0 or 1 copies
            + ["src2"] * 10      # wt 1200 -> 1 or 2 copies
            + ["src4"] * 10)     # wt 2400 -> 2 or 3 copies
    tbl = pa.table({
        "doc_id": pa.array(range(40), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "source": pa.array(srcs, pa.string()),
    })
    out = mix_sources(rd.from_arrow(tbl)).to_pandas()
    assert "src0" not in set(out.source)
    reps = out.groupby("doc_id").size()
    for did, rep in reps.items():
        wt = 600 * (int(srcs[did][3:]) % 5)
        h32 = int(hashlib.md5(texts[did].encode()).hexdigest()[:8], 16)
        want = wt // 1000 + (1 if h32 % 1000 < wt % 1000 else 0)
        assert rep == want
        got_ep = sorted(out[out.doc_id == did].epoch.tolist())
        assert got_ep == list(range(rep))
    # src1 docs never repeat; src4 docs always appear at least twice
    assert reps[[d for d in reps.index if srcs[d] == "src1"]].max() == 1
    assert reps[[d for d in reps.index if srcs[d] == "src4"]].min() >= 2


def test_mix_sources_oracle_parity_sf(ray_session, sf_dir):
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    mine = E.queries()["mix_sources"](sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"'{sf_dir}/documents.parquet'")
    orc = con.sql(E.oracle_sql()["mix_sources"]).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))
    assert len(a) > len(a.doc_id.unique())   # some docs multi-epoch


def _mini_quads(edges, literals=()):
    """Synthetic quad table with only the columns triangle/pagerank
    extraction reads (subj, obj_kind, obj_value)."""
    subj = [s for s, _ in edges] + [s for s, _ in literals]
    objv = [o for _, o in edges] + [o for _, o in literals]
    kind = ["iri"] * len(edges) + ["literal"] * len(literals)
    return pa.table({
        "subj": pa.array(subj, pa.string()),
        "obj_kind": pa.array(kind, pa.string()),
        "obj_value": pa.array(objv, pa.string()),
    })


def test_triangle_stats_semantics(ray_session):
    """K4 plus a pendant triangle: reversed duplicates collapse to one
    undirected edge, self-loops and literals are ignored, and the count
    matches a brute-force enumeration."""
    import itertools

    import ray.data as rd

    from jsonld_js_ray.stages.graph import triangle_stats

    edges = [
        # K4 on A,B,C,D (one edge also present reversed -> must dedup)
        ("A", "B"), ("B", "A"), ("A", "C"), ("A", "D"),
        ("B", "C"), ("B", "D"), ("C", "D"),
        # pendant triangle E-A-B
        ("E", "A"), ("E", "B"),
        # noise: self-loop, a path that closes nothing
        ("F", "F"), ("F", "G"), ("G", "H"),
    ]
    tbl = _mini_quads(edges, literals=[("A", "a literal value")])
    out = triangle_stats(rd.from_arrow(tbl)).to_pydict()

    und = {tuple(sorted(e)) for e in edges if e[0] != e[1]}
    nodes = {n for e in und for n in e}
    brute = sum(1 for a, b, c in itertools.combinations(sorted(nodes), 3)
                if {(a, b), (a, c), (b, c)} <= und)
    assert out["n_nodes"] == [len(nodes)]
    assert out["n_edges"] == [len(und)]
    assert out["n_triangles"] == [brute]
    assert brute == 5          # 4 in K4 + EAB


def test_triangle_stats_oracle_parity_sf(ray_session, sf_dir):
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    mine = E.queries()["kg_triangles"](sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM "
            f"'{sf_dir}/events.parquet'")
    orc = con.sql(E.oracle_sql()["kg_triangles"]).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))
    assert int(a.n_edges.iloc[0]) > 1000


def test_triangle_stats_empty_graph(ray_session):
    """No IRI edges at all -> all-zero stats, no crash."""
    import ray.data as rd

    from jsonld_js_ray.stages.graph import triangle_stats

    tbl = _mini_quads([], literals=[("A", "x"), ("B", "y")])
    out = triangle_stats(rd.from_arrow(tbl)).to_pydict()
    assert out == {"n_nodes": [0], "n_edges": [0], "n_triangles": [0]}


def test_decontaminate_ngram_semantics(ray_session):
    """Planted overlap: doc 97 is a benchmark member; a candidate
    embedding one of its 5-token windows is contaminated with the
    exact distinct-shared-gram count; near-misses (4-token overlap)
    are clean; benchmark members report 0."""
    import ray.data as rd

    from jsonld_js_ray.stages.ngrams import DECON_N, decontaminate_ngram

    assert DECON_N == 5
    bench_text = "alpha beta gamma delta epsilon zeta eta"
    rows = {
        97: bench_text,                       # benchmark (97 % 97 == 0)
        1: "xx alpha beta gamma delta epsilon yy",   # 1 shared 5-gram
        2: "beta gamma delta epsilon zeta eta tail", # 2 shared 5-grams
        3: "alpha beta gamma delta zz",       # only 4 consecutive: clean
        4: "unrelated words entirely here now ok",   # clean
        194: "alpha beta gamma delta epsilon",       # benchmark too
    }
    tbl = pa.table({
        "doc_id": pa.array(list(rows), pa.int64()),
        "text": pa.array(list(rows.values()), pa.string()),
    })
    out = decontaminate_ngram(rd.from_arrow(tbl)).to_pandas() \
        .set_index("doc_id").sort_index()
    assert out.loc[97, "is_benchmark"] and out.loc[194, "is_benchmark"]
    assert out.loc[97, "n_shared_grams"] == 0
    assert not out.loc[97, "contaminated"]
    assert out.loc[1, "n_shared_grams"] == 1 and out.loc[1, "contaminated"]
    assert out.loc[2, "n_shared_grams"] == 2 and out.loc[2, "contaminated"]
    assert out.loc[3, "n_shared_grams"] == 0 and not out.loc[3, "contaminated"]
    assert out.loc[4, "n_shared_grams"] == 0
    assert len(out) == len(rows)


def test_decontaminate_ngram_oracle_parity_sf(ray_session, sf_dir):
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    mine = E.queries()["decontaminate_ngram"](sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"'{sf_dir}/documents.parquet'")
    orc = con.sql(E.oracle_sql()["decontaminate_ngram"]).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))


def _emb_table(mat, ids=None):
    ids = list(range(len(mat))) if ids is None else ids
    return pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in mat],
                              pa.list_(pa.float32())),
    })


def test_kmeans_fit_matches_numpy_reference(ray_session):
    """Distributed Lloyd == in-memory spherical Lloyd with the same
    init (first-k by vec_id), iteration count and update rule."""
    import ray.data as rd

    from jsonld_js_ray.stages.cluster import KM_ITERS, kmeans_fit

    rng = np.random.RandomState(7)
    mat = rng.standard_normal((200, 16)).astype(np.float32)
    out = kmeans_fit(rd.from_arrow(_emb_table(mat)), k=4)

    ref = mat.astype(np.float64)
    ref = ref / np.linalg.norm(ref, axis=1, keepdims=True)
    cents = ref[:4].copy()
    for _ in range(KM_ITERS):
        assign = np.argmax(ref @ cents.T, axis=1)
        for c in range(4):
            m = ref[assign == c]
            if len(m):
                v = m.sum(axis=0)
                if np.linalg.norm(v) > 1e-12:
                    cents[c] = v / np.linalg.norm(v)
    assert np.allclose(out, cents, atol=1e-9)


def test_semdedup_drops_planted_copies(ray_session):
    """Exact copies land in one cluster and every copy after the first
    (by vec_id) is dropped; unrelated orthogonal-ish vectors keep."""
    import ray.data as rd

    from jsonld_js_ray.stages.cluster import semdedup

    rng = np.random.RandomState(11)
    base = rng.standard_normal((30, 16)).astype(np.float32)
    # plant: rows 20 and 25 are exact copies of row 3; row 28 copies 7
    base[20] = base[3]
    base[25] = base[3]
    base[28] = base[7]
    out = semdedup(rd.from_arrow(_emb_table(base)), centroids=None) \
        .to_pandas().set_index("vec_id")
    assert bool(out.loc[3, "keep"]) and not bool(out.loc[20, "keep"])
    assert not bool(out.loc[25, "keep"]) and not bool(out.loc[28, "keep"])
    assert bool(out.loc[7, "keep"])
    assert out.loc[20, "cluster"] == out.loc[3, "cluster"]


def test_cluster_queries_match_oracle_sf(ray_session, sf_dir):
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    con = duckdb.connect()
    con.sql(f"CREATE VIEW embeddings AS SELECT * FROM "
            f"'{sf_dir}/embeddings.parquet'")
    for name in ("kmeans_assign", "semdedup"):
        mine = E.queries()[name](sf_dir).to_pandas()
        orc = con.sql(E.oracle_sql()[name]).df()
        cols = sorted(mine.columns)
        a = mine[cols].sort_values(cols).reset_index(drop=True)
        b = orc[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))


def test_cluster_empty_corpus(ray_session):
    """Empty embeddings -> empty typed outputs / (0,0) centroids, no
    crash; non-empty corpus with no vec_id < k raises clearly."""
    import pytest
    import ray.data as rd

    from jsonld_js_ray.stages.cluster import (
        kmeans_assign, kmeans_fit, semdedup,
    )

    empty = _emb_table(np.zeros((0, 4)))
    assert kmeans_assign(rd.from_arrow(empty)).count() == 0
    assert semdedup(rd.from_arrow(empty)).count() == 0
    assert kmeans_fit(rd.from_arrow(empty)).size == 0

    high_ids = _emb_table(np.eye(3, dtype=np.float32),
                          ids=[100, 101, 102])
    with pytest.raises(ValueError, match="vec_id"):
        kmeans_assign(rd.from_arrow(high_ids)).count()


def test_kmeans_assign_argmax_margin_sf(ray_session, sf_dir):
    """The best-vs-second-best centroid score gap stays far above f32
    noise, so the numpy and DuckDB argmax rank identically (the
    assumption behind the exact oracle)."""
    import pyarrow.parquet as pq

    mat = np.stack(
        pq.read_table(f"{sf_dir}/embeddings.parquet")["embedding"]
        .to_numpy(zero_copy_only=False)).astype(np.float64)
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = np.sort(mat @ mat[:8].T, axis=1)
    margin = float((sims[:, -1] - sims[:, -2]).min())
    assert margin > 1e-5, margin


def test_components_semantics(ray_session):
    """Three components get three labels (each the min node string);
    a path longer than LP_ITERS hops pins the R-hop semantics: nodes
    farther than LP_ITERS from the min keep a larger label."""
    import ray.data as rd

    from jsonld_js_ray.stages.graph import LP_ITERS, components_quads

    assert LP_ITERS == 4
    edges = [
        ("B", "A"), ("B", "C"), ("C", "D"),          # comp 1: min A
        ("X", "Y"), ("Y", "Z"),                      # comp 2: min X
        # comp 3: a 6-hop path from the min label "a0":
        # a0 - p1 - p2 - p3 - p4 - p5 - p6
        ("a0", "p1"), ("p1", "p2"), ("p2", "p3"),
        ("p3", "p4"), ("p4", "p5"), ("p5", "p6"),
    ]
    tbl = _mini_quads(edges)
    out = components_quads(rd.from_arrow(tbl)).to_pandas() \
        .set_index("node")["component"]
    assert set(out[["A", "B", "C", "D"]]) == {"A"}
    assert set(out[["X", "Y", "Z"]]) == {"X"}
    # within 4 hops of a0 -> labeled a0
    assert set(out[["a0", "p1", "p2", "p3", "p4"]]) == {"a0"}
    # p5 is 5 hops out: after 4 rounds its label is the min within
    # 4 hops of p5 = min(p1..p6, a0 is 5 away) = "p1"; p6 likewise
    assert out["p5"] == "p1" and out["p6"] == "p2"


def test_components_oracle_parity_sf(ray_session, sf_dir):
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    mine = E.queries()["kg_components"](sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM "
            f"'{sf_dir}/events.parquet'")
    orc = con.sql(E.oracle_sql()["kg_components"]).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))
    assert len(a) > 1000


def test_pq_encode_semantics(ray_session):
    """A vector equal to codebook entry j's slice in every subspace
    encodes as (j, j, .., j); codes always index the true nearest
    sub-slice under L2 (checked brute-force)."""
    import ray.data as rd

    from jsonld_js_ray.stages.cluster import PQ_K, PQ_S, pq_encode

    rng = np.random.RandomState(5)
    mat = rng.standard_normal((40, 16)).astype(np.float32)
    mat[17] = mat[3]              # exact copy of codebook entry 3
    out = pq_encode(rd.from_arrow(_emb_table(mat))).to_pandas() \
        .set_index("vec_id").sort_index()
    dsub = 16 // PQ_S
    assert list(out.loc[17]) == list(out.loc[3])
    for i in range(PQ_K):         # codebook rows self-encode
        assert list(out.loc[i]) == [i] * PQ_S
    # brute-force check every row
    m64 = mat.astype(np.float64)
    for vid in range(len(mat)):
        for s in range(PQ_S):
            x = m64[vid, s * dsub:(s + 1) * dsub]
            C = m64[:PQ_K, s * dsub:(s + 1) * dsub]
            want = int(np.argmin(((C - x) ** 2).sum(axis=1)))
            assert out.loc[vid, f"c{s}"] == want


def test_pq_encode_oracle_parity_sf(ray_session, sf_dir):
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    mine = E.queries()["pq_encode"](sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW embeddings AS SELECT * FROM "
            f"'{sf_dir}/embeddings.parquet'")
    orc = con.sql(E.oracle_sql()["pq_encode"]).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))


def test_funnel_and_degree_hist_oracle_parity_sf(ray_session, sf_dir):
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM "
            f"'{sf_dir}/events.parquet'")
    for name in ("kg_degree_hist",):
        mine = E.queries()[name](sf_dir).to_pandas()
        orc = con.sql(E.oracle_sql()[name]).df()
        cols = sorted(mine.columns)
        a = mine[cols].sort_values(cols).reset_index(drop=True)
        b = orc[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))


def test_pq_codebooks_partial_corpus_clear_error(ray_session):
    """1..k-1 vectors under the id cap -> a clear error, not an
    obscure reshape crash; empty batches pass through _batch_matrix."""
    import pytest
    import ray.data as rd

    from jsonld_js_ray.stages.cluster import _batch_matrix, pq_codebooks

    small = _emb_table(np.eye(5, 16, dtype=np.float32))
    with pytest.raises(ValueError, match="exactly"):
        pq_codebooks(rd.from_arrow(small))

    ids, vecs = _batch_matrix(_emb_table(np.zeros((0, 16))))
    assert len(ids) == 0 and vecs.size == 0


def test_knn_pq_recall_and_exhaustive_equality(ray_session, sf_dir):
    """Default ADC shortlist keeps recall@10 high vs brute; an
    exhaustive shortlist is candidate-identical to knn_brute (the
    construction behind the oracle registration)."""
    import ray.data as rd

    from jsonld_js_ray.stages.similarity import knn_brute, knn_pq

    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    brute = knn_brute(emb).to_pandas()
    approx = knn_pq(emb).to_pandas()
    hits = approx.merge(brute, on=["query_id", "vec_id"])
    assert len(hits) / len(brute) >= 0.8

    exhaustive = knn_pq(emb, shortlist=10 ** 9).to_pandas()
    cols = ["query_id", "rank", "vec_id"]
    a = exhaustive[cols].sort_values(cols).reset_index(drop=True)
    b = brute[cols].sort_values(cols).reset_index(drop=True)
    assert a.equals(b)

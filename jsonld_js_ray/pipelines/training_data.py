"""Training-data pipeline entry points over the documents table.

Thin wrappers tying the dedup / text stages to ``sf_dir`` inputs for
``__ray_entry__.queries()`` and ``bench.py``.
"""

from __future__ import annotations


from ..rayutil import strip_meta as _strip_meta


def _docs(sf_dir: str):
    import ray.data as rd

    # NO batch_size here, deliberately: it would also be a SLICING
    # target at real scale (Ray cuts large blocks into batch_size-row
    # UDF calls and re-assembles chunked output blocks), and the safe
    # bundling floor for docs is only 256 (the banding stages' batch
    # size) — measured toy-scale gain at that floor was marginal, so
    # the default whole-block pass wins on both ends
    return rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(_strip_meta, batch_format="pyarrow",
                  zero_copy_batch=True)


def q_dedup_exact(sf_dir: str):
    from ..stages.dedup import exact_dedup

    return exact_dedup(_docs(sf_dir))


def q_dedup_minhash(sf_dir: str):
    from ..stages.dedup import minhash_lsh_dedup

    return minhash_lsh_dedup(_docs(sf_dir))


def q_dedup_simhash(sf_dir: str):
    from ..stages.dedup import simhash_dedup

    return simhash_dedup(_docs(sf_dir))


def q_text_stats(sf_dir: str):
    from ..stages.text import text_stats_batch

    return _docs(sf_dir).map_batches(
        text_stats_batch, batch_format="pyarrow", batch_size=8192)


def q_lang_id(sf_dir: str):
    from ..stages.text import lang_id_batch

    return _docs(sf_dir).map_batches(
        lang_id_batch, batch_format="pyarrow", batch_size=8192)


def q_quality(sf_dir: str):
    from ..stages.text import quality_score_batch

    return _docs(sf_dir).map_batches(
        quality_score_batch, batch_format="pyarrow", batch_size=8192)


def q_scrub_pii(sf_dir: str):
    from ..stages.text import scrub_pii_batch

    return _docs(sf_dir).map_batches(
        scrub_pii_batch, batch_format="pyarrow", batch_size=8192)


def q_normalize_text(sf_dir: str):
    from ..stages.text import normalize_text_batch

    return _docs(sf_dir).map_batches(
        normalize_text_batch, batch_format="pyarrow", batch_size=8192)


def q_curation_filter(sf_dir: str):
    from ..stages.text import curation_filter_batch

    return _docs(sf_dir).map_batches(
        curation_filter_batch, batch_format="pyarrow", batch_size=8192)


def q_stratified_sample(sf_dir: str):
    import ray.data as rd

    from ..stages.text import stratified_sample

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "source"],
    ).map_batches(_strip_meta, batch_format="pyarrow",
                  zero_copy_batch=True)
    return stratified_sample(docs)


def q_mix_sources(sf_dir: str):
    import ray.data as rd

    from ..stages.text import mix_sources

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "source"],
    ).map_batches(_strip_meta, batch_format="pyarrow",
                  zero_copy_batch=True)
    return mix_sources(docs)


def q_chunk_docs(sf_dir: str):
    from ..stages.text import chunk_docs_batch

    return _docs(sf_dir).map_batches(
        chunk_docs_batch, batch_format="pyarrow", batch_size=4096)


def q_corpus_token_quantiles(sf_dir: str):
    import ray.data as rd

    from ..stages.text import corpus_token_quantiles

    # wrap: every queries() entry returns a Dataset (registry contract)
    return rd.from_arrow(corpus_token_quantiles(_docs(sf_dir)))


def q_length_outlier_filter(sf_dir: str):
    from ..stages.text import length_outlier_filter

    return length_outlier_filter(_docs(sf_dir))


def q_repetition(sf_dir: str):
    from ..stages.text import repetition_batch

    return _docs(sf_dir).map_batches(
        repetition_batch, batch_format="pyarrow", batch_size=8192)


def q_decontaminate(sf_dir: str):
    from ..stages.text import decontaminate

    return decontaminate(_docs(sf_dir))


def q_fingerprint(sf_dir: str):
    from ..stages.text import fingerprint_batch

    return _docs(sf_dir).map_batches(
        fingerprint_batch, batch_format="pyarrow", batch_size=1024)


def bench_queries():
    """name → fn(sf_dir) executing (count) a training-data pipeline."""
    def run(fn):
        return lambda sf: fn(sf).count()

    return {
        "dedup_exact": run(q_dedup_exact),
        "dedup_minhash": run(q_dedup_minhash),
        "dedup_ngram": run(q_dedup_ngram),
        "dedup_simhash": run(q_dedup_simhash),
        "dedup_minhash_planted": run(q_dedup_minhash_planted),
        "dedup_ngram_planted": run(q_dedup_ngram_planted),
        "dedup_simhash_planted": run(q_dedup_simhash_planted),
        "text_stats": run(q_text_stats),
        "lang_id": run(q_lang_id),
        "fingerprint": run(q_fingerprint),
        "scrub_pii": run(q_scrub_pii),
        "curation_filter": run(q_curation_filter),
        "decontaminate": run(q_decontaminate),
        "mix_sources": run(q_mix_sources),
        "stratified_sample": run(q_stratified_sample),
        "repetition": run(q_repetition),
        "chunk_docs": run(q_chunk_docs),
        "corpus_token_quantiles": run(q_corpus_token_quantiles),
        "length_outlier_filter": run(q_length_outlier_filter),
        "normalize_text": run(q_normalize_text),
    }


def q_dedup_ngram(sf_dir: str):
    from ..stages.dedup import ngram_jaccard_dedup

    return ngram_jaccard_dedup(_docs(sf_dir))


# ---- in-run exactness certificates for the RAW dedup rows ----------
#
# The raw LSH dedup rows are approximate in CANDIDATE GENERATION only
# (verification is exact), so their exact ground-truth SQL oracles
# (DEDUP_MINHASH_EXACT_SQL / DEDUP_NGRAM_EXACT_SQL / SIMHASH_DEDUP_SQL)
# are valid exactly when candidate recall is 1.0 on the corpus. So
# each checked wrapper verifies that precondition IN-RUN against an
# independent exact referee and raises LOUDLY if it ever breaks, so
# the oracle gate can never silently compare an under-recall result. The text-Jaccard referee is O(n²) pair
# verification, so it runs only below DEDUP_CHECK_MAX_DOCS — sized to
# cover every oracle-gate corpus (sf0.01 = 500 docs); above the bound
# (e.g. bench at sf0.1) the raw pipeline runs uncertified, as before.

DEDUP_CHECK_MAX_DOCS = 2048      # all-pairs text-Jaccard referee bound


def _doc_row_count(sf_dir: str) -> int:
    """O(1) row count from parquet footer metadata — the certify-gate
    check must not cost a full Dataset read (docs.count() executes the
    read+strip pipeline: ~0.5 s of pure overhead per checked query at
    bench scale, where the certificate then doesn't even run)."""
    import pyarrow.parquet as pq

    return pq.ParquetFile(
        f"{sf_dir}/documents.parquet").metadata.num_rows
# the simhash referee is signature-only (8B/doc) and could certify far
# larger corpora, but above gate scale the pipeline is already exact
# BY CONSTRUCTION (pigeonhole-complete banding + chunked, uncapped
# in-bucket verification up to SIMHASH_MAX_BUCKET_MEMBERS) — paying
# O(n²) referee popcounts at bench scale buys nothing
SIMHASH_CHECK_MAX_DOCS = 2048


def _expected_labels(ids, pairs_a, pairs_b):
    """Ground-truth (doc_id, cluster_id, keep) frame from a verified
    referee pair list — the same union-find labeling the engine uses."""
    import pandas as pd

    from ..stages.entity_merge import _UnionFind

    uf = _UnionFind()
    for a, b in zip(pairs_a, pairs_b):
        uf.union(int(a), int(b))
    cmap = uf.cluster_map()
    clusters = [int(cmap.get(int(d), int(d))) for d in ids]
    return pd.DataFrame({
        "doc_id": ids.astype("int64"),
        "cluster_id": pd.array(clusters, dtype="int64"),
        "keep": [c == int(d) for d, c in zip(ids, clusters)],
    })


def _assert_labels_match(got, exp, name: str):
    import pandas as pd

    g = got.sort_values("doc_id").reset_index(drop=True)
    e = exp.sort_values("doc_id").reset_index(drop=True)
    same = (len(g) == len(e)
            and (g["doc_id"].to_numpy() == e["doc_id"].to_numpy()).all()
            and (g["cluster_id"].to_numpy()
                 == e["cluster_id"].to_numpy()).all()
            and (g["keep"].to_numpy() == e["keep"].to_numpy()).all())
    if not same:
        diff = int((g["cluster_id"].to_numpy()
                    != e["cluster_id"].to_numpy()).sum()) \
            if len(g) == len(e) else -1
        raise RuntimeError(
            f"{name} exactness pre-check failed ({diff} label rows "
            f"diverge from the exact referee): the exact SQL oracle "
            f"does not apply at these parameters/corpus — widen "
            f"bands/permutations or drop the oracle")


def _jaccard_referee_labels(docs, ids, kind: str, threshold: float):
    """Deterministic ground truth: EVERY (i < j) id pair verified with
    the engine's exact distributed gram-Jaccard kernel (texts never
    collect on the driver; the id pair list is n²-bounded by
    DEDUP_CHECK_MAX_DOCS)."""
    import numpy as np
    import pandas as pd

    from ..stages.dedup import _verified_pairs

    iu, ju = np.triu_indices(len(ids), k=1)
    srt = np.sort(ids)
    pairs = pd.DataFrame({"a": srt[iu], "b": srt[ju]})
    verified = _verified_pairs(docs, pairs, kind, threshold)
    return _expected_labels(ids, verified.get("a", []),
                            verified.get("b", []))


def q_dedup_minhash_checked(sf_dir: str):
    """minhash_lsh_dedup with the in-run exactness certificate for
    DEDUP_MINHASH_EXACT_SQL (see module comment above)."""
    import ray.data as rd

    from ..stages.dedup import (MINHASH_THRESHOLD, minhash_lsh_dedup)

    docs = _docs(sf_dir)
    # strict caps only in the certified regime: at gate scale a cap
    # truncation must RAISE (it would invalidate the oracle); above
    # the bound the pipeline keeps its documented warn-and-truncate
    certified = _doc_row_count(sf_dir) <= DEDUP_CHECK_MAX_DOCS
    got = minhash_lsh_dedup(docs, strict_caps=certified).to_pandas()
    if certified:
        exp = _jaccard_referee_labels(
            docs, got["doc_id"].to_numpy(), "word", MINHASH_THRESHOLD)
        _assert_labels_match(got, exp, "dedup_minhash")
    return rd.from_pandas(got)


def q_dedup_ngram_checked(sf_dir: str):
    """ngram_jaccard_dedup with the in-run exactness certificate for
    DEDUP_NGRAM_EXACT_SQL."""
    import ray.data as rd

    from ..stages.dedup import NGRAM_THRESHOLD, ngram_jaccard_dedup

    docs = _docs(sf_dir)
    certified = _doc_row_count(sf_dir) <= DEDUP_CHECK_MAX_DOCS
    got = ngram_jaccard_dedup(docs, strict_caps=certified).to_pandas()
    if certified:
        exp = _jaccard_referee_labels(
            docs, got["doc_id"].to_numpy(), "char", NGRAM_THRESHOLD)
        _assert_labels_match(got, exp, "dedup_ngram")
    return rd.from_pandas(got)


def q_dedup_simhash_checked(sf_dir: str):
    """simhash_dedup with the in-run exactness certificate for
    SIMHASH_DEDUP_SQL: the referee is chunked all-pairs Hamming over
    the (doc_id, simhash) signature table — 8 bytes per doc on the
    driver, exact by definition (no LSH involved)."""
    import numpy as np
    import ray.data as rd

    from ..stages.dedup import (SIMHASH_MAX_HAMMING, SimHashStage,
                                simhash_dedup)

    docs = _docs(sf_dir)
    certified = _doc_row_count(sf_dir) <= SIMHASH_CHECK_MAX_DOCS
    got = simhash_dedup(docs, strict_caps=certified).to_pandas()
    if certified:
        sig_tbl = docs.map_batches(
            SimHashStage(), batch_format="pyarrow",
        ).select_columns(["doc_id", "simhash"]).to_pandas()
        sig_tbl = sig_tbl.sort_values("doc_id")
        ids = sig_tbl["doc_id"].to_numpy().astype(np.int64)
        sigs = sig_tbl["simhash"].to_numpy().astype(np.uint64)
        # DELIBERATELY independent of dedup.hamming_pairs (which the
        # engine itself uses in-bucket): the certificate's value is
        # implementation diversity, so the referee keeps its own
        # all-pairs unpackbits popcount — a bug in the shared kernel
        # cannot cancel out here. n is gate-bounded
        # (SIMHASH_CHECK_MAX_DOCS), so the ×64 bit expansion is cheap.
        n = len(ids)
        pa_, pb_ = [], []
        for i0 in range(0, n, 1024):
            x = sigs[i0:i0 + 1024]
            xor = x[:, None] ^ sigs[None, :]
            pop = np.unpackbits(
                xor.view(np.uint8).reshape(len(x), n, 8),
                axis=2).sum(axis=2)
            ii, jj = np.nonzero(pop <= SIMHASH_MAX_HAMMING)
            m = (i0 + ii) < jj          # strict upper triangle
            pa_.append(ids[i0 + ii[m]])
            pb_.append(ids[jj[m]])
        exp = _expected_labels(ids, np.concatenate(pa_ or [[]]),
                               np.concatenate(pb_ or [[]]))
        _assert_labels_match(got, exp, "dedup_simhash")
    return rd.from_pandas(got)


def q_dedup_minhash_planted(sf_dir: str):
    from ..stages.dedup import minhash_lsh_dedup_planted

    return minhash_lsh_dedup_planted(_docs(sf_dir))


def q_dedup_ngram_planted(sf_dir: str):
    from ..stages.dedup import ngram_jaccard_dedup_planted

    return ngram_jaccard_dedup_planted(_docs(sf_dir))


def q_dedup_simhash_planted(sf_dir: str):
    from ..stages.dedup import simhash_dedup_planted

    return simhash_dedup_planted(_docs(sf_dir))


def q_fingerprint_classes_planted(sf_dir: str):
    """Winnowing-fingerprint equality classes on the planted corpus:
    (doc_id, class_id) where class_id = min doc_id sharing the
    fingerprint. Exact copies share it by construction; the interleaved
    doc-unique char makes cross-doc equality impossible."""
    import numpy as np
    import pyarrow as pa

    from ..stages.dedup import planted_documents
    from ..stages.entity_merge import _hashed_strings
    from ..stages.text import fingerprint_batch

    corpus = planted_documents(_docs(sf_dir), include_suffix=False)
    fps = corpus.map_batches(fingerprint_batch, batch_format="pyarrow",
                             batch_size=1024)

    # one uniform shuffle keyed by hash-bucket(fingerprint); the class
    # assignment is a VECTORIZED pandas transform inside each of the
    # NUM_BUCKETS groups — no corpus-sized driver structure
    num_buckets = 64

    def add_bucket(batch: pa.Table) -> pa.Table:
        buckets = (_hashed_strings(batch["fingerprint"].to_pylist())
                   % np.uint64(num_buckets)).astype(np.int32)
        return batch.append_column("bucket",
                                   pa.array(buckets, pa.int32()))

    def per_bucket(g):
        cls = g.groupby("fingerprint")["doc_id"].transform("min")
        return pa.table({
            "doc_id": pa.array(g["doc_id"].astype("int64"), pa.int64()),
            "class_id": pa.array(cls.astype("int64"), pa.int64()),
        })

    return fps.map_batches(add_bucket, batch_format="pyarrow") \
        .groupby("bucket").map_groups(per_bucket, batch_format="pandas")


def q_token_counts(sf_dir: str):
    from ..stages.text import token_counts_batch

    return _docs(sf_dir).map_batches(
        token_counts_batch, batch_format="pyarrow", batch_size=8192)


def q_split_assign(sf_dir: str):
    from ..stages.text import split_assign_batch

    return _docs(sf_dir).map_batches(
        split_assign_batch, batch_format="pyarrow", batch_size=8192)


def q_sample_docs(sf_dir: str):
    from ..stages.text import sample_docs_batch

    return _docs(sf_dir).map_batches(
        sample_docs_batch, batch_format="pyarrow", batch_size=8192)

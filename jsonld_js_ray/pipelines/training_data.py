"""Training-data pipeline entry points over the documents table.

Thin wrappers tying the text stages to ``sf_dir`` inputs for
``__ray_entry__.queries()`` and ``bench.py``.
"""

from __future__ import annotations


from ..rayutil import strip_meta as _strip_meta


def _docs(sf_dir: str):
    import ray.data as rd

    # NO batch_size here, deliberately: it would also be a SLICING
    # target at real scale (Ray cuts large blocks into batch_size-row
    # UDF calls and re-assembles chunked output blocks), so the default
    # whole-block pass wins
    return rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(_strip_meta, batch_format="pyarrow",
                  zero_copy_batch=True)


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


def bench_queries():
    """name → fn(sf_dir) executing (count) a training-data pipeline."""
    def run(fn):
        return lambda sf: fn(sf).count()

    return {
        "text_stats": run(q_text_stats),
        "lang_id": run(q_lang_id),
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

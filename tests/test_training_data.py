"""Tests for the text-analysis stages (plus some graph stages): small
hand-built tables for the edge cases, and DuckDB oracle parity on the
sf tables."""

from __future__ import annotations

import pyarrow as pa


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

    from jsonld_js_ray.stages.text import quality_score_batch

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

    from jsonld_js_ray.stages.text import (
        corpus_token_quantiles, length_outlier_filter,
    )

    empty = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
    }))
    q = corpus_token_quantiles(empty).to_pydict()
    assert q["n_docs"] == [0] and q["p50"] == [None]
    assert length_outlier_filter(empty).count() == 0


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

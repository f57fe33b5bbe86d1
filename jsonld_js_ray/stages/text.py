"""Text analysis over the ``documents`` table: token counting, quality
stats, language-ID (stopword n-gram heuristic), curation filters.

Hot paths are vectorized: tokenization via pyarrow ``split_pattern`` +
list kernels, per-language stopword hits via flattened ``is_in`` +
``np.bincount`` on parent indices — no per-row Python in the common case.

Integer outputs (counts, argmax labels) are oracle-checked against DuckDB
SQL mirrors; float scores are separate rows-only queries (float bit
equality across engines is not contract-able).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .groupkit import quantile_disc_pos

TOKEN_SPLIT = r"\s+"

STOPWORDS = {
    "en": ["the", "a", "and", "of", "to", "in", "is", "on", "for", "with"],
    "de": ["der", "die", "das", "und", "ein", "zu", "mit", "von", "ist",
           "auf"],
    "fr": ["le", "la", "les", "et", "un", "une", "de", "est", "pour",
           "avec"],
    "es": ["el", "la", "los", "y", "un", "una", "de", "es", "para", "con"],
}
LANG_PRIORITY = ["en", "de", "fr", "es"]   # deterministic tie-break order


def _token_lists(texts: pa.Array) -> pa.Array:
    r"""string array → list<string> of lowercase whitespace tokens.

    Note: splitting on \s+ yields phantom '' tokens at string boundaries
    (and [''] for empty text); every consumer must EXCLUDE empty tokens
    to match the SQL oracle's '\S+' extraction."""
    lowered = pc.utf8_lower(pc.fill_null(texts, ""))
    return pc.split_pattern_regex(lowered, pattern=TOKEN_SPLIT)


def _flat_tokens(tokens) -> tuple[np.ndarray, np.ndarray]:
    """token-list array → (flat tokens, parent row indices) as numpy,
    with the phantom '' boundary tokens dropped (see _token_lists —
    dropping them preserves in-doc adjacency because '' only occurs at
    string boundaries). The shared preamble of every token-stream
    kernel (text stats, repetition)."""
    combined = tokens.combine_chunks() \
        if isinstance(tokens, pa.ChunkedArray) else tokens
    flat_arr = pc.list_flatten(combined)
    parents_arr = pc.list_parent_indices(combined)
    nonempty = pc.not_equal(flat_arr, "")
    flat = pc.filter(flat_arr, nonempty).to_numpy(zero_copy_only=False)
    parents = pc.filter(parents_arr, nonempty).to_numpy(
        zero_copy_only=False).astype(np.int64)
    return flat, parents


def _hits_per_row(tokens: pa.Array, vocab: list[str],
                  n_rows: int) -> np.ndarray:
    """Vectorized per-row count of tokens in vocab (flatten + bincount)."""
    combined = tokens.combine_chunks() if isinstance(tokens, pa.ChunkedArray) \
        else tokens
    flat = pc.list_flatten(combined)
    parents = pc.list_parent_indices(combined)
    mask = pc.is_in(flat, value_set=pa.array(vocab))
    hit_parents = pc.filter(parents, mask)
    return np.bincount(hit_parents.to_numpy(zero_copy_only=False),
                       minlength=n_rows).astype(np.int64)


def text_stats_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, text) → integer stats row per doc (oracle-checkable)."""
    texts = pc.fill_null(batch["text"], "")
    return _text_stats_core(batch, texts, _token_lists(texts))


def _text_stats_core(batch: pa.Table, texts, tokens) -> pa.Table:
    """Stats kernel over precomputed filled texts + token lists, so
    composed stages (curation_filter) tokenize exactly once."""
    n = batch.num_rows
    flat, parents = _flat_tokens(tokens)

    n_tokens = np.bincount(parents, minlength=n).astype(np.int64)
    n_distinct = np.zeros(n, dtype=np.int64)
    if len(flat):
        pairs = np.unique(
            np.stack([parents,
                      np.unique(flat, return_inverse=True)[1]], axis=1),
            axis=0)
        counts = np.bincount(pairs[:, 0], minlength=n)
        n_distinct = counts.astype(np.int64)

    n_chars = pc.utf8_length(texts).to_numpy(zero_copy_only=False)
    n_stop = _hits_per_row(tokens, STOPWORDS["en"], n)
    # punctuation chars per doc, vectorized: strip the punct class with
    # one regex pass and diff the codepoint lengths (mirrors the SQL
    # oracle's regexp_replace formulation)
    stripped = pc.replace_substring_regex(
        texts, pattern=r"[.,;:!?'\"()\-]", replacement="")
    n_punct = (n_chars - pc.utf8_length(stripped).to_numpy(
        zero_copy_only=False)).astype(np.int64)

    return pa.table({
        "doc_id": batch["doc_id"],
        "n_tokens": pa.array(n_tokens.astype("int64")),
        "n_chars_engine": pa.array(n_chars.astype("int64")),
        "n_distinct": pa.array(n_distinct),
        "n_stop_en": pa.array(n_stop),
        "n_punct": pa.array(n_punct),
    })


def _lang_hits_and_pred(tokens, n: int):
    """token lists → (per-language hit counts, argmax label array)."""
    hits = {lang: _hits_per_row(tokens, words, n)
            for lang, words in STOPWORDS.items()}
    label = np.full(n, "", dtype=object)
    best = np.full(n, -1, dtype=np.int64)
    for lang in LANG_PRIORITY:
        better = hits[lang] > best
        label[better] = lang
        best = np.maximum(best, hits[lang])
    return hits, label


def lang_id_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, text) → per-language stopword hits + argmax label.

    Tie-break: LANG_PRIORITY order (mirrored in the SQL oracle's CASE)."""
    n = batch.num_rows
    hits, label = _lang_hits_and_pred(_token_lists(batch["text"]), n)
    return pa.table({
        "doc_id": batch["doc_id"],
        "c_en": pa.array(hits["en"]),
        "c_de": pa.array(hits["de"]),
        "c_fr": pa.array(hits["fr"]),
        "c_es": pa.array(hits["es"]),
        "lang_pred": pa.array(list(label), pa.string()),
    })


def _quality_u_from_stats(stats: pa.Table) -> np.ndarray:
    """The integer quality arithmetic over an already-computed stats
    table (shared by quality_score_batch and curation_filter_batch)."""
    n_tokens = stats["n_tokens"].to_numpy()
    n_chars = stats["n_chars_engine"].to_numpy()
    n_distinct = stats["n_distinct"].to_numpy()
    n_stop = stats["n_stop_en"].to_numpy()
    n_punct = stats["n_punct"].to_numpy()
    t = np.maximum(n_tokens, 1)
    c = np.maximum(n_chars, 1)
    term1 = 6000 * np.minimum(n_tokens, 50)
    term2 = (300000 * n_distinct) // t
    term3 = np.minimum((1_000_000 * n_stop) // t, 200000)
    term4 = 200000 - np.minimum((2_000_000 * n_punct) // c, 200000)
    return (term1 + term2 + term3 + term4).astype(np.int64)


def quality_score_batch(batch: pa.Table) -> pa.Table:
    """Quality score as an EXACT integer in [0, 1_000_000] (parts-per-
    million), plus the float view quality = quality_u / 1e6.

    All four terms are integer arithmetic (floor division) over the
    already-oracled text_stats counters, so the score is bit-identical
    across engines and carries a SQL oracle (QUALITY_SQL):

      term1 = 6000 · min(n_tokens, 50)                (length, ≤300k)
      term2 = ⌊300000 · n_distinct / max(n_tokens,1)⌋ (diversity, ≤300k)
      term3 = min(⌊10^6 · n_stop / max(n_tokens,1)⌋, 200000)
      term4 = 200000 − min(⌊2·10^6 · n_punct / max(n_chars,1)⌋, 200000)
    """
    stats = text_stats_batch(batch)
    quality_u = _quality_u_from_stats(stats)
    return pa.table({
        "doc_id": batch["doc_id"],
        "quality_u": pa.array(quality_u),
        "quality": pa.array(quality_u / 1e6),
    })


# --- SQL oracles ---

# NULL text is coalesced to '' to mirror the Python kernels' fill_null
# (the shipped corpora carry no NULLs, but the kernels accept them)
TEXT_STATS_SQL = r"""
SELECT doc_id,
       CAST(len(regexp_extract_all(lower(coalesce(text, '')), '\S+'))
           AS BIGINT) AS n_tokens,
       CAST(length(coalesce(text, '')) AS BIGINT) AS n_chars_engine,
       CAST(len(list_distinct(
            regexp_extract_all(lower(coalesce(text, '')), '\S+')))
           AS BIGINT) AS n_distinct,
       CAST(len(list_filter(
            regexp_extract_all(lower(coalesce(text, '')), '\S+'),
            t -> t IN ('the','a','and','of','to','in','is','on','for',
                       'with'))) AS BIGINT) AS n_stop_en,
       CAST(length(coalesce(text, '')) - length(
            regexp_replace(coalesce(text, ''), '[.,;:!?''"()\-]', '',
                           'g')) AS BIGINT)
           AS n_punct
FROM documents
"""


QUALITY_SQL = f"""
WITH s AS ({TEXT_STATS_SQL})
SELECT doc_id,
       CAST(6000 * LEAST(n_tokens, 50)
            + (300000 * n_distinct) // GREATEST(n_tokens, 1)
            + LEAST((1000000 * n_stop_en) // GREATEST(n_tokens, 1),
                    200000)
            + 200000
            - LEAST((2000000 * n_punct) // GREATEST(n_chars_engine, 1),
                    200000) AS BIGINT) AS quality_u,
       CAST(6000 * LEAST(n_tokens, 50)
            + (300000 * n_distinct) // GREATEST(n_tokens, 1)
            + LEAST((1000000 * n_stop_en) // GREATEST(n_tokens, 1),
                    200000)
            + 200000
            - LEAST((2000000 * n_punct) // GREATEST(n_chars_engine, 1),
                    200000) AS DOUBLE) / 1000000.0 AS quality
FROM s
"""


def _lang_count_sql(lang: str) -> str:
    words = ",".join(f"'{w}'" for w in STOPWORDS[lang])
    return (f"CAST(len(list_filter(regexp_extract_all("
            f"lower(coalesce(text, '')), "
            f"'\\S+'), t -> t IN ({words}))) AS BIGINT)")


LANG_ID_SQL = f"""
WITH c AS (
  SELECT doc_id,
         {_lang_count_sql('en')} AS c_en,
         {_lang_count_sql('de')} AS c_de,
         {_lang_count_sql('fr')} AS c_fr,
         {_lang_count_sql('es')} AS c_es
  FROM documents
)
SELECT doc_id, c_en, c_de, c_fr, c_es,
       CASE WHEN c_en >= c_de AND c_en >= c_fr AND c_en >= c_es THEN 'en'
            WHEN c_de >= c_fr AND c_de >= c_es THEN 'de'
            WHEN c_fr >= c_es THEN 'fr'
            ELSE 'es' END AS lang_pred
FROM c
"""


# --- token counting: whitespace + BPE-ish regex (both RE2-safe, so the
# Arrow kernel and the DuckDB oracle share EXACT semantics) ---

BPE_TOKEN_PATTERN = r" ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+"


def token_counts_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, text) → (doc_id, n_ws_tokens, n_bpe_tokens).

    Whitespace tokens = '\\S+' runs; BPE-ish tokens = GPT-style pieces
    (letter runs / digit runs / punctuation runs, optionally preceded by
    one space). Counting is one vectorized count_substring_regex pass —
    no per-row Python."""
    texts = pc.fill_null(batch["text"], "")
    n_ws = pc.count_substring_regex(texts, pattern=r"\S+")
    n_bpe = pc.count_substring_regex(texts, pattern=BPE_TOKEN_PATTERN)
    return pa.table({
        "doc_id": batch["doc_id"],
        "n_ws_tokens": n_ws.cast(pa.int64()),
        "n_bpe_tokens": n_bpe.cast(pa.int64()),
    })


TOKEN_COUNTS_SQL = rf"""
SELECT doc_id,
       CAST(len(regexp_extract_all(coalesce(text, ''), '\S+')) AS BIGINT)
           AS n_ws_tokens,
       CAST(len(regexp_extract_all(coalesce(text, ''),
            '{BPE_TOKEN_PATTERN}')) AS BIGINT) AS n_bpe_tokens
FROM documents
"""


# --- deterministic sampling / train-val split (reproducible at any
# scale: the decision is a pure function of the row's content hash, so
# re-runs, retries and resumes sample identically — no RNG state) ---

SPLIT_THRESHOLD = 0.9       # 90% train / 10% val
SAMPLE_RATE = 0.1


def md5_hex_list(texts: list) -> list:
    """Canonical md5-of-text helper (the repo-wide '(t or "")' NULL
    contract lives HERE; the samplers share it)."""
    import hashlib

    return [hashlib.md5((t or "").encode("utf-8")).hexdigest()
            for t in texts]


def _md5_unit_interval(texts: list) -> np.ndarray:
    """md5(text) first 8 hex chars → uniform float in [0, 1)."""
    return _md5_prefix32(texts).astype(np.float64) / float(1 << 32)


def split_assign_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, text) → (doc_id, split): content-hash train/val split."""
    u = _md5_unit_interval(batch["text"].to_pylist())
    return pa.table({
        "doc_id": batch["doc_id"],
        "split": pa.array(np.where(u < SPLIT_THRESHOLD, "train", "val"),
                          pa.string()),
    })


def sample_docs_batch(batch: pa.Table) -> pa.Table:
    """Deterministic SAMPLE_RATE content-hash sample of documents."""
    u = _md5_unit_interval(batch["text"].to_pylist())
    return batch.select(["doc_id"]).filter(pa.array(u < SAMPLE_RATE))


# oracle: identical md5-prefix arithmetic in SQL
_MD5_UNIT_SQL = ("(CAST(concat('0x', substr(md5(coalesce(text, '')), 1, 8)) AS BIGINT)"
                 " / 4294967296.0)")

SPLIT_ASSIGN_SQL = f"""
SELECT doc_id,
       CASE WHEN {_MD5_UNIT_SQL} < {SPLIT_THRESHOLD}
            THEN 'train' ELSE 'val' END AS split
FROM documents
"""

SAMPLE_DOCS_SQL = f"""
SELECT doc_id FROM documents WHERE {_MD5_UNIT_SQL} < {SAMPLE_RATE}
"""


# --- stratified sampling (data-mixture curation) ---
# Keep the K "hash-smallest" documents per (lang, source) stratum — a
# deterministic uniform-without-replacement sample per stratum (md5 is
# uniform on text, ties broken by doc_id). Two-level top-k: a per-batch
# partial bounds shuffle volume at K x strata per block, then a
# per-stratum exact top-k; the stratum count is small (|langs| x
# |sources|), so the groupby is cheap at any corpus size.

STRATIFIED_K = 3


def stratified_sample_partial(batch: pa.Table) -> pa.Table:
    """Per-batch partial: the K hash-smallest docs per stratum in this
    batch (a superset of the stratum's global top-K members here)."""
    import pandas as pd

    df = pd.DataFrame({
        "doc_id": batch["doc_id"].to_numpy(zero_copy_only=False),
        "lang": batch["lang"].to_pylist(),
        "source": batch["source"].to_pylist(),
        "h": md5_hex_list(batch["text"].to_pylist()),
    })
    df = df.sort_values(["lang", "source", "h", "doc_id"],
                        kind="mergesort")
    # dropna=False: NULL lang/source is a real stratum (SQL PARTITION BY
    # groups NULLs together; Ray's groupby does too)
    df = df.groupby(["lang", "source"], sort=False,
                    dropna=False).head(STRATIFIED_K)
    return pa.table({
        "doc_id": pa.array(df["doc_id"].to_numpy(), pa.int64()),
        "lang": pa.array(df["lang"], pa.string()),
        "source": pa.array(df["source"], pa.string()),
        "h": pa.array(df["h"], pa.string()),
    })


def _stratum_topk(g, _k: int = STRATIFIED_K) -> pa.Table:
    """Final per-stratum exact top-k with 1-based rank (typed output —
    mixed pandas/arrow blocks break Ray sort/groupby sampling)."""
    g = g.sort_values(["h", "doc_id"], kind="mergesort").head(_k)
    return pa.table({
        "lang": pa.array(g["lang"], pa.string()),
        "source": pa.array(g["source"], pa.string()),
        "doc_id": pa.array(g["doc_id"].to_numpy(), pa.int64()),
        "stratum_rank": pa.array(
            np.arange(1, len(g) + 1, dtype=np.int64)),
    })


def stratified_sample(docs):
    """documents (doc_id, text, lang, source) →
    (lang, source, doc_id, stratum_rank): K deterministic
    representatives per stratum."""
    partial = docs.map_batches(stratified_sample_partial,
                               batch_format="pyarrow", batch_size=8192)
    return partial.groupby(["lang", "source"]).map_groups(
        _stratum_topk, batch_format="pandas")


STRATIFIED_SAMPLE_SQL = f"""
SELECT lang, source, doc_id, CAST(rk AS BIGINT) AS stratum_rank
FROM (
  SELECT lang, source, doc_id,
         row_number() OVER (PARTITION BY lang, source
                            ORDER BY md5(coalesce(text, '')), doc_id)
             AS rk
  FROM documents)
WHERE rk <= {STRATIFIED_K}
"""


# --- source-mixture resampling (domain weighting) ---
# Training mixtures repeat high-value domains and thin low-value ones
# (The Pile / DoReMi style epoch weighting). Weights are integer
# parts-per-thousand so the repeat decision is pure integer arithmetic
# mirrored exactly in SQL: rep = wt//1000 plus one extra epoch iff
# md5-prefix32 % 1000 < wt % 1000 (content-hash uniform, same md5
# convention as split/sample above). Each kept copy carries an `epoch`
# index so downstream shuffles can distinguish repeats. No shuffle —
# a 1-to-N flat map that streams at any corpus size.

MIX_DEFAULT_PPT = 1800      # weight for NULL / non-numeric sources


def _md5_prefix32(texts: list) -> np.ndarray:
    """md5(text) first 8 hex chars as int64 (the raw integer behind
    _md5_unit_interval; SQL: CAST(concat('0x', substr(md5(..),1,8)) AS
    BIGINT))."""
    return np.array([int(h[:8], 16) for h in md5_hex_list(texts)],
                    dtype=np.int64)


def _mix_weights_ppt(source_col: pa.Array) -> np.ndarray:
    """Demo weight table derived from the source name: 600 ppt per
    (numeric-suffix mod 5) step → {0, 0.6, 1.2, 1.8, 2.4} epochs.
    Covers drop-entirely, downsample, and multi-epoch upsample."""
    import pandas as pd

    tail = pa.array(source_col).cast(pa.string())
    tail = pc.utf8_slice_codeunits(tail, 3)
    s = pd.Series(tail.to_pylist(), dtype="object")
    # strict integer parse to match SQL TRY_CAST(... AS BIGINT)
    ok = s.str.fullmatch(r"[+-]?[0-9]+", na=False)
    num = pd.to_numeric(s.where(ok), errors="coerce") \
            .fillna(MIX_DEFAULT_PPT // 600).astype(np.int64).to_numpy()
    return 600 * (((num % 5) + 5) % 5)


def mix_sources_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, source, text) → (doc_id, source, epoch) with each doc
    repeated per its source's mixture weight."""
    n = len(batch)
    wt = _mix_weights_ppt(batch["source"])
    h32 = _md5_prefix32(batch["text"].to_pylist())
    rep = wt // 1000 + (h32 % 1000 < wt % 1000)
    idx = np.repeat(np.arange(n), rep)
    starts = np.concatenate(([0], np.cumsum(rep)[:-1]))
    epoch = np.arange(int(rep.sum()), dtype=np.int64) \
        - np.repeat(starts, rep)
    return pa.table({
        "doc_id": batch["doc_id"].take(pa.array(idx)),
        "source": batch["source"].take(pa.array(idx)),
        "epoch": pa.array(epoch, pa.int64()),
    })


def mix_sources(docs):
    """documents → (doc_id, source, epoch) resampled to the per-source
    mixture weights. Embarrassingly parallel; no shuffle."""
    return docs.map_batches(mix_sources_batch, batch_format="pyarrow",
                            batch_size=8192)


MIX_SOURCES_SQL = f"""
WITH r AS (
  SELECT doc_id, source,
         600 * (((coalesce(TRY_CAST(substr(source, 4) AS BIGINT),
                           {MIX_DEFAULT_PPT // 600}) % 5) + 5) % 5)
             AS wt,
         CAST(concat('0x', substr(md5(coalesce(text, '')), 1, 8))
              AS BIGINT) AS h32
  FROM documents)
SELECT doc_id, source,
       CAST(unnest(range(wt // 1000
            + CASE WHEN h32 % 1000 < wt % 1000 THEN 1 ELSE 0 END))
            AS BIGINT) AS epoch
FROM r
"""


# --- PII scrubbing (training-data hygiene pass) ---
# Patterns are RE2-compatible and applied in a fixed order (URL first so
# emails inside URLs don't double-mask), identically on both sides:
# Arrow replace_substring_regex and DuckDB regexp_replace(..., 'g').

PII_URL = r"https?://[^\s]+"
PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE = r"\+?[0-9][0-9\-]{5,}[0-9]"


def scrub_pii_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, text) → (doc_id, scrubbed, n_urls, n_emails, n_phones).

    One vectorized count + replace pass per pattern (RE2 on both the
    Arrow and the DuckDB side, so the oracle is exact)."""
    texts = pc.fill_null(batch["text"], "")
    n_urls = pc.count_substring_regex(texts, pattern=PII_URL)
    scrubbed = pc.replace_substring_regex(texts, pattern=PII_URL,
                                          replacement="<URL>")
    n_emails = pc.count_substring_regex(scrubbed, pattern=PII_EMAIL)
    scrubbed = pc.replace_substring_regex(scrubbed, pattern=PII_EMAIL,
                                          replacement="<EMAIL>")
    n_phones = pc.count_substring_regex(scrubbed, pattern=PII_PHONE)
    scrubbed = pc.replace_substring_regex(scrubbed, pattern=PII_PHONE,
                                          replacement="<PHONE>")
    return pa.table({
        "doc_id": batch["doc_id"],
        "scrubbed": scrubbed,
        "n_urls": n_urls.cast(pa.int64()),
        "n_emails": n_emails.cast(pa.int64()),
        "n_phones": n_phones.cast(pa.int64()),
    })


SCRUB_PII_SQL = rf"""
WITH s1 AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(coalesce(text, ''), '{PII_URL}'))
             AS BIGINT) AS n_urls,
         regexp_replace(coalesce(text, ''), '{PII_URL}', '<URL>', 'g')
             AS t1
  FROM documents
), s2 AS (
  SELECT doc_id, n_urls,
         CAST(len(regexp_extract_all(t1, '{PII_EMAIL}')) AS BIGINT)
             AS n_emails,
         regexp_replace(t1, '{PII_EMAIL}', '<EMAIL>', 'g') AS t2
  FROM s1
)
SELECT doc_id,
       regexp_replace(t2, '{PII_PHONE}', '<PHONE>', 'g') AS scrubbed,
       n_urls, n_emails,
       CAST(len(regexp_extract_all(t2, '{PII_PHONE}')) AS BIGINT)
           AS n_phones
FROM s2
"""


# --- text normalization (canonical form for matching/dedup) ---

NORM_PATTERN = r"[^a-z0-9]+"


def normalize_text_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, text) → (doc_id, norm_text, n_chars_norm): the
    canonical lowercase/alnum-collapsed form used by matching and
    dedup pipelines — lower, replace every non-[a-z0-9] run with one
    space, trim. All three steps are RE2/utf8 kernels mirrored exactly
    by DuckDB (which is also RE2), so the string output itself is
    hash-exact."""
    texts = pc.utf8_lower(pc.fill_null(batch["text"], ""))
    collapsed = pc.replace_substring_regex(texts, pattern=NORM_PATTERN,
                                           replacement=" ")
    norm = pc.utf8_trim_whitespace(collapsed)
    return pa.table({
        "doc_id": batch["doc_id"],
        "norm_text": norm,
        "n_chars_norm": pc.utf8_length(norm).cast(pa.int64()),
    })


NORMALIZE_TEXT_SQL = rf"""
SELECT doc_id,
       trim(regexp_replace(lower(coalesce(text, '')), '{NORM_PATTERN}',
                           ' ', 'g')) AS norm_text,
       CAST(length(trim(regexp_replace(lower(coalesce(text, '')),
                                       '{NORM_PATTERN}', ' ', 'g')))
           AS BIGINT) AS n_chars_norm
FROM documents
"""


# --- curation filter (Gopher-style keep/drop decision per doc) ---

CURATION_MIN_TOKENS = 10
CURATION_MAX_TOKENS = 100_000
CURATION_MIN_QUALITY_U = 600_000
CURATION_LANG = "en"


def curation_filter_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, text) → (doc_id, keep, reason): the composed curation
    decision a training-data pipeline applies per document — length
    bounds, language, integer quality floor — with the FIRST failing
    rule as the reason ('short' | 'long' | 'lang' | 'quality' | 'ok').
    One vectorized pass reusing the oracled lang/quality kernels —
    tokenization and the stats counters are computed ONCE and shared
    (not recomputed per sub-kernel)."""
    texts = pc.fill_null(batch["text"], "")
    tokens = _token_lists(texts)
    stats = _text_stats_core(batch, texts, tokens)
    n_tokens = stats["n_tokens"].to_numpy()
    _, lang_pred = _lang_hits_and_pred(tokens, batch.num_rows)
    quality_u = _quality_u_from_stats(stats)

    reason = np.full(batch.num_rows, "ok", dtype=object)
    # precedence: later assignments win → apply in REVERSE priority
    reason[quality_u < CURATION_MIN_QUALITY_U] = "quality"
    reason[lang_pred != CURATION_LANG] = "lang"
    reason[n_tokens > CURATION_MAX_TOKENS] = "long"
    reason[n_tokens < CURATION_MIN_TOKENS] = "short"
    return pa.table({
        "doc_id": batch["doc_id"],
        "keep": pa.array(reason == "ok"),
        "reason": pa.array(reason, pa.string()),
    })


CURATION_FILTER_SQL = f"""
WITH l AS ({{lang_sql}}), q AS ({{quality_sql}}), s AS ({TEXT_STATS_SQL})
SELECT s.doc_id,
       CASE WHEN s.n_tokens >= {CURATION_MIN_TOKENS}
             AND s.n_tokens <= {CURATION_MAX_TOKENS}
             AND l.lang_pred = '{CURATION_LANG}'
             AND q.quality_u >= {CURATION_MIN_QUALITY_U}
            THEN true ELSE false END AS keep,
       CASE WHEN s.n_tokens < {CURATION_MIN_TOKENS} THEN 'short'
            WHEN s.n_tokens > {CURATION_MAX_TOKENS} THEN 'long'
            WHEN l.lang_pred <> '{CURATION_LANG}' THEN 'lang'
            WHEN q.quality_u < {CURATION_MIN_QUALITY_U} THEN 'quality'
            ELSE 'ok' END AS reason
FROM s JOIN l ON l.doc_id = s.doc_id
       JOIN q ON q.doc_id = s.doc_id
"""


def curation_filter_sql() -> str:
    return CURATION_FILTER_SQL.format(lang_sql=LANG_ID_SQL,
                                      quality_sql=QUALITY_SQL)


# --- decontamination (benchmark-overlap check) ---
# A training-data pipeline must drop documents that contain benchmark
# content. Contract (exactly mirrored in SQL): the benchmark set is the
# documents with doc_id % BENCH_MOD == 0, doc_id < BENCH_ID_CAP and
# >= SNIP_MIN_CHARS chars (a deterministic stand-in for an external
# benchmark table; the ID cap makes the probe set BOUNDED — at most
# BENCH_ID_CAP/BENCH_MOD ≈ 1031 probes — independent of corpus size,
# like a real benchmark suite); each member contributes ONE probe
# snippet = its first SNIP_LEN characters; a doc is contaminated iff it
# is NOT itself a benchmark member and contains at least one probe
# snippet. n_hits counts containing snippets with per-benchmark-doc
# multiplicity (duplicate snippets count twice).

BENCH_MOD = 97
BENCH_ID_CAP = 100_000
SNIP_LEN = 64
SNIP_MIN_CHARS = 8


def _bench_mask(ids: np.ndarray, nchars: np.ndarray) -> np.ndarray:
    return ((ids % BENCH_MOD == 0) & (ids < BENCH_ID_CAP)
            & (nchars >= SNIP_MIN_CHARS))


def bench_snippet_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, text) → one (snip) row per benchmark member in batch."""
    texts = pc.fill_null(batch["text"], "")
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    nchars = pc.utf8_length(texts).to_numpy(zero_copy_only=False)
    kept = pc.filter(texts, pa.array(_bench_mask(ids, nchars)))
    return pa.table({
        "snip": pc.utf8_slice_codeunits(kept, 0, SNIP_LEN)})


# probe count above which ContaminationMarker switches from the
# per-snippet match_substring loop (one vectorized Arrow pass PER
# PROBE) to the rolling-hash multi-pattern matcher below (one pass per
# DISTINCT probe byte-length, independent of probe count — the
# Aho-Corasick role, in the repo's vectorized-numpy idiom rather than
# a per-char Python automaton walk). MEASURED crossover (round 5,
# 5000 sf0.1 docs per batch, real 64-char probes): loop/vec seconds =
# 0.23/0.29 at 64 probes, 0.76/0.26 at 256, 2.9/0.54 at 1024,
# 27.4/0.72 at 10^4 — the rolling hash pays a fixed prefix/cumprod
# cost over the batch bytes and then is probe-count-free, so the loop
# wins until ~10^2 probes and loses 4-40x beyond. 128 puts the
# ~52-probe sf0.1 bench on the loop and any real benchmark suite
# (10^3-10^5 probes) on the scale path; path equivalence is pinned by
# tests/test_decontam_scale.py either way.
DECONTAM_VEC_MIN_PROBES = 128

# odd 64-bit polynomial base → invertible mod 2^64, so window hashes
# normalize via one multiply (same wraparound contract as the MinHash
# permutation family in stages/entity_merge.py)
_RH_BASE = np.uint64(0x9E3779B97F4A7C15 | 1)
_RH_INV = np.uint64(pow(0x9E3779B97F4A7C15 | 1, -1, 1 << 64))


def _rh_probe_hash(bs: bytes) -> int:
    """Polynomial hash Σ (byte+1)·base^(L-1-j) mod 2^64 of one probe."""
    c = np.frombuffer(bs, np.uint8).astype(np.uint64) + np.uint64(1)
    powers = np.empty(len(c), np.uint64)
    powers[0] = 1
    if len(c) > 1:
        np.cumprod(np.full(len(c) - 1, _RH_BASE, np.uint64),
                   out=powers[1:])
    return int((c * powers[::-1]).sum(dtype=np.uint64))


def _group_probes(snips: list):
    """Probe list (multiplicity-carrying) → per-byte-length lookup:
    {L: (sorted unique hash array, [per-hash list of (bytes, mult)])}.
    Hash collisions between distinct probes are handled by exact byte
    verification at match time, so the matcher is EXACT."""
    from collections import Counter

    mult = Counter(s.encode("utf-8") for s in snips)
    by_len: dict[int, dict[int, list]] = {}
    for bs, m in mult.items():
        if not bs:
            continue
        by_len.setdefault(len(bs), {}).setdefault(
            _rh_probe_hash(bs), []).append((bs, m))
    out = {}
    for L, hmap in by_len.items():
        hs = np.sort(np.array(list(hmap), dtype=np.uint64))
        out[L] = (hs, [hmap[int(h)] for h in hs])
    return out


def _multi_substring_hits(texts: list, probes_by_len: dict
                          ) -> np.ndarray:
    """n_hits per text: Σ multiplicity over DISTINCT contained probes.

    One vectorized rolling-hash pass over the batch's concatenated
    UTF-8 bytes per distinct probe length; candidate windows (rare —
    true hits plus ~2^-64 hash collisions) are byte-verified exactly.
    No per-probe or per-character Python in the scan."""
    bufs = [t.encode("utf-8") for t in texts]
    lens = np.fromiter((len(b) for b in bufs), np.int64,
                       count=len(bufs))
    buf = np.frombuffer(b"".join(bufs), np.uint8)
    n = len(buf)
    hits = np.zeros(len(texts), np.int64)
    if n == 0 or not probes_by_len:
        return hits
    parents = np.repeat(np.arange(len(bufs), dtype=np.int64), lens)
    c = buf.astype(np.uint64) + np.uint64(1)
    # p[k] = base^k; ip[k] = base^-k (mod 2^64, exact — base is odd)
    p = np.empty(n + 1, np.uint64)
    p[0] = 1
    np.cumprod(np.full(n, _RH_BASE, np.uint64), out=p[1:])
    ip = np.empty(n + 1, np.uint64)
    ip[0] = 1
    np.cumprod(np.full(n, _RH_INV, np.uint64), out=ip[1:])
    # prefix[k] = Σ_{j<k} c_j · base^(n-1-j)
    prefix = np.empty(n + 1, np.uint64)
    prefix[0] = 0
    np.cumsum(c * p[n - 1::-1], out=prefix[1:])
    for L, (hs, entries) in probes_by_len.items():
        if L > n:
            continue
        valid = parents[: n - L + 1] == parents[L - 1:]
        w = np.nonzero(valid)[0]
        if not len(w):
            continue
        # window hash = (prefix[i+L] - prefix[i]) · base^-(n-i-L)
        h = (prefix[w + L] - prefix[w]) * ip[n - w - L]
        idx = np.searchsorted(hs, h)
        idx[idx == len(hs)] = 0
        cand = np.nonzero(hs[idx] == h)[0]
        if not len(cand):
            continue
        # candidate loop: bounded by TRUE containments (+ ~2^-64
        # collisions), not by probe count or text volume. `seen`
        # dedupes repeat positions — containment counts once per
        # (text, probe), multiplicity applied once.
        seen: set = set()
        mv = memoryview(buf)
        for k in cand:
            i = int(w[k])
            text_id = int(parents[i])
            for probe_bytes, m in entries[int(idx[k])]:
                key = (text_id, probe_bytes)
                if key in seen:
                    continue
                if mv[i:i + L] == probe_bytes:
                    seen.add(key)
                    hits[text_id] += m
    return hits


class ContaminationMarker:
    """map_batches fn (plain function-style state via ray.put ref):
    counts probe-snippet containments per document. Probe prep
    (length grouping + hashing) runs once per actor."""

    def __init__(self, ref) -> None:
        self.ref = ref
        self._snips = None
        self._grouped = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray

        if self._snips is None:
            self._snips = ray.get(self.ref)
            if len(self._snips) >= DECONTAM_VEC_MIN_PROBES:
                self._grouped = _group_probes(self._snips)
        texts = pc.fill_null(batch["text"], "")
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        nchars = pc.utf8_length(texts).to_numpy(zero_copy_only=False)
        if self._grouped is not None:
            hits = _multi_substring_hits(texts.to_pylist(),
                                         self._grouped)
        else:
            hits = np.zeros(batch.num_rows, dtype=np.int64)
            for s in self._snips:
                hits += pc.match_substring(texts, pattern=s).to_numpy(
                    zero_copy_only=False).astype(np.int64)
        is_bench = _bench_mask(ids, nchars)
        return pa.table({
            "doc_id": batch["doc_id"],
            "is_benchmark": pa.array(is_bench),
            "n_hits": pa.array(hits),
            "contaminated": pa.array(~is_bench & (hits > 0)),
        })


def decontaminate(docs):
    """documents → (doc_id, is_benchmark, n_hits, contaminated).

    Two passes: (1) a distributed filter+slice extracts the benchmark
    snippets — the probe set is BOUNDED BY CONSTRUCTION (≤
    BENCH_ID_CAP/BENCH_MOD members regardless of corpus size, matching
    real decontamination sets of 10^3-10^5 probes), so collecting it is
    driver-safe and it then broadcasts once via ray.put; (2) a map_batches
    pass counts containments. Below DECONTAM_VEC_MIN_PROBES probes the
    kernel is one vectorized match_substring per snippet; at or above
    it the rolling-hash multi-pattern matcher takes over — one scan
    per distinct probe byte-length regardless of probe count, so a
    10^5-probe benchmark suite costs the same passes as a 10^2 one."""
    import ray

    snips_rows = docs.map_batches(
        bench_snippet_batch, batch_format="pyarrow").take_all()
    # sorted for run-to-run determinism; duplicates KEPT (multiplicity
    # is part of the n_hits contract)
    snips = sorted(r["snip"] for r in snips_rows)
    ref = ray.put(snips)

    return docs.map_batches(ContaminationMarker(ref),
                            batch_format="pyarrow", batch_size=8192)


DECONTAMINATE_SQL = f"""
WITH bench AS (
  SELECT substr(coalesce(text, ''), 1, {SNIP_LEN}) AS snip
  FROM documents
  WHERE doc_id % {BENCH_MOD} = 0 AND doc_id < {BENCH_ID_CAP}
    AND length(coalesce(text, '')) >= {SNIP_MIN_CHARS}
), hits AS (
  SELECT d.doc_id,
         (d.doc_id % {BENCH_MOD} = 0 AND d.doc_id < {BENCH_ID_CAP}
          AND length(coalesce(d.text, '')) >= {SNIP_MIN_CHARS})
             AS is_benchmark,
         CAST(coalesce(sum(CASE WHEN instr(coalesce(d.text, ''), b.snip)
                                     > 0
                                THEN 1 ELSE 0 END), 0) AS BIGINT)
             AS n_hits
  FROM documents d LEFT JOIN bench b ON true
  GROUP BY d.doc_id, d.text
)
SELECT doc_id, is_benchmark, n_hits,
       (NOT is_benchmark AND n_hits > 0) AS contaminated
FROM hits
"""


# --- repetition ratio (Gopher-style within-doc duplicate n-grams) ---
# Heavily repetitive documents are low-quality training data. Contract
# (exact integers, SQL-mirrored): over the '\S+' lowercase token
# sequence, rep{2,3}_u = ppm fraction of duplicated {bi,tri}grams =
# 1e6 * (n_grams - n_distinct_grams) // max(n_grams, 1).

def repetition_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, text) → per-doc bigram/trigram totals, distinct counts
    and duplicate-fraction ppm. One flatten + np.unique passes — no
    per-row Python. Token adjacency survives the '' filter because
    phantom split tokens only occur at string boundaries."""
    n = batch.num_rows
    flat, parents = _flat_tokens(_token_lists(batch["text"]))

    codes = np.unique(flat, return_inverse=True)[1] if len(flat) \
        else np.zeros(0, dtype=np.int64)

    def gram_counts(width: int):
        if len(parents) < width:
            z = np.zeros(n, dtype=np.int64)
            return z, z
        same = np.ones(len(parents) - width + 1, dtype=bool)
        for j in range(1, width):
            same &= parents[j:len(parents) - width + 1 + j] == \
                parents[:len(parents) - width + 1]
        gp = parents[:len(parents) - width + 1][same]
        cols = [codes[j:len(codes) - width + 1 + j][same]
                for j in range(width)]
        total = np.bincount(gp, minlength=n).astype(np.int64)
        if len(gp):
            uniq = np.unique(np.stack([gp] + cols, axis=1), axis=0)
            distinct = np.bincount(uniq[:, 0],
                                   minlength=n).astype(np.int64)
        else:
            distinct = np.zeros(n, dtype=np.int64)
        return total, distinct

    n_bi, nd_bi = gram_counts(2)
    n_tri, nd_tri = gram_counts(3)
    rep2 = (1_000_000 * (n_bi - nd_bi)) // np.maximum(n_bi, 1)
    rep3 = (1_000_000 * (n_tri - nd_tri)) // np.maximum(n_tri, 1)
    return pa.table({
        "doc_id": batch["doc_id"],
        "n_bigrams": pa.array(n_bi),
        "n_distinct_bigrams": pa.array(nd_bi),
        "rep2_u": pa.array(rep2),
        "n_trigrams": pa.array(n_tri),
        "n_distinct_trigrams": pa.array(nd_tri),
        "rep3_u": pa.array(rep3),
    })


# tokens are '\S+' runs, so ' ' is a collision-free gram separator
REPETITION_SQL = r"""
WITH l AS (
  SELECT doc_id,
         regexp_extract_all(lower(coalesce(text, '')), '\S+') AS toks
  FROM documents
), grams AS (
  SELECT doc_id,
         CASE WHEN len(toks) >= 2 THEN list_transform(
             list_zip(list_slice(toks, 1, len(toks)-1),
                      list_slice(toks, 2, len(toks))),
             x -> x[1] || ' ' || x[2])
         ELSE CAST([] AS VARCHAR[]) END AS bigrams,
         CASE WHEN len(toks) >= 3 THEN list_transform(
             list_zip(list_slice(toks, 1, len(toks)-2),
                      list_slice(toks, 2, len(toks)-1),
                      list_slice(toks, 3, len(toks))),
             x -> x[1] || ' ' || x[2] || ' ' || x[3])
         ELSE CAST([] AS VARCHAR[]) END AS trigrams
  FROM l
), c AS (
  SELECT doc_id,
         CAST(len(bigrams) AS BIGINT) AS n_bigrams,
         CAST(len(list_distinct(bigrams)) AS BIGINT)
             AS n_distinct_bigrams,
         CAST(len(trigrams) AS BIGINT) AS n_trigrams,
         CAST(len(list_distinct(trigrams)) AS BIGINT)
             AS n_distinct_trigrams
  FROM grams
)
SELECT doc_id, n_bigrams, n_distinct_bigrams,
       (1000000 * (n_bigrams - n_distinct_bigrams))
           // greatest(n_bigrams, 1) AS rep2_u,
       n_trigrams, n_distinct_trigrams,
       (1000000 * (n_trigrams - n_distinct_trigrams))
           // greatest(n_trigrams, 1) AS rep3_u
FROM c
"""


# --- corpus-wide exact quantiles (global order statistics, no sort) ---
# Exact distributed quantiles over an integer statistic: per-batch value
# histograms, one groupby(value) sum, then the quantile positions are
# read off the cumulative histogram. The histogram is DRIVER-SMALL by
# nature (distinct token counts are bounded by the longest document, not
# the corpus), so no corpus-wide sort is ever needed. quantile_disc
# convention (groupkit.quantile_disc_pos): the sorted element at 1-based
# position ceil(p*n).

CORPUS_QUANTILES = (0.25, 0.5, 0.9, 0.99)


def _token_count_hist_batch(batch: pa.Table) -> pa.Table:
    texts = pc.fill_null(batch["text"], "")
    nt = pc.count_substring_regex(texts, pattern=r"\S+") \
        .cast(pa.int64()).to_numpy(zero_copy_only=False)
    vals, cnts = np.unique(nt, return_counts=True)
    return pa.table({
        "nt": pa.array(vals, pa.int64()),
        "cnt": pa.array(cnts.astype(np.int64)),
    })


def corpus_token_quantiles(docs):
    """documents → ONE row (n_docs, p25, p50, p90, p99): exact corpus
    quantiles of per-doc whitespace-token counts.

    The final cumsum runs on the driver over the aggregated histogram —
    a bounded, already-reduced result (distinct-value count, not corpus
    size)."""
    from ray.data.aggregate import Sum

    hist = docs.map_batches(
        _token_count_hist_batch, batch_format="pyarrow",
        batch_size=8192,
    ).groupby("nt").aggregate(Sum("cnt", alias_name="cnt"))
    h = hist.to_pandas()
    if h.empty:        # zero-row corpus: the aggregate has no columns
        counts = np.zeros(0, dtype=np.int64)
        vals = np.zeros(0, dtype=np.int64)
    else:
        h = h.sort_values("nt").reset_index(drop=True)
        counts = h["cnt"].to_numpy(dtype=np.int64)
        vals = h["nt"].to_numpy(dtype=np.int64)
    n = int(counts.sum())
    cum = np.cumsum(counts)
    row: dict = {"n_docs": [n]}
    for p in CORPUS_QUANTILES:
        pos = int(quantile_disc_pos(p, n))       # 1-based
        idx = int(np.searchsorted(cum, pos, side="left"))
        row[f"p{int(p * 100)}"] = [int(vals[idx])] if n else [None]
    return pa.table({k: pa.array(v, pa.int64()) for k, v in row.items()})


def length_outlier_filter(docs):
    """documents → (doc_id, n_tokens) for docs whose token count lies
    within the corpus's own [p25, p99] band — a self-calibrating
    curation filter (too-short and too-long outliers dropped).

    Two-phase: the exact corpus quantiles come from the value-histogram
    scan above (driver holds the aggregated histogram, then exactly TWO
    ints are closed over by the filter stage — nothing corpus-sized
    ships anywhere); the filter itself is one streaming map pass."""
    q = corpus_token_quantiles(docs)
    lo, hi = q["p25"][0].as_py(), q["p99"][0].as_py()
    if lo is None:                     # empty corpus → empty band
        lo, hi = 0, -1

    def keep(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch["text"], "")
        nt = pc.count_substring_regex(texts, pattern=r"\S+") \
            .cast(pa.int64())
        mask = pc.and_(pc.greater_equal(nt, lo), pc.less_equal(nt, hi))
        return pa.table({"doc_id": batch["doc_id"],
                         "n_tokens": nt}).filter(mask)

    return docs.map_batches(keep, batch_format="pyarrow",
                            batch_size=8192)


LENGTH_OUTLIER_FILTER_SQL = r"""
WITH s AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(lower(coalesce(text, '')), '\S+'))
         AS BIGINT) AS n_tokens
  FROM documents
), q AS (
  SELECT quantile_disc(n_tokens, 0.25) AS lo,
         quantile_disc(n_tokens, 0.99) AS hi
  FROM s
)
SELECT s.doc_id, s.n_tokens
FROM s, q WHERE s.n_tokens BETWEEN q.lo AND q.hi
"""


CORPUS_TOKEN_QUANTILES_SQL = r"""
WITH s AS (
  SELECT CAST(len(regexp_extract_all(lower(coalesce(text, '')), '\S+'))
         AS BIGINT) AS nt
  FROM documents
)
SELECT CAST(count(*) AS BIGINT) AS n_docs,
       quantile_disc(nt, 0.25) AS p25,
       quantile_disc(nt, 0.5) AS p50,
       quantile_disc(nt, 0.9) AS p90,
       quantile_disc(nt, 0.99) AS p99
FROM s
"""


# --- document chunking (context-window preparation, 1→N flat_map) ---
# Chunk i of a doc covers tokens [i*STRIDE, min(i*STRIDE+CHUNK, nt));
# n_chunks = 1 if nt <= CHUNK else ceil((nt-CHUNK)/STRIDE)+1 (nt > 0),
# the conventional rule: every token appears in at least one chunk,
# consecutive chunks overlap by CHUNK-STRIDE tokens, and every chunk
# contributes at least one token not in the previous chunk (no trailing
# chunk that is a strict subset of its predecessor). chunk_text is the
# ' '-joined token slice (token space, not original whitespace — the
# contract both sides share).

CHUNK_TOKENS = 64
CHUNK_STRIDE = 48


def chunk_docs_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, text) → (doc_id, chunk_idx, n_chunk_tokens, chunk_text)
    rows. Fully vectorized: one flatten, index arithmetic, one gather
    (pc.take) and one Arrow binary_join — no per-doc Python."""
    flat, parents = _flat_tokens(_token_lists(batch["text"]))
    n = batch.num_rows
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    nt = np.bincount(parents, minlength=n).astype(np.int64)
    doc_start = np.concatenate([[0], np.cumsum(nt)])
    n_chunks = np.where(
        nt > 0,
        np.where(nt <= CHUNK_TOKENS, 1,
                 (nt - CHUNK_TOKENS + CHUNK_STRIDE - 1) // CHUNK_STRIDE + 1),
        0)
    total = int(n_chunks.sum())
    if total == 0:
        return pa.table({
            "doc_id": pa.array([], pa.int64()),
            "chunk_idx": pa.array([], pa.int64()),
            "n_chunk_tokens": pa.array([], pa.int64()),
            "chunk_text": pa.array([], pa.large_string()),
        })
    c_doc = np.repeat(np.arange(n), n_chunks)
    first = np.concatenate([[0], np.cumsum(n_chunks)])[:-1]
    chunk_idx = np.arange(total) - np.repeat(first, n_chunks)
    start = chunk_idx * CHUNK_STRIDE
    lengths = np.minimum(start + CHUNK_TOKENS, nt[c_doc]) - start
    offs = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    tok_idx = (np.repeat(doc_start[c_doc] + start, lengths)
               + np.arange(offs[-1])
               - np.repeat(offs[:-1], lengths))
    # large_string throughout: the gathered token text is ~1.3x the
    # input batch's text (overlap), so 32-bit string offsets could
    # overflow on big batches of big docs.
    taken = pc.take(pa.array(flat, pa.large_string()), pa.array(tok_idx))
    lists = pa.LargeListArray.from_arrays(
        pa.array(offs, pa.int64()), taken)
    return pa.table({
        "doc_id": pa.array(doc_ids[c_doc], pa.int64()),
        "chunk_idx": pa.array(chunk_idx.astype(np.int64)),
        "n_chunk_tokens": pa.array(lengths.astype(np.int64)),
        "chunk_text": pc.binary_join(
            lists, pa.scalar(" ", pa.large_string())),
    })


CHUNK_DOCS_SQL = rf"""
WITH l AS (
  SELECT doc_id,
         regexp_extract_all(lower(coalesce(text, '')), '\S+') AS toks
  FROM documents
), c AS (
  SELECT doc_id, toks, len(toks) AS nt,
         unnest(generate_series(0,
             CASE WHEN len(toks) <= {CHUNK_TOKENS} THEN 0
                  ELSE (len(toks) - {CHUNK_TOKENS} + {CHUNK_STRIDE} - 1)
                       // {CHUNK_STRIDE} + 1 - 1
             END)) AS chunk_idx
  FROM l WHERE len(toks) > 0
)
SELECT doc_id, CAST(chunk_idx AS BIGINT) AS chunk_idx,
       CAST(least(chunk_idx*{CHUNK_STRIDE}+{CHUNK_TOKENS}, nt)
            - chunk_idx*{CHUNK_STRIDE} AS BIGINT) AS n_chunk_tokens,
       array_to_string(
           list_slice(toks, chunk_idx*{CHUNK_STRIDE}+1,
                      least(chunk_idx*{CHUNK_STRIDE}+{CHUNK_TOKENS}, nt)),
           ' ') AS chunk_text
FROM c
"""

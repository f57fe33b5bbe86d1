"""TF-IDF top-k terms per document — a corpus-wide statistic (document
frequency) joined back to per-document term counts.

Shape (two shuffles, both hash-partitioned, no driver-side state):

1. ``term_freq_batch``: docs → distinct (doc_id, token, tf) rows, fully
   vectorized (flatten + np.unique over (doc, token-code) pairs). Each
   document sits wholly inside one batch, so per-batch tf is exact.
2. token-hash bucket groupby: every row of a token lands in ONE bucket,
   so df(token) = in-bucket group size — the df aggregate and the
   df-join collapse into a single shuffle (no separate vocab-sized
   groupby + join, and no driver-side vocabulary: at web scale the
   vocabulary is corpus-sized and must never be broadcast).
3. per-batch partial top-k per doc (bounds the second shuffle at k rows
   per doc per batch), then a doc-shard groupby with one lexsort per
   shard.

Ranking is INTEGER arithmetic so the DuckDB oracle is exact: the tf/df
ratio is ordered by score_key = (tf * 10^12) // df (floor division on
both sides; tf*10^12 fits int64 for any document under ~9M occurrences
of one token), descending, ties by token ascending (binary UTF-8 order
== numpy codepoint order for valid strings). ln-based idf is
deliberately avoided: libm floats are not contract-able across engines,
and the ordering by tf/df is identical for a corpus-constant N.

Tokenization is the repo-wide contract: '\\S+' runs of lower(text)
(stages/text._token_lists ≡ regexp_extract_all in SQL).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .groupkit import run_lengths, run_positions, run_starts
from .text import _flat_tokens, _token_lists

TFIDF_TOPK = 3
TFIDF_BUCKETS = 256        # token-hash buckets (df + join shuffle)
TFIDF_DOC_SHARDS = 64      # doc-hash shards (final top-k shuffle)
_SCALE = 10 ** 12


def term_freq_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, text) → one (doc_id, token, tf) row per distinct token
    per doc. Vectorized: one flatten, one np.unique over code pairs."""
    flat, parents = _flat_tokens(_token_lists(batch["text"]))
    if not len(flat):
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "token": pa.array([], pa.string()),
                         "tf": pa.array([], pa.int64())})
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)[parents]
    uniq_tokens, codes = np.unique(flat, return_inverse=True)
    pairs = np.stack([doc_ids.astype(np.int64), codes], axis=1)
    uniq_pairs, counts = np.unique(pairs, axis=0, return_counts=True)
    return pa.table({
        "doc_id": pa.array(uniq_pairs[:, 0], pa.int64()),
        "token": pa.array(uniq_tokens[uniq_pairs[:, 1]], pa.string()),
        "tf": pa.array(counts.astype(np.int64)),
    })


def _token_bucket_batch(batch: pa.Table) -> pa.Table:
    import pandas as pd

    toks = batch["token"].to_numpy(zero_copy_only=False)
    h = pd.util.hash_array(np.asarray(toks, dtype=object))
    return batch.append_column(
        "bucket", pa.array((h % TFIDF_BUCKETS).astype(np.int32)))


def _df_in_bucket(g) -> pa.Table:
    """All rows of a token share this bucket → df = group size here.
    Attach df, then emit this batch's top-k candidates per doc (an
    exact superset of each doc's global top-k contribution from this
    bucket)."""
    toks = g["token"].to_numpy()
    doc_ids = g["doc_id"].to_numpy().astype(np.int64)
    tf = g["tf"].to_numpy().astype(np.int64)
    _, codes, df_per_code = np.unique(toks, return_inverse=True,
                                      return_counts=True)
    df = df_per_code[codes].astype(np.int64)
    key = (tf * _SCALE) // df
    # partial per-doc top-k: sort doc asc, key desc, token asc
    order = np.lexsort((toks, -key, doc_ids))
    keep = run_positions(doc_ids[order]) < TFIDF_TOPK
    sel = order[keep]
    return pa.table({
        "doc_id": pa.array(doc_ids[sel], pa.int64()),
        "token": pa.array(toks[sel], pa.string()),
        "tf": pa.array(tf[sel], pa.int64()),
        "df": pa.array(df[sel], pa.int64()),
        "shard": pa.array((doc_ids[sel] % TFIDF_DOC_SHARDS)
                          .astype(np.int32)),
    })


def _topk_in_shard(g, _k: int = TFIDF_TOPK) -> pa.Table:
    doc_ids = g["doc_id"].to_numpy().astype(np.int64)
    toks = g["token"].to_numpy()
    tf = g["tf"].to_numpy().astype(np.int64)
    df = g["df"].to_numpy().astype(np.int64)
    key = (tf * _SCALE) // df
    order = np.lexsort((toks, -key, doc_ids))
    rank = run_positions(doc_ids[order]) + 1
    keep = rank <= _k
    sel = order[keep]
    return pa.table({
        "doc_id": pa.array(doc_ids[sel], pa.int64()),
        "term_rank": pa.array(rank[keep].astype(np.int64)),
        "token": pa.array(toks[sel], pa.string()),
        "tf": pa.array(tf[sel], pa.int64()),
        "df": pa.array(df[sel], pa.int64()),
    })


def tfidf_topk(docs):
    """documents → (doc_id, term_rank, token, tf, df): the TFIDF_TOPK
    highest-tf/df terms per document (rank 1 = highest)."""
    terms = docs.map_batches(term_freq_batch, batch_format="pyarrow",
                             batch_size=4096)
    bucketed = terms.map_batches(_token_bucket_batch,
                                 batch_format="pyarrow")
    cands = bucketed.groupby("bucket").map_groups(
        _df_in_bucket, batch_format="pandas")
    return cands.groupby("shard").map_groups(
        _topk_in_shard, batch_format="pandas")


# --- inverted index (token → df + bounded posting list) ---
# Same token-hash bucket shuffle as tfidf_topk: all of a token's
# (doc_id, token, tf) rows co-locate, so df and the posting list are
# one in-bucket pass. Postings are BOUNDED by contract — the
# POSTINGS_CAP smallest doc_ids, comma-joined — because at web scale a
# stopword's full posting list is corpus-sized and belongs in chunked
# list storage, not one row; df stays exact regardless.

POSTINGS_CAP = 32


def _index_in_bucket(g) -> pa.Table:
    """Vectorized: one lexsort, group-boundary arithmetic for df, and
    Arrow list construction + binary_join for the capped posting
    strings — no per-token Python."""
    toks = g["token"].to_numpy()
    doc_ids = g["doc_id"].to_numpy().astype(np.int64)
    order = np.lexsort((doc_ids, toks))
    t_s, d_s = toks[order], doc_ids[order]
    bounds = run_starts(t_s)
    df = run_lengths(t_s, bounds)
    keep = run_positions(t_s, bounds) < POSTINGS_CAP
    offsets = np.concatenate(
        [[0], np.cumsum(np.minimum(df, POSTINGS_CAP))]).astype(np.int32)
    lists = pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()),
        pc.cast(pa.array(d_s[keep]), pa.string()))
    return pa.table({
        "token": pa.array(t_s[bounds], pa.string()),
        "df": pa.array(df),
        "postings": pc.binary_join(lists, ","),
    })


def inverted_index(docs):
    """documents → (token, df, postings): exact document frequency and
    the POSTINGS_CAP smallest doc_ids per token, ascending."""
    terms = docs.map_batches(term_freq_batch, batch_format="pyarrow",
                             batch_size=4096)
    bucketed = terms.map_batches(_token_bucket_batch,
                                 batch_format="pyarrow")
    return bucketed.groupby("bucket").map_groups(
        _index_in_bucket, batch_format="pandas")


INVERTED_INDEX_SQL = rf"""
WITH toks AS (
  SELECT DISTINCT doc_id, t.token AS token
  FROM documents d,
       unnest(regexp_extract_all(lower(coalesce(d.text, '')), '\S+'))
           AS t(token)
)
SELECT token, CAST(count(*) AS BIGINT) AS df,
       array_to_string(
           list_slice(list(CAST(doc_id AS VARCHAR)
                           ORDER BY doc_id), 1, {POSTINGS_CAP}),
           ',') AS postings
FROM toks GROUP BY token
"""


TFIDF_TOPK_SQL = rf"""
WITH toks AS (
  SELECT doc_id, t.token AS token, CAST(count(*) AS BIGINT) AS tf
  FROM documents d,
       unnest(regexp_extract_all(lower(coalesce(d.text, '')), '\S+'))
           AS t(token)
  GROUP BY doc_id, t.token
), df AS (
  SELECT token, CAST(count(*) AS BIGINT) AS df FROM toks GROUP BY token
), scored AS (
  SELECT toks.doc_id, toks.token, toks.tf, df.df,
         row_number() OVER (
             PARTITION BY toks.doc_id
             ORDER BY (toks.tf * {_SCALE}) // df.df DESC, toks.token)
             AS term_rank
  FROM toks JOIN df USING (token)
)
SELECT doc_id, CAST(term_rank AS BIGINT) AS term_rank, token, tf, df
FROM scored WHERE term_rank <= {TFIDF_TOPK}
"""


# --- unigram-LM quality proxy (per-doc mean corpus token frequency) ---
# The CCNet-style "LM score" signal with an integer contract: a doc of
# common tokens scores high, one of rare/garbage tokens low. ctf(token)
# = the token's total corpus occurrences; the doc score is the
# tf-weighted mean of ctf over the doc's tokens, kept exact as
# lm_score = (Σ tf·ctf) · 10^6 // Σ tf. Same single token-hash shuffle
# as tfidf: a token's rows co-locate, so ctf is the in-bucket tf sum —
# the corpus unigram table never exists as one object. (The 10^6 scale
# bounds exactness to Σ tf·ctf < 9.2e12 per doc — fine for test SFs and
# for per-shard corpora; a log-domain float variant would replace the
# contract at web scale.)

LM_SCALE = 10 ** 6


def _lm_partials_in_bucket(g) -> pa.Table:
    """ctf per token (run sums), then this bucket's per-doc partial
    (Σ tf·ctf, Σ tf) — one np.unique + two bincounts, no Python rows."""
    from .groupkit import int_group_sums as _int_group_sums

    toks = g["token"].to_numpy()
    doc_ids = g["doc_id"].to_numpy().astype(np.int64)
    tf = g["tf"].to_numpy().astype(np.int64)
    _, codes = np.unique(toks, return_inverse=True)
    # exact int64 sums — np.bincount(weights=) accumulates in float64
    # and silently rounds past 2^53, breaking the integer contract
    ctf = _int_group_sums(codes, tf, codes.max() + 1 if len(codes) else 0)
    udocs, dcodes = np.unique(doc_ids, return_inverse=True)
    wsum = _int_group_sums(dcodes, tf * ctf[codes], len(udocs))
    ntok = _int_group_sums(dcodes, tf, len(udocs))
    return pa.table({
        "doc_id": pa.array(udocs, pa.int64()),
        "wsum": pa.array(wsum),
        "n_tokens": pa.array(ntok),
    })


def lm_unigram_score(docs):
    """documents → (doc_id, wsum, n_tokens, lm_score): exact per-doc
    tf-weighted mean corpus-frequency (×10^6, floor)."""
    from ray.data.aggregate import Sum

    terms = docs.map_batches(term_freq_batch, batch_format="pyarrow",
                             batch_size=4096)
    bucketed = terms.map_batches(_token_bucket_batch,
                                 batch_format="pyarrow")
    partials = bucketed.groupby("bucket").map_groups(
        _lm_partials_in_bucket, batch_format="pandas")
    sums = partials.groupby("doc_id").aggregate(
        Sum("wsum", alias_name="wsum"),
        Sum("n_tokens", alias_name="n_tokens"))

    def score(batch: pa.Table) -> pa.Table:
        w = batch["wsum"].to_numpy(zero_copy_only=False)
        n = batch["n_tokens"].to_numpy(zero_copy_only=False)
        # fail LOUDLY (like the oracle's HUGEINT cast would) instead of
        # silently wrapping the highest-quality docs to negative scores
        if len(w) and int(w.max()) > (2 ** 63 - 1) // LM_SCALE:
            raise OverflowError(
                "lm_unigram_score: sum(tf*ctf) exceeds the integer "
                "contract bound (~9.2e12); use a log-domain variant "
                "for corpora this large")
        return batch.append_column(
            "lm_score", pa.array((w * LM_SCALE) // n, pa.int64()))

    return sums.map_batches(score, batch_format="pyarrow")


LM_UNIGRAM_SCORE_SQL = rf"""
WITH toks AS (
  SELECT doc_id, t.token AS token, CAST(count(*) AS BIGINT) AS tf
  FROM documents d,
       unnest(regexp_extract_all(lower(coalesce(d.text, '')), '\S+'))
           AS t(token)
  GROUP BY doc_id, t.token
), ctf AS (
  SELECT token, CAST(sum(tf) AS BIGINT) AS ctf FROM toks GROUP BY token
)
SELECT doc_id, CAST(sum(tf * ctf) AS BIGINT) AS wsum,
       CAST(sum(tf) AS BIGINT) AS n_tokens,
       CAST(sum(tf * ctf) * {LM_SCALE} // sum(tf) AS BIGINT) AS lm_score
FROM toks JOIN ctf USING (token) GROUP BY doc_id
"""


# --- bigram-LM quality score (conditional-probability variant) ---
# The CCNet/KenLM-shaped signal one level up from lm_unigram_score: a
# doc's score is the mean scaled conditional probability of its
# adjacent token pairs, P(w2|w1) = n2(w1,w2) / n1(w1), where n2 is the
# corpus-wide within-doc bigram count and n1 the corpus count of w1 as
# a bigram PREFIX (so Σ_w2 P(w2|w1) = 1 exactly). Per-pair
# contributions floor((10^6 · n2) // n1) are integers, so the sum is
# order-free and the DuckDB mirror hash-exact — no log-domain floats.
#
# One prefix-hash shuffle computes BOTH count tables: every pair with
# prefix w1 lands in bucket(w1), so n1 = Σ tf2 over the prefix run and
# n2 = Σ tf2 over the (w1, w2) run fall out of the same group, and the
# join back to per-doc pairs never leaves the bucket. The vocabulary
# is never broadcast or driver-collected.

LM2_BUCKETS = 256


def bigram_freq_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, text) → one (doc_id, w1, w2, tf2) row per distinct
    within-doc adjacent pair, bucketed by hash(w1)."""
    import pandas as pd

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "w1": pa.array([], pa.string()),
                      "w2": pa.array([], pa.string()),
                      "tf2": pa.array([], pa.int64()),
                      "bucket": pa.array([], pa.int32())})
    flat, parents = _flat_tokens(_token_lists(batch["text"]))
    if len(flat) < 2:
        return empty
    same = parents[1:] == parents[:-1]
    if not same.any():
        return empty
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)[parents[:-1][same]]
    uniq, codes = np.unique(
        np.concatenate([flat[:-1][same], flat[1:][same]]),
        return_inverse=True)
    n = same.sum()
    v = np.int64(len(uniq))
    key = np.stack([doc_ids, codes[:n].astype(np.int64) * v
                    + codes[n:]], axis=1)
    upairs, counts = np.unique(key, axis=0, return_counts=True)
    w1 = uniq[upairs[:, 1] // v]
    h = pd.util.hash_array(w1.astype(object))
    return pa.table({
        "doc_id": pa.array(upairs[:, 0], pa.int64()),
        "w1": pa.array(w1, pa.string()),
        "w2": pa.array(uniq[upairs[:, 1] % v], pa.string()),
        "tf2": pa.array(counts.astype(np.int64)),
        "bucket": pa.array((h % LM2_BUCKETS).astype(np.int32)),
    })


def _lm2_partials_in_bucket(g) -> pa.Table:
    """n1 per prefix and n2 per pair (run sums over the co-located
    prefix bucket), then this bucket's per-doc partial
    (Σ tf2·contrib, Σ tf2)."""
    from .groupkit import int_group_sums as _int_group_sums

    w1 = g["w1"].to_numpy()
    w2 = g["w2"].to_numpy()
    doc_ids = g["doc_id"].to_numpy().astype(np.int64)
    tf2 = g["tf2"].to_numpy().astype(np.int64)
    _, c1 = np.unique(w1, return_inverse=True)
    n1 = _int_group_sums(c1, tf2, c1.max() + 1 if len(c1) else 0)
    u2, c2 = np.unique(np.char.add(np.char.add(
        w1.astype(str), "\x1f"), w2.astype(str)), return_inverse=True)
    n2 = _int_group_sums(c2, tf2, len(u2))
    if len(n2) and int(n2.max()) > (2 ** 63 - 1) // LM_SCALE:
        raise OverflowError(
            "lm_bigram_score: bigram count exceeds the integer "
            "contract bound (~9.2e12); use a log-domain variant for "
            "corpora this large")
    contrib = (LM_SCALE * n2[c2]) // n1[c1]
    udocs, dcodes = np.unique(doc_ids, return_inverse=True)
    wsum = _int_group_sums(dcodes, tf2 * contrib, len(udocs))
    npair = _int_group_sums(dcodes, tf2, len(udocs))
    return pa.table({
        "doc_id": pa.array(udocs, pa.int64()),
        "wsum": pa.array(wsum),
        "n_pairs": pa.array(npair),
    })


def lm_bigram_score(docs):
    """documents → (doc_id, wsum, n_pairs, lm2_score): exact per-doc
    mean scaled conditional bigram probability (×10^6, floor); docs
    with fewer than 2 tokens have no pairs and emit no row."""
    from ray.data.aggregate import Sum

    pairs = docs.map_batches(bigram_freq_batch, batch_format="pyarrow",
                             batch_size=4096)
    partials = pairs.groupby("bucket").map_groups(
        _lm2_partials_in_bucket, batch_format="pandas")
    sums = partials.groupby("doc_id").aggregate(
        Sum("wsum", alias_name="wsum"),
        Sum("n_pairs", alias_name="n_pairs"))

    def score(batch: pa.Table) -> pa.Table:
        w = batch["wsum"].to_numpy(zero_copy_only=False)
        n = batch["n_pairs"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": batch["doc_id"],
            "wsum": batch["wsum"].cast(pa.int64()),
            "n_pairs": batch["n_pairs"].cast(pa.int64()),
            "lm2_score": pa.array(w // n, pa.int64()),
        })

    return sums.map_batches(score, batch_format="pyarrow")


LM_BIGRAM_SCORE_SQL = rf"""
WITH l AS (
  SELECT doc_id,
         regexp_extract_all(lower(coalesce(text, '')), '\S+') AS toks
  FROM documents
), p AS (
  SELECT doc_id,
         unnest(list_slice(toks, 1, len(toks) - 1)) AS w1,
         unnest(list_slice(toks, 2, len(toks))) AS w2
  FROM l WHERE len(toks) >= 2
), pc AS (
  SELECT doc_id, w1, w2, CAST(count(*) AS BIGINT) AS tf2
  FROM p GROUP BY doc_id, w1, w2
), c2 AS (
  SELECT w1, w2, CAST(sum(tf2) AS BIGINT) AS n2 FROM pc GROUP BY w1, w2
), c1 AS (
  SELECT w1, CAST(sum(tf2) AS BIGINT) AS n1 FROM pc GROUP BY w1
)
SELECT pc.doc_id,
       CAST(sum(tf2 * (({LM_SCALE} * n2) // n1)) AS BIGINT) AS wsum,
       CAST(sum(tf2) AS BIGINT) AS n_pairs,
       CAST(sum(tf2 * (({LM_SCALE} * n2) // n1)) // sum(tf2)
            AS BIGINT) AS lm2_score
FROM pc JOIN c2 USING (w1, w2) JOIN c1 USING (w1)
GROUP BY pc.doc_id
"""


# --- stupid-backoff LM score (held-out train/score split) ---
# The decontamination-grade variant of lm_bigram_score: the LM is
# TRAINED on only the even-doc_id half of the corpus and scores EVERY
# doc, so held-out (odd) docs genuinely hit unseen bigrams and fall
# back to the unigram model — Brants et al.'s "stupid backoff"
# (S(w2|w1) = n2/n1 if n2>0 else α·ctf(w2)/N, α = 0.4 = 2/5), the
# score large-scale pipelines use for quality filtering because it
# needs no discounting pass. All contributions are per-term integer
# floors (exact fixed-point, order-free sums, hash-exact SQL mirror):
#   seen pair:   (10^6 · n2A) // n1A
#   backoff:     (2 · 10^6 · ctfA(w2)) // (5 · totA)    (0 if unseen)
#
# Two hash exchanges, nothing vocabulary-sized ever leaves a bucket:
# the prefix-hash bucket resolves seen pairs AND identifies backoff
# rows (train counts and scored pairs co-locate by hash(w1)); the
# token-hash bucket resolves backoff unigram counts (backoff rows and
# train unigrams co-locate by hash(w2)). The only driver-side value is
# totA — one int64 scalar aggregate.

LMBO_ALPHA_NUM = 2
LMBO_ALPHA_DEN = 5


def _lmbo_pair_bucket(g, scale: int = LM_SCALE) -> pa.Table:
    """Prefix-hash bucket kernel: train counts n1A/n2A from even-doc
    rows, then per-doc MAIN partials for pairs the train split has
    seen, and tagged BACKOFF rows (doc_id, w2, tf2) for the rest —
    one union-schema table, split downstream (the token-hash bucket is
    attached there via the SHARED _token_bucket_batch so backoff rows
    and train unigrams can never disagree on the hash)."""
    from .groupkit import int_group_sums as _int_group_sums

    w1 = g["w1"].to_numpy()
    w2 = g["w2"].to_numpy()
    doc_ids = g["doc_id"].to_numpy().astype(np.int64)
    tf2 = g["tf2"].to_numpy().astype(np.int64)
    is_a = (doc_ids % 2 == 0)
    tf2_a = np.where(is_a, tf2, 0)
    _, c1 = np.unique(w1, return_inverse=True)
    n1a = _int_group_sums(c1, tf2_a, c1.max() + 1 if len(c1) else 0)
    u2, c2 = np.unique(np.char.add(np.char.add(
        w1.astype(str), "\x1f"), w2.astype(str)), return_inverse=True)
    n2a = _int_group_sums(c2, tf2_a, len(u2))
    if len(n2a) and int(n2a.max()) > (2 ** 63 - 1) // scale:
        raise OverflowError(
            "lm_backoff_score: bigram count exceeds the integer "
            "contract bound (~9.2e12); use a log-domain variant for "
            "corpora this large")
    seen = n2a[c2] > 0
    contrib = np.zeros(len(tf2), np.int64)
    contrib[seen] = (scale * n2a[c2][seen]) // n1a[c1][seen]
    mdocs, mcodes = np.unique(doc_ids[seen], return_inverse=True)
    wsum = _int_group_sums(mcodes, (tf2 * contrib)[seen], len(mdocs))
    npair = _int_group_sums(mcodes, tf2[seen], len(mdocs))
    bo = ~seen
    n_m, n_b = len(mdocs), int(bo.sum())
    return pa.table({
        "kind": pa.array(["m"] * n_m + ["b"] * n_b, pa.string()),
        "doc_id": pa.array(np.concatenate([mdocs, doc_ids[bo]]),
                           pa.int64()),
        "wsum": pa.array(np.concatenate(
            [wsum, np.zeros(n_b, np.int64)])),
        "tf2": pa.array(np.concatenate(
            [npair, tf2[bo]])),
        "w2": pa.array(np.concatenate(
            [np.full(n_m, "", object), w2[bo]]), pa.string()),
    })


def lm_backoff_score(docs, scale: int = LM_SCALE):
    """documents → (doc_id, wsum, n_pairs, lmbo_score): exact per-doc
    mean scaled stupid-backoff score (×10^6, floor) under a bigram LM
    trained on the even-doc_id half; docs with <2 tokens emit no
    row."""
    from ray.data.aggregate import Sum

    pairs = docs.map_batches(bigram_freq_batch, batch_format="pyarrow",
                             batch_size=4096)
    # materialize: two consumers (main/backoff splits) would otherwise
    # re-execute the bigram shuffle + kernel once each (Ray Data plans
    # have no common-subexpression elimination)
    mixed = pairs.groupby("bucket").map_groups(
        _lmbo_pair_bucket, batch_format="pandas").materialize()

    def main_rows(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["kind"], "m"))
        return pa.table({"doc_id": t["doc_id"], "wsum": t["wsum"],
                         "n_pairs": t["tf2"]})

    def backoff_rows(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["kind"], "b"))
        return pa.table({
            "kind": t["kind"], "doc_id": t["doc_id"],
            "token": t["w2"], "tf": t["tf2"],
        })

    mainp = mixed.map_batches(main_rows, batch_format="pyarrow")

    # train-split unigram counts, co-located with backoff rows by
    # token hash; totA is the single driver-side scalar
    def even_docs(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.equal(pc.bit_wise_and(batch["doc_id"], 1), 0))

    train_toks = docs.map_batches(even_docs, batch_format="pyarrow") \
        .map_batches(term_freq_batch, batch_format="pyarrow",
                     batch_size=4096).materialize()
    tot_a = train_toks.sum("tf", ignore_nulls=True) or 0

    def tag_train(batch: pa.Table) -> pa.Table:
        k = len(batch)
        return pa.table({
            "kind": pa.array(["u"] * k, pa.string()),
            "doc_id": batch["doc_id"],
            "token": batch["token"],
            "tf": batch["tf"],
        })

    train_tagged = train_toks.map_batches(tag_train,
                                          batch_format="pyarrow") \
        .map_batches(_token_bucket_batch, batch_format="pyarrow")

    # the SAME bucket helper on both union sides — co-location by
    # construction (see groupkit.pair_bucket_ids' convention note)
    both = mixed.map_batches(backoff_rows, batch_format="pyarrow") \
        .map_batches(_token_bucket_batch, batch_format="pyarrow") \
        .union(train_tagged)

    def backoff_bucket(g, _tot=int(tot_a), _scale=scale):
        from .groupkit import int_group_sums as _int_group_sums

        is_u = (g["kind"] == "u").to_numpy()
        toks = g["token"].to_numpy()
        tf = g["tf"].to_numpy().astype(np.int64)
        utoks, codes = np.unique(toks, return_inverse=True)
        ctf = _int_group_sums(codes, np.where(is_u, tf, 0),
                              len(utoks))
        # same loud-failure contract as the seen-pair branch: a
        # stopword's train ctf past ~4.6e12 would wrap int64 silently
        # while the HUGEINT oracle stays exact
        if len(ctf) and int(ctf.max()) > \
                (2 ** 63 - 1) // (LMBO_ALPHA_NUM * _scale):
            raise OverflowError(
                "lm_backoff_score: unigram count exceeds the integer "
                "contract bound (~4.6e12); use a log-domain variant "
                "for corpora this large")
        b = ~is_u
        contrib = (LMBO_ALPHA_NUM * _scale * ctf[codes[b]]) \
            // (LMBO_ALPHA_DEN * _tot) if _tot else \
            np.zeros(int(b.sum()), np.int64)
        docs_b = g["doc_id"].to_numpy().astype(np.int64)[b]
        udocs, dcodes = np.unique(docs_b, return_inverse=True)
        wsum = _int_group_sums(dcodes, tf[b] * contrib, len(udocs))
        npair = _int_group_sums(dcodes, tf[b], len(udocs))
        return pa.table({
            "doc_id": pa.array(udocs, pa.int64()),
            "wsum": pa.array(wsum),
            "n_pairs": pa.array(npair),
        })

    backp = both.groupby("bucket").map_groups(
        backoff_bucket, batch_format="pandas")

    sums = mainp.union(backp).groupby("doc_id").aggregate(
        Sum("wsum", alias_name="wsum"),
        Sum("n_pairs", alias_name="n_pairs"))

    def score(batch: pa.Table) -> pa.Table:
        w = batch["wsum"].to_numpy(zero_copy_only=False)
        n = batch["n_pairs"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": batch["doc_id"],
            "wsum": batch["wsum"].cast(pa.int64()),
            "n_pairs": batch["n_pairs"].cast(pa.int64()),
            "lmbo_score": pa.array(w // n, pa.int64()),
        })

    return sums.map_batches(score, batch_format="pyarrow")


LM_BACKOFF_SCORE_SQL = rf"""
WITH l AS (
  SELECT doc_id,
         regexp_extract_all(lower(coalesce(text, '')), '\S+') AS toks
  FROM documents
), p AS (
  SELECT doc_id,
         unnest(list_slice(toks, 1, len(toks) - 1)) AS w1,
         unnest(list_slice(toks, 2, len(toks))) AS w2
  FROM l WHERE len(toks) >= 2
), pcnt AS (
  SELECT doc_id, w1, w2, CAST(count(*) AS BIGINT) AS tf2
  FROM p GROUP BY doc_id, w1, w2
), c2a AS (
  SELECT w1, w2, CAST(sum(tf2) AS BIGINT) AS n2
  FROM pcnt WHERE doc_id % 2 = 0 GROUP BY w1, w2
), c1a AS (
  SELECT w1, CAST(sum(n2) AS BIGINT) AS n1 FROM c2a GROUP BY w1
), uni AS (
  SELECT t.token AS token, CAST(count(*) AS BIGINT) AS ctf
  FROM l, unnest(toks) AS t(token)
  WHERE doc_id % 2 = 0 GROUP BY t.token
), tot AS (
  SELECT CAST(coalesce(sum(ctf), 0) AS BIGINT) AS n FROM uni
), contrib AS (
  SELECT pcnt.doc_id, pcnt.tf2,
         CASE WHEN c2a.n2 IS NOT NULL
              THEN ({LM_SCALE} * c2a.n2) // c1a.n1
              WHEN tot.n = 0 THEN 0
              ELSE ({LMBO_ALPHA_NUM} * {LM_SCALE}
                    * coalesce(uni.ctf, 0))
                   // ({LMBO_ALPHA_DEN} * tot.n)
         END AS c
  FROM pcnt
  LEFT JOIN c2a USING (w1, w2)
  LEFT JOIN c1a USING (w1)
  LEFT JOIN uni ON uni.token = pcnt.w2
  CROSS JOIN tot
)
SELECT doc_id,
       CAST(sum(tf2 * c) AS BIGINT) AS wsum,
       CAST(sum(tf2) AS BIGINT) AS n_pairs,
       CAST(sum(tf2 * c) // sum(tf2) AS BIGINT) AS lmbo_score
FROM contrib GROUP BY doc_id
"""

"""Deduplication operators over the ``documents`` table.

Four variants (each a ``queries()`` entry):

- exact        md5(text) → hash-partitioned groupby → keep min doc_id.
               SQL-mirrored (DEDUP_EXACT_SQL).
- minhash-lsh  word-shingle MinHash → band buckets → candidate pairs →
               Jaccard verify → connected components → keep cluster min.
- simhash      64-bit SimHash over token hashes; near-dup = Hamming ≤ 3,
               candidates via 4×16-bit band buckets.
- ngram        character-n-gram Jaccard verification (the exact kernel
               the LSH variants approximate) — standalone pairwise op
               within buckets.

Scale notes: every variant pre-aggregates inside map_batches before its
groupby; candidate-pair generation happens in the band-bucket groupby
(distributed); only the pair list (bounded by true-duplicate density,
not corpus size) reaches the driver for the union-find. For adversarial
pair explosions, cap pairs per bucket (MAX_PAIRS_PER_BUCKET) and log the
drop — no silent truncation.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa

from .entity_merge import (
    _MH_A, _MH_B, NUM_PERMS, _UnionFind, _cap_event, _hash64,
    hash_shingle_array, perm_min_hashes,
)

# RE2-'\S+'-exact tokenizer. The SQL oracles tokenize with DuckDB's
# regexp_extract_all(..., '\S+'), and RE2's \s is ASCII-only
# ([\t\n\f\r ]) — str.split() would ALSO split on \x0b and Unicode
# whitespace (NBSP, NEL, ideographic space), so a document containing
# any of those would give the engine different tokens than the oracle
# (and the in-run certificates, which run the engine tokenizer on both
# sides, could not catch it). Every dedup path with a regexp-based SQL
# mirror tokenizes through this helper.
_RE2_NONSPACE = re.compile(r"[^\t\n\f\r ]+")
# the chars str.split() treats as whitespace but RE2 '\S+' does not
# (derived from the same unicodedata the interpreter splits on, so it
# can never drift from str.split()): on a text containing NONE of
# these, the two tokenizations are identical and the ~3x faster
# C-level str.split() is exact (equivalence property-tested in
# tests/test_review_r4b.py). All Unicode whitespace is in the BMP.
_EXOTIC_WS = re.compile("[" + "".join(
    re.escape(chr(c)) for c in range(0x10000)
    if chr(c).isspace() and chr(c) not in "\t\n\f\r ") + "]")


def ws_tokens(text: str) -> list[str]:
    if _EXOTIC_WS.search(text) is None:
        return text.split()
    return _RE2_NONSPACE.findall(text)


BANDS = 16
ROWS_PER_BAND = NUM_PERMS // BANDS
MAX_PAIRS_PER_BUCKET = 10_000
# verified-pair count above which minhash_lsh_dedup swaps its driver
# union-find for the fully distributed label propagation
DISTRIBUTED_LABELER_PAIRS = 5_000_000
PAIR_SHARDS = 64     # MINIMUM coarse shards for the hot-bucket pair
# groupby; _pairs_from_buckets scales the count up with the banded row
# count so one shard group stays ~TARGET_ROWS_PER_PAIR_SHARD rows
MAX_PAIR_SHARDS = 4096
TARGET_ROWS_PER_PAIR_SHARD = 2_000_000


# --- exact dedup ---

def content_hash_batch(batch: pa.Table) -> pa.Table:
    from .text import md5_hex_list

    return pa.table({
        "doc_id": batch["doc_id"],
        "content_hash": pa.array(
            md5_hex_list(batch["text"].to_pylist()), pa.string()),
    })


def exact_dedup(docs):
    """documents Dataset → (content_hash, keep_doc_id, n_dups).

    Vectorized reduce (groupby().aggregate), not per-group Python — a
    per-group map_groups here costs ~1ms × |distinct hashes|."""
    from ray.data.aggregate import Count, Min

    hashed = docs.map_batches(content_hash_batch, batch_format="pyarrow",
                              batch_size=8192)
    return hashed.groupby("content_hash").aggregate(
        Min("doc_id", alias_name="keep_doc_id"),
        Count(alias_name="n_dups"))


DEDUP_EXACT_SQL = """
SELECT md5(text) AS content_hash,
       CAST(min(doc_id) AS BIGINT) AS keep_doc_id,
       CAST(count(*) AS BIGINT) AS n_dups
FROM documents GROUP BY md5(text)
"""


# --- MinHash + LSH ---

def word_shingles(text: str, k: int = 3) -> set[str]:
    toks = ws_tokens(text.lower())
    if len(toks) < k:
        return {" ".join(toks)} if toks else set()
    return {" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)}


# char-gram variant uses its OWN 144-perm family (separate RNG stream so
# the word-shingle family in entity_merge stays byte-identical):
# more perms let char banding run 16 bands x 9 rows — the 9-row band
# keeps background admission at the 8-row level (~2% at J=0.48) while 16
# bands cut the per-pair miss at near-threshold J=0.91 from 6.6e-3 to
# 1.5e-4, keeping construction-based planted oracles deterministic well
# beyond bench scale.
CHAR_PERMS = 144
_mh_char_rng = np.random.RandomState(0x5EEDCAFE)
_MH_A_CHAR = ((_mh_char_rng.randint(0, 1 << 62, size=CHAR_PERMS)
               .astype(np.uint64) << np.uint64(1)) | np.uint64(1))
_MH_B_CHAR = (_mh_char_rng.randint(0, 1 << 32, size=CHAR_PERMS)
              .astype(np.uint64) << np.uint64(32)) \
    | _mh_char_rng.randint(0, 1 << 32, size=CHAR_PERMS).astype(np.uint64)


def minhash_sig(text: str) -> np.ndarray:
    """64-perm MinHash via vectorized shingle hashing + the
    multiply-shift matrix (no per-permutation Python loop)."""
    sh = word_shingles(text)
    if not sh:
        return np.zeros(NUM_PERMS, dtype=np.uint64)
    return perm_min_hashes(hash_shingle_array(list(sh)))


MAX_SHINGLES_PER_PASS = 500_000   # caps the (64 × S) matrix ≈ 256 MB


def _batch_sigs(shingle_sets: list, A: np.ndarray = _MH_A,
                B: np.ndarray = _MH_B) -> np.ndarray:
    """All docs' signatures at once: one flat hash pass + a
    (num_perms × ≤MAX_SHINGLES_PER_PASS) multiply + segment-min
    (reduceat) per chunk, split on document boundaries so peak memory
    stays bounded regardless of document length × batch size. ``A``/``B``
    select the permutation family (word default, or the 128-perm char
    family)."""
    flat: list = []
    starts: list[int] = []
    nonempty: list[int] = []
    for i, sh in enumerate(shingle_sets):
        if sh:
            nonempty.append(i)
            starts.append(len(flat))
            flat.extend(sh)
    sigs = np.zeros((len(shingle_sets), len(A)), dtype=np.uint64)
    if not flat:
        return sigs
    base = hash_shingle_array(flat)
    starts_arr = np.array(starts + [len(flat)])
    # keep the (len(A) x S) multiply matrix at the same ~256 MB ceiling
    # regardless of the permutation-family size
    max_pass = MAX_SHINGLES_PER_PASS * NUM_PERMS // len(A)
    lo_doc = 0
    while lo_doc < len(nonempty):
        hi_doc = lo_doc
        while hi_doc < len(nonempty) and (
                starts_arr[hi_doc + 1] - starts_arr[lo_doc]
                <= max_pass or hi_doc == lo_doc):
            hi_doc += 1
        s0, s1 = starts_arr[lo_doc], starts_arr[hi_doc]
        chunk = base[s0:s1]
        vals = (A[:, None] * chunk[None, :] + B[:, None])
        mins = np.minimum.reduceat(
            vals, starts_arr[lo_doc:hi_doc] - s0, axis=1)
        sigs[np.array(nonempty[lo_doc:hi_doc])] = mins.T
        lo_doc = hi_doc
    return sigs


def _band_rows(doc_ids: list, sigs: np.ndarray, seed: int,
               bands: int = BANDS) -> pa.Table:
    """(n_docs × num_perms) signatures → ``bands`` rows per doc of
    (band_id, band_hash, doc_id), fully vectorized: the band hash is a
    seeded splitmix64 chain over the band's num_perms//bands minima, one
    numpy pass per row position — no per-(doc × band) Python. Equal
    chunks hash equal (recall preserved); accidental collisions only add
    candidates that Jaccard verification rejects."""
    rows_per_band = sigs.shape[1] // bands if sigs.ndim == 2 else \
        NUM_PERMS // bands
    n = len(doc_ids)
    if n == 0:
        return pa.table({
            "band_id": pa.array([], pa.int32()),
            "band_hash": pa.array([], pa.int64()),
            "doc_id": pa.array([], pa.int64()),
        })
    chunks = np.ascontiguousarray(sigs, dtype=np.uint64).reshape(
        n, bands, rows_per_band)
    h = np.broadcast_to(
        _hash64(np.arange(bands, dtype=np.uint64) + np.uint64(seed)),
        (n, bands)).copy()
    for r in range(rows_per_band):
        h = _hash64(h ^ chunks[:, :, r])
    return pa.table({
        "band_id": pa.array(
            np.tile(np.arange(bands, dtype=np.int32), n), pa.int32()),
        "band_hash": pa.array(h.reshape(-1).view(np.int64), pa.int64()),
        "doc_id": pa.array(
            np.repeat(np.asarray(doc_ids, dtype=np.int64), bands),
            pa.int64()),
    })


class MinHashStage:
    """map_batches: (doc_id, text) → BANDS rows (band_id, band_hash,
    doc_id) — the explode step of shingle→minhash→band, with batch-wide
    vectorized signatures."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        sigs = _batch_sigs([word_shingles(t or "") for t in texts])
        return _band_rows(doc_ids, sigs, 77)




def _label_clusters(docs, cluster_of: dict[int, int]):
    """Broadcast the (small) cluster map and emit
    (doc_id, cluster_id, keep) for every document."""
    import ray
    import pyarrow as pa

    ref = ray.put(cluster_of)

    def label(batch: pa.Table, *, _ref=ref) -> pa.Table:
        import ray as _ray
        mapping = _ray.get(_ref)
        ids = [int(x) for x in batch["doc_id"].to_pylist()]
        clusters = [mapping.get(d, d) for d in ids]
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "cluster_id": pa.array(clusters, pa.int64()),
            "keep": pa.array([c == d for d, c in zip(ids, clusters)],
                             pa.bool_()),
        })

    return docs.map_batches(label, batch_format="pyarrow",
                            batch_size=8192)


# verify shard count SCALES with the candidate-pair count: every doc's
# gram array ships once per shard that holds one of its pairs, so a
# fixed large shard count multiplies the gram shuffle weight by
# min(shards, pairs_per_doc) — on dup-heavy corpora nearly every doc
# touched 2/3 of 64 shards. ~20k pairs per shard keeps the in-shard
# vectorized Jaccard pass sub-second while bounding duplication.
PAIRS_PER_VERIFY_SHARD = 20_000
MAX_VERIFY_SHARDS = 4096


def _n_verify_shards(n_pairs: int) -> int:
    import math

    return int(min(MAX_VERIFY_SHARDS,
                   max(8, math.ceil(n_pairs / PAIRS_PER_VERIFY_SHARD))))


def _verified_pairs(docs, pairs, kind: str, threshold: float):
    """Driver-side convenience: ``_verified_pairs_ds(...)`` collected to
    pandas — for the union-find paths whose pair lists are known small
    (dup-density-bounded, capped)."""
    return _verified_pairs_ds(docs, pairs, kind, threshold).to_pandas()


def _empty_pairs_ds():
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "a": pa.array([], pa.int64()),
        "b": pa.array([], pa.int64())}))


def _pair_hash64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Order-sensitive 64-bit pair hash (pairs are normalized a < b by
    the generators, so order sensitivity is fine) — the pure-pair
    routing key that makes duplicate candidates from different LSH
    buckets co-locate in one verify shard."""
    ua = np.ascontiguousarray(a, dtype=np.int64).view(np.uint64)
    ub = np.ascontiguousarray(b, dtype=np.int64).view(np.uint64)
    return _hash64(_hash64(ua) ^ ub)


def _dedupe_pairs_ds(pairs_ds, num_shards: int = 64):
    """Distributed global pair dedup: route by the pure pair hash
    (duplicates co-locate), per-shard pandas drop_duplicates. One
    exchange over id pairs only — spent ONLY where a consumer needs a
    true unique count/list (e.g. the simhash labeler decision when the
    raw multi-band count crosses the swap bound)."""
    import pandas as pd

    def add_shard(t: pa.Table, _n=num_shards) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        shard = (_pair_hash64(a, b) % np.uint64(_n)).astype(np.int32)
        # batch-local pre-dedupe cuts the exchange volume
        return pa.table({
            "a": pa.array(a, pa.int64()),
            "b": pa.array(b, pa.int64()),
            "_pshard": pa.array(shard),
        }).group_by(["a", "b", "_pshard"]).aggregate([]).select(
            ["a", "b", "_pshard"])

    def drop_dups(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(subset=["a", "b"])[["a", "b"]]

    return pairs_ds.map_batches(add_shard, batch_format="pyarrow") \
        .groupby("_pshard").map_groups(drop_dups, batch_format="pandas")


# gram-join doc buckets: one bucket's task materializes its docs' texts,
# so the bucket count scales with the doc count (callers pass
# n_docs_hint when they know it — the dedup pipelines do)
DOCS_PER_GRAM_BUCKET = 50_000
MAX_GRAM_BUCKETS = 4096

_EMPTY_GRAM_ROWS = pa.table({
    "shard": pa.array([], pa.int32()),
    "role": pa.array([], pa.string()),
    "a": pa.array([], pa.int64()),
    "b": pa.array([], pa.int64()),
    "doc_id": pa.array([], pa.int64()),
    "grams": pa.array([], pa.large_list(pa.uint64())),
})


def _gram_list_array(arrays: list, n: int) -> pa.LargeListArray:
    # one flat buffer + offsets instead of a per-row Python list
    # conversion (the gram column is the bulk of the shuffle).
    # LARGE list: a doc-bucket group holds up to DOCS_PER_GRAM_BUCKET
    # docs' gram arrays, each replicated once per shard that needs it,
    # so the flat element count can exceed int32 offsets on dup-heavy
    # corpora — int32 would wrap (crash, or silent truncation past
    # 2^32 → wrong Jaccard verdicts)
    lens = np.fromiter((len(x) for x in arrays), dtype=np.int64,
                       count=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    flat = np.concatenate(arrays) if n else np.zeros(0, dtype=np.uint64)
    return pa.LargeListArray.from_arrays(
        pa.array(offsets, pa.int64()),
        pa.array(flat, pa.uint64()))


def _verified_pairs_ds(docs, pairs, kind: str, threshold: float,
                       n_docs_hint: int | None = None):
    """Candidate pairs → VERIFIED pair Dataset (a, b), with the exact
    gram-Jaccard check running DISTRIBUTED and the pair list staying a
    Dataset END-TO-END — no driver-side pair materialization, need-map
    dict, or text dict at any scale:

    1. every (a, b) candidate routes to verify shard
       ``_pair_hash64(a, b) % nshards`` in a map_batches pass. The
       shard key is a pure function of the pair, so duplicate
       candidates emitted by different LSH buckets co-locate and are
       dropped IN-shard (``drop_duplicates``) — global dedup without a
       dedicated exchange.
    2. need rows (doc_id, shard) — 12 bytes each — co-group with the
       (doc_id, text) rows by ``hash64(doc_id) % n_buckets`` (a
       distributed semi-join replacing the old ``ray.put`` need-map
       broadcast, which was a driver dict of O(|pairs|) entries). Each
       bucket hashes a needed doc's grams ONCE (vectorized siphash,
       sorted unique uint64 array) and ships the ARRAY — not the text —
       to exactly the shards holding one of its pairs.
    3. per-pair Jaccard is ``np.intersect1d(assume_unique=True)`` over
       int arrays. A 64-bit gram-hash collision would be needed to
       change any |A∩B| (2^-64 per distinct-gram pair — negligible even
       for the exact oracles).

    ``pairs`` may be a Ray Dataset (the scale path) or a small pandas
    DataFrame (the certificate referees). kind: 'word' → word-3-shingle
    Jaccard; 'char' → char-3-gram Jaccard. ``n_docs_hint`` sizes the
    gram-join buckets (~DOCS_PER_GRAM_BUCKET docs of text per bucket
    task); without it the bucket count follows the verify-shard count."""
    import pandas as pd
    import ray.data as rd

    if not isinstance(pairs, rd.Dataset):
        if not len(pairs):
            return _empty_pairs_ds()
        pairs = rd.from_arrow(pa.table({
            "a": pa.array(pairs["a"].astype("int64"), pa.int64()),
            "b": pa.array(pairs["b"].astype("int64"), pa.int64())}))
    pairs = pairs.materialize()
    n_pairs = pairs.count()
    if n_pairs == 0:
        return _empty_pairs_ds()
    nsh = _n_verify_shards(n_pairs)
    if n_docs_hint is None:
        n_buckets = max(32, nsh)
    else:
        n_buckets = max(32, -(-int(n_docs_hint) // DOCS_PER_GRAM_BUCKET))
    n_buckets = int(min(MAX_GRAM_BUCKETS, n_buckets))

    gram = word_shingles if kind == "word" else \
        (lambda x: char_ngrams(x, 3))

    def _ab(batch: pa.Table):
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return a, b

    def roster(batch: pa.Table, _n=nsh) -> pa.Table:
        a, b = _ab(batch)
        shard = (_pair_hash64(a, b) % np.uint64(_n)).astype(np.int32)
        n = len(a)
        return pa.table({
            "shard": pa.array(shard),
            "role": pa.array(["p"] * n, pa.string()),
            "a": pa.array(a, pa.int64()),
            "b": pa.array(b, pa.int64()),
            "doc_id": pa.array(np.full(n, -1, np.int64), pa.int64()),
            "grams": pa.nulls(n, pa.large_list(pa.uint64())),
        })

    def need_rows(batch: pa.Table, _n=nsh, _nb=n_buckets) -> pa.Table:
        a, b = _ab(batch)
        shard = (_pair_hash64(a, b) % np.uint64(_n)).astype(np.int64)
        doc = np.concatenate([a, b])
        sh = np.concatenate([shard, shard])
        # batch-local dedupe: a doc's pairs within one shard need its
        # grams once (the bucket join dedupes cross-batch repeats)
        uniq = np.unique(np.stack([doc, sh], axis=1), axis=0)
        doc, sh = uniq[:, 0], uniq[:, 1].astype(np.int32)
        bucket = (_hash64(doc.view(np.uint64))
                  % np.uint64(_nb)).astype(np.int32)
        return pa.table({
            "dbucket": pa.array(bucket),
            "role": pa.array(["n"] * len(doc), pa.string()),
            "doc_id": pa.array(doc, pa.int64()),
            "shard": pa.array(sh),
            "text": pa.nulls(len(doc), pa.large_string()),
        })

    def doc_rows(batch: pa.Table, _nb=n_buckets) -> pa.Table:
        ids = batch["doc_id"].to_numpy(
            zero_copy_only=False).astype(np.int64)
        bucket = (_hash64(ids.view(np.uint64))
                  % np.uint64(_nb)).astype(np.int32)
        return pa.table({
            "dbucket": pa.array(bucket),
            "role": pa.array(["d"] * len(ids), pa.string()),
            "doc_id": pa.array(ids, pa.int64()),
            "shard": pa.array(np.full(len(ids), -1, np.int32)),
            "text": batch["text"].cast(pa.large_string()),
        })

    bucketed = pairs.map_batches(need_rows, batch_format="pyarrow") \
        .union(docs.map_batches(doc_rows, batch_format="pyarrow"))

    def gram_bucket(g: pd.DataFrame, _gram=gram) -> pa.Table:
        needs = g[g["role"] == "n"]
        if needs.empty:
            return _EMPTY_GRAM_ROWS
        # doc → sorted unique shard list (the distributed need map)
        need_map = {
            int(d): np.unique(sub.to_numpy())
            for d, sub in needs.groupby("doc_id")["shard"]}
        dpart = g[g["role"] == "d"]
        dsel = dpart[dpart["doc_id"].isin(need_map.keys())]
        out_shard: list[int] = []
        out_doc: list[int] = []
        out_grams: list[np.ndarray] = []
        for d, t in zip(dsel["doc_id"], dsel["text"]):
            hashes = np.sort(hash_shingle_array(list(_gram(t or ""))))
            for sh in need_map[int(d)]:
                out_shard.append(int(sh))
                out_doc.append(int(d))
                out_grams.append(hashes)
        n = len(out_doc)
        return pa.table({
            "shard": pa.array(out_shard, pa.int32()),
            "role": pa.array(["t"] * n, pa.string()),
            "a": pa.array(np.full(n, -1, np.int64), pa.int64()),
            "b": pa.array(np.full(n, -1, np.int64), pa.int64()),
            "doc_id": pa.array(out_doc, pa.int64()),
            "grams": _gram_list_array(out_grams, n),
        })

    grams_ds = bucketed.groupby("dbucket").map_groups(
        gram_bucket, batch_format="pandas")
    unioned = pairs.map_batches(roster, batch_format="pyarrow") \
        .union(grams_ds)

    def verify_shard(g: pd.DataFrame, _t=threshold):
        texts_df = g[g["role"] == "t"][["doc_id", "grams"]]
        # duplicate doc_id rows: keep last (parity with the replaced
        # dict(zip(...)) driver semi-join)
        grams_of = {int(d): np.asarray(v, dtype=np.uint64)
                    for d, v in zip(texts_df["doc_id"],
                                    texts_df["grams"])}
        # in-shard global dedup: the shard key is a pure pair function
        gp = g[g["role"] == "p"].drop_duplicates(subset=["a", "b"])
        empty = np.zeros(0, dtype=np.uint64)
        av, bv = [], []
        # per-PAIR loop over numpy intersect of the two (sorted unique)
        # gram arrays. Deliberately NOT a fused lexsort over all pairs:
        # the fused form touches ~300 rows/pair of fresh memory and goes
        # memory-bandwidth-bound when verify shards run concurrently
        # (measured 8x slower at 16 concurrent tasks), while per-pair
        # intersects stay in L1/L2 (~17us/pair incl. Python dispatch;
        # shards bound the per-task pair count so tasks stay sub-second)
        for da, db in zip(gp["a"].astype(int), gp["b"].astype(int)):
            sa = grams_of.get(da, empty)
            sb = grams_of.get(db, empty)
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            un = len(sa) + len(sb) - inter
            if un and inter / un >= _t:
                av.append(da)
                bv.append(db)
        return pa.table({"a": pa.array(av, pa.int64()),
                         "b": pa.array(bv, pa.int64())})

    return unioned.groupby("shard").map_groups(
        verify_shard, batch_format="pandas")


def _pairs_from_buckets(banded, key_cols: list[str], pair_fn=None,
                        strict_caps: bool = False):
    """(key_cols..., doc_id, ...) rows → candidate-pair DATASET (a, b).

    The pair list never touches the driver: the result is a lazy Ray
    Dataset that downstream stages consume in the object store. It MAY
    contain duplicates (the same pair found in several buckets) — the
    verify shard of ``_verified_pairs_ds`` drops them in-shard (its
    shard key is a pure function of the pair, so duplicates co-locate),
    and the union-find / min-label consumers are idempotent under
    repeated edges, so no dedicated dedup exchange is spent anywhere.

    ONE shuffle: every banded row is routed to a coarse shard by a
    fused 64-bit key of the bucket columns (a whole bucket always lands
    in one shard), then inside each shard a VECTORIZED duplicated() mask
    drops the (overwhelmingly singleton) buckets before the per-bucket
    pair generator runs over the survivors with an in-process pandas
    groupby. Two prior designs lost here: a count-aggregate pre-filter
    cost a second full shuffle plus a driver-side hot-key set, and a
    ``groupby(bucket)`` paid Ray's ~1ms per-group dispatch × tens of
    thousands of tiny near-dup buckets.

    ``pair_fn`` (default ``_bucket_pairs``) runs per hot bucket and may
    VERIFY in-bucket using any extra columns carried in ``banded`` (e.g.
    the simhash signature) so only verified pairs reach the driver.

    The shard count SCALES with the banded row count (Ray's map_groups
    materializes one whole group per task, so a fixed shard count would
    make per-task memory O(corpus/shards) at 100-TB shape): the banded
    stream is materialized first — free, the groupby below is an
    all-to-all barrier over the same blocks anyway — and sharded so one
    shard holds ~TARGET_ROWS_PER_PAIR_SHARD rows."""
    import functools
    import math

    import pandas as pd

    banded = banded.materialize()
    num_shards = int(min(MAX_PAIR_SHARDS, max(
        PAIR_SHARDS, math.ceil(banded.count() / TARGET_ROWS_PER_PAIR_SHARD))))

    def add_shard(t, _cols=key_cols, _n=num_shards):
        # chained splitmix64 over the (all-integer) key columns; a
        # collision only co-locates two buckets in one shard — the
        # in-shard groupby is on the real key columns
        cols = [t[c].to_numpy(zero_copy_only=False) for c in _cols]
        h = _hash64(cols[0].astype(np.int64).view(np.uint64))
        for c in cols[1:]:
            h = _hash64(h ^ c.astype(np.int64).view(np.uint64))
        shard = pa.array((h % np.uint64(_n)).astype(np.int32),
                         pa.int32())
        return t.append_column("_shard", shard)

    bucket_fn = pair_fn or functools.partial(_bucket_pairs,
                                             strict=strict_caps)
    empty = pd.DataFrame({"a": pd.Series(dtype="int64"),
                          "b": pd.Series(dtype="int64")})

    def shard_pairs(g, _cols=tuple(key_cols), _fn=bucket_fn,
                    _empty=empty):
        hot = g[g.duplicated(subset=list(_cols), keep=False)]
        if hot.empty:
            return _empty
        outs = [_fn(sub) for _, sub in hot.groupby(list(_cols),
                                                   sort=False)]
        outs = [o for o in outs if len(o)]
        return pd.concat(outs, ignore_index=True) if outs else _empty

    return banded.map_batches(add_shard, batch_format="pyarrow") \
        .groupby("_shard").map_groups(shard_pairs, batch_format="pandas")


def _bucket_pairs(g, strict: bool = False):
    """One LSH bucket's doc_ids → candidate pairs (capped — warned, or
    raised under ``strict``; never silent)."""
    import pandas as pd

    ids = sorted(set(int(x) for x in g["doc_id"]))
    pairs = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            pairs.append((ids[i], ids[j]))
            if len(pairs) >= MAX_PAIRS_PER_BUCKET:
                _cap_event(
                    f"LSH bucket with {len(ids)} docs exceeded "
                    f"MAX_PAIRS_PER_BUCKET={MAX_PAIRS_PER_BUCKET}; "
                    f"candidate pairs truncated — consider more bands "
                    f"or a higher cap", strict)
                return pd.DataFrame(pairs, columns=["a", "b"])
    return pd.DataFrame(pairs, columns=["a", "b"]) if pairs else \
        pd.DataFrame({"a": pd.Series(dtype="int64"),
                      "b": pd.Series(dtype="int64")})


# registered thresholds — shared between the function defaults and the
# exact SQL oracles below so they can never drift apart
MINHASH_THRESHOLD = 0.7
NGRAM_THRESHOLD = 0.8
SIMHASH_MAX_HAMMING = 3
# simhash in-bucket verification is signature-only, so its member
# bound is memory-driven (chunked popcount), far above the text caps
SIMHASH_MAX_BUCKET_MEMBERS = 65536
# byte budget per pairwise-XOR pass (the dominant transient); chunk
# rows adapt to the bucket's distinct-signature count so peak memory
# is constant regardless of bucket size
_SIMHASH_PASS_BYTES = 1 << 26
# 256-entry popcount LUT: pop(uint64) = LUT[byte view].sum(axis=-1).
# np.unpackbits would expand the XOR matrix ×64 (2.1 GB at the member
# cap); the LUT pass peaks at the byte view's own size.
_POPCOUNT8 = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
        axis=1).astype(np.uint8)


def hamming_pairs(ids: np.ndarray, sigs: np.ndarray, max_hamming: int,
                  strict: bool = False):
    """All (a, b) doc-id pairs, a < b, with popcount(sig_a ^ sig_b) ≤
    max_hamming — CONNECTIVITY-exact, not pair-list-exact: rows sharing
    an identical signature are linked to their group's min-id
    representative by star edges (Hamming 0), and the pairwise scan
    runs over DISTINCT signatures only, emitting representative pairs.
    The transitive closure (the only thing the union-find/labeling
    consumers read) is identical to the full all-pairs edge set, while
    a bucket of m exact duplicates costs O(m) instead of O(m²) — both
    in popcount work and in emitted pair volume.

    Requires ``ids`` sorted ascending and unique. Returns two int64
    arrays. The shared kernel for the in-bucket verifier AND the
    certificate referee (pipelines.training_data), so a popcount fix
    lands in both or neither."""
    m = len(ids)
    if m < 2:
        z = np.zeros(0, np.int64)
        return z, z
    usig, first_idx, inv = np.unique(
        sigs, return_index=True, return_inverse=True)
    reps = ids[first_idx]        # ids ascending → first occurrence = min
    star = ids != reps[inv]
    out_a = [reps[inv][star].astype(np.int64)]
    out_b = [ids[star].astype(np.int64)]
    u = len(usig)
    if u > SIMHASH_MAX_BUCKET_MEMBERS:
        _cap_event(
            f"SimHash bucket with {u} DISTINCT signatures exceeds "
            f"SIMHASH_MAX_BUCKET_MEMBERS={SIMHASH_MAX_BUCKET_MEMBERS}; "
            f"cross-signature scan truncated to the cap (star edges "
            f"kept) — consider wider bands or a higher cap", strict)
        usig, reps = usig[:SIMHASH_MAX_BUCKET_MEMBERS], \
            reps[:SIMHASH_MAX_BUCKET_MEMBERS]
        u = SIMHASH_MAX_BUCKET_MEMBERS
    if u >= 2:
        chunk = max(1, _SIMHASH_PASS_BYTES // (u * 8))
        for i0 in range(0, u, chunk):
            x = usig[i0:i0 + chunk]
            xor = x[:, None] ^ usig[None, :]
            pop = _POPCOUNT8[xor.view(np.uint8).reshape(
                len(x), u, 8)].sum(axis=2, dtype=np.uint16)
            ii, jj = np.nonzero(pop <= max_hamming)
            keep_ij = (i0 + ii) < jj        # strict upper triangle
            ra = reps[i0 + ii[keep_ij]]
            rb = reps[jj[keep_ij]]
            # usig is signature-ordered, not id-ordered — normalize
            out_a.append(np.minimum(ra, rb).astype(np.int64))
            out_b.append(np.maximum(ra, rb).astype(np.int64))
    return np.concatenate(out_a), np.concatenate(out_b)

# shared SQL tail: undirected transitive closure over a (tiny,
# dup-density-bounded) edge set + min-id labeling — the exact mirror of
# the engine's union-find (_UnionFind / cluster_pairs_distributed both
# produce min-reachable-id labels)
_CLOSURE_SQL_TAIL = """
und AS (SELECT a, b FROM edges UNION SELECT b AS a, a AS b FROM edges),
r(n, m) AS (
  SELECT doc_id, doc_id FROM documents
  UNION
  SELECT r.n, u.b FROM r JOIN und u ON u.a = r.m
)
SELECT CAST(n AS BIGINT) AS doc_id,
       CAST(min(m) AS BIGINT) AS cluster_id,
       n = min(m) AS keep
FROM r GROUP BY n
"""

# exact oracle for the RAW minhash row: ground-truth word-3-shingle
# Jaccard >= MINHASH_THRESHOLD pairs (the quantity MinHash/LSH
# candidate generation approximates; verification is exact either way),
# then the same closure labeling. Valid whenever LSH candidate recall
# is 1.0 on the corpus — certified IN-RUN by the registered checked
# wrapper (training_data.q_dedup_minhash_checked). O(n^2)-join
# SQL is fine: oracles only ever run at the sf0.01 gate (500 docs).
DEDUP_MINHASH_EXACT_SQL = rf"""
WITH RECURSIVE
toks AS (
  SELECT doc_id,
         regexp_extract_all(lower(coalesce(text, '')), '\S+') AS w
  FROM documents
),
sh AS (
  SELECT DISTINCT doc_id,
         CASE WHEN len(w) >= 3
              THEN w[i] || ' ' || w[i+1] || ' ' || w[i+2]
              ELSE array_to_string(w, ' ') END AS s
  FROM toks, unnest(generate_series(1, greatest(len(w) - 2, 1))) AS g(i)
  WHERE len(w) >= 1
),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY 1),
inter AS (
  SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS i
  FROM sh x JOIN sh y ON x.s = y.s AND x.doc_id < y.doc_id
  GROUP BY 1, 2
),
edges AS (
  SELECT a, b FROM inter
  JOIN sizes sa ON sa.doc_id = inter.a
  JOIN sizes sb ON sb.doc_id = inter.b
  WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= {MINHASH_THRESHOLD}
),
{_CLOSURE_SQL_TAIL}
"""

# exact oracle for the RAW ngram row: char-3-gram Jaccard >=
# NGRAM_THRESHOLD ground truth (same closure; same in-run certificate)
DEDUP_NGRAM_EXACT_SQL = rf"""
WITH RECURSIVE
lowered AS (
  SELECT doc_id, lower(coalesce(text, '')) AS t FROM documents
),
sh AS (
  SELECT DISTINCT doc_id,
         CASE WHEN length(t) >= 3 THEN substr(t, i, 3) ELSE t END AS s
  FROM lowered,
       unnest(generate_series(1, greatest(length(t) - 2, 1))) AS g(i)
  WHERE length(t) >= 1
),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY 1),
inter AS (
  SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS i
  FROM sh x JOIN sh y ON x.s = y.s AND x.doc_id < y.doc_id
  GROUP BY 1, 2
),
edges AS (
  SELECT a, b FROM inter
  JOIN sizes sa ON sa.doc_id = inter.a
  JOIN sizes sb ON sb.doc_id = inter.b
  WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= {NGRAM_THRESHOLD}
),
{_CLOSURE_SQL_TAIL}
"""


def minhash_lsh_dedup(docs, threshold: float = MINHASH_THRESHOLD,
                      labeler=None,
                      strict_caps: bool = False):
    """documents → (doc_id, cluster_id, keep) via MinHash/LSH.

    Stages: minhash+band explode (map_batches) → one-shuffle sharded
    candidate pairs → DISTRIBUTED exact shingle-Jaccard verification
    (texts joined in-cluster; the driver sees only pair lists) →
    cluster labeling. The labeler is ADAPTIVE by default: below
    DISTRIBUTED_LABELER_PAIRS verified pairs the O(|pairs|) driver
    union-find wins (propagation costs several extra shuffle rounds);
    above it the pipeline automatically switches to
    ``cluster_pairs_distributed`` so a dup-heavy corpus never
    materializes a huge pair list's transitive closure on one core.
    Pass ``labeler=`` to force either path (same candidate/verify
    pipeline — ONE definition, no copy to drift)."""
    banded = docs.map_batches(MinHashStage(), batch_format="pyarrow",
                              batch_size=256).materialize()
    n_docs = max(1, banded.count() // BANDS)
    pairs = _pairs_from_buckets(banded, ["band_id", "band_hash"],
                                strict_caps=strict_caps)
    # the CANDIDATE pair list stays a Dataset through verification and
    # the VERIFIED list stays one until the labeler decision: the
    # adaptive swap must trigger BEFORE a huge pair list would be
    # pulled to (and re-shipped from) the driver
    verified_ds = _verified_pairs_ds(docs, pairs, "word", threshold,
                                     n_docs_hint=n_docs).materialize()
    if labeler is None and             verified_ds.count() > DISTRIBUTED_LABELER_PAIRS:
        labeler = cluster_pairs_distributed
    if labeler is not None:
        return labeler(docs, verified_ds)

    verified = verified_ds.to_pandas()   # small: below the swap bound
    uf = _UnionFind()
    for a, b in zip(verified.get("a", []), verified.get("b", [])):
        uf.union(int(a), int(b))
    return _label_clusters(docs, uf.cluster_map())


# --- SimHash ---

# token → uint64 memo for the md5 token hash below: the corpus
# vocabulary repeats across every document, so per-actor the hash runs
# once per DISTINCT token (bounded cache, vocab-sized by design)
_MD5_TOKEN_CACHE: dict[str, int] = {}
_MD5_TOKEN_CACHE_MAX = 4_000_000


def md5_token_u64(tokens: list) -> np.ndarray:
    """uint64 token hashes = first 16 md5 hex chars (big-endian first 8
    digest bytes) — chosen over siphash because DuckDB computes the
    IDENTICAL value via CAST(concat('0x', substr(md5(tok), 1, 16)) AS
    UBIGINT), which is what makes SIMHASH_DEDUP_SQL an exact oracle."""
    import hashlib

    out = np.empty(len(tokens), np.uint64)
    c = _MD5_TOKEN_CACHE
    for i, t in enumerate(tokens):
        v = c.get(t)
        if v is None:
            v = int.from_bytes(
                hashlib.md5(t.encode("utf-8")).digest()[:8], "big")
            if len(c) < _MD5_TOKEN_CACHE_MAX:
                c[t] = v
        out[i] = v
    return out


def simhash64(text: str) -> int:
    """64-bit SimHash: md5 token hashes (SQL-mirrorable — see
    md5_token_u64), weighted by token count, bit votes via
    np.unpackbits. Bit b of the result is 1 iff the weighted vote for
    bit b of the token hashes is strictly positive."""
    from collections import Counter

    counts = Counter(ws_tokens(text.lower()))
    if not counts:
        return 0
    toks = list(counts.keys())
    weights = np.fromiter(counts.values(), dtype=np.int64,
                          count=len(toks))
    h = md5_token_u64(toks)
    bits = np.unpackbits(
        h.view(np.uint8).reshape(-1, 8), axis=1,
        bitorder="little").astype(np.int64)          # (n, 64)
    votes = (bits * 2 - 1).T @ weights               # (64,)
    out = np.uint64(0)
    mask = votes > 0
    powers = (np.uint64(1) << np.arange(64, dtype=np.uint64))
    return int(powers[mask].sum(dtype=np.uint64))


class SimHashStage:
    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        sigs = [simhash64(t or "") for t in texts]
        cols = {
            "doc_id": batch["doc_id"],
            "simhash": pa.array(np.array(sigs, dtype=np.uint64)),
        }
        for band in range(4):
            cols[f"band{band}"] = pa.array(
                [(s >> (band * 16)) & 0xFFFF for s in sigs], pa.int32())
        return pa.table(cols)


def _bucket_pairs_hamming(g, max_hamming: int, strict: bool = False):
    """One SimHash band bucket → VERIFIED pairs (Hamming ≤ max_hamming).

    Both signatures are group rows, so verification happens here — the
    driver never sees a doc→signature map, only the (dup-density-bounded)
    verified pair list. All the work is in the shared ``hamming_pairs``
    kernel (unique-signature reduction + LUT popcount)."""
    import pandas as pd

    ids = g["doc_id"].to_numpy().astype(np.int64)
    sigs = g["simhash"].to_numpy().astype(np.uint64)
    order = np.argsort(ids)
    ids, sigs = ids[order], sigs[order]
    keep = np.concatenate([[True], ids[1:] != ids[:-1]])
    ids, sigs = ids[keep], sigs[keep]
    a, b = hamming_pairs(ids, sigs, max_hamming, strict=strict)
    if len(a) == 0:
        return pd.DataFrame({"a": pd.Series(dtype="int64"),
                             "b": pd.Series(dtype="int64")})
    return pd.DataFrame({"a": a, "b": b})


# exact oracle for the RAW simhash row — possible because simhash64's
# token hash is md5-derived (md5_token_u64), so DuckDB reproduces every
# signature bit-exactly: tokens = '\S+' of lower(text), h = first 16
# md5 hex chars as UBIGINT, bit b votes +count/-count by (h >> b) & 1,
# signature = Σ 2^b over strictly-positive votes, near-dup =
# bit_count(xor(sig_a, sig_b)) <= SIMHASH_MAX_HAMMING, then the shared
# closure labeling. The engine's 4×16-bit banding is pigeonhole-COMPLETE
# for Hamming <= 3 (a pair differing in <= 3 bits has an identical
# band), so candidate recall is 1.0 by construction — the registered
# checked wrapper still certifies the end result in-run and runs with
# strict_caps=True so a bucket cap can never silently truncate.
SIMHASH_DEDUP_SQL = rf"""
WITH RECURSIVE
tok AS (
  SELECT doc_id, t AS tok, CAST(count(*) AS BIGINT) AS w
  FROM documents,
       unnest(regexp_extract_all(lower(coalesce(text, '')), '\S+'))
           AS u(t)
  GROUP BY 1, 2
),
th AS (
  SELECT doc_id,
         CAST(concat('0x', substr(md5(tok), 1, 16)) AS UBIGINT) AS h, w
  FROM tok
),
votes AS (
  SELECT doc_id, b,
         sum(CASE WHEN (h >> b) & 1 = 1 THEN w ELSE -w END) AS v
  FROM th, unnest(generate_series(0, 63)) AS g(b)
  GROUP BY 1, 2
),
rawsig AS (
  SELECT doc_id,
         sum(CASE WHEN v > 0 THEN CAST(1 AS UBIGINT) << b
                  ELSE CAST(0 AS UBIGINT) END) AS sh
  FROM votes GROUP BY 1
),
sigs AS (
  SELECT d.doc_id, CAST(coalesce(s.sh, 0) AS UBIGINT) AS sh
  FROM documents d LEFT JOIN rawsig s USING (doc_id)
),
edges AS (
  SELECT x.doc_id AS a, y.doc_id AS b
  FROM sigs x JOIN sigs y ON x.doc_id < y.doc_id
  WHERE bit_count(xor(x.sh, y.sh)) <= {SIMHASH_MAX_HAMMING}
),
{_CLOSURE_SQL_TAIL}
"""


def simhash_dedup(docs, max_hamming: int = SIMHASH_MAX_HAMMING,
                  strict_caps: bool = False):
    """documents → (doc_id, cluster_id, keep) via SimHash banding.

    Hamming ≤ 3 over 64 bits guarantees at least one of the four 16-bit
    bands matches exactly (pigeonhole) — each band is a groupby bucket.
    Hamming verification runs IN-BUCKET (signatures are group rows); the
    pair list stays a Dataset (union of the four band runs — duplicate
    edges across bands are harmless: the union-find and the min-label
    propagation are both idempotent under repeated edges) and the
    labeler is adaptive like ``minhash_lsh_dedup``'s."""
    import functools

    sigs = docs.map_batches(SimHashStage(), batch_format="pyarrow",
                            batch_size=256).materialize()
    verify = functools.partial(_bucket_pairs_hamming,
                               max_hamming=max_hamming,
                               strict=strict_caps)
    per_band = [
        _pairs_from_buckets(
            sigs.select_columns([f"band{band}", "doc_id", "simhash"]),
            [f"band{band}"], pair_fn=verify)
        for band in range(4)
    ]
    pairs_ds = per_band[0].union(*per_band[1:]).materialize()
    if pairs_ds.count() > DISTRIBUTED_LABELER_PAIRS:
        # the raw count includes cross-band duplicates (a pair can be
        # re-found in up to 4 bands), so it overstates the UNIQUE pair
        # count the swap bound is calibrated for: dedupe (one id-pair
        # exchange, spent only in this regime) and re-decide
        pairs_ds = _dedupe_pairs_ds(pairs_ds).materialize()
    if pairs_ds.count() > DISTRIBUTED_LABELER_PAIRS:
        return cluster_pairs_distributed(docs, pairs_ds)

    all_pairs = pairs_ds.to_pandas()     # small: below the swap bound
    uf = _UnionFind()
    for a, b in zip(all_pairs.get("a", []), all_pairs.get("b", [])):
        uf.union(int(a), int(b))
    return _label_clusters(docs, uf.cluster_map())


# --- n-gram Jaccard (exact verification kernel) ---

def char_ngrams(text: str, n: int = 3) -> set[str]:
    t = text.lower()
    if len(t) < n:
        return {t} if t else set()
    return {t[i:i + n] for i in range(len(t) - n + 1)}


def ngram_jaccard(a: str, b: str, n: int = 3) -> float:
    sa, sb = char_ngrams(a, n), char_ngrams(b, n)
    un = len(sa | sb)
    return len(sa & sb) / un if un else 0.0


CHAR_BANDS = 16   # char-gram banding: 16 bands x 8 rows of CHAR_PERMS.
# Unrelated prose shares MANY char 3-grams (measured cross-doc Jaccard
# median ~0.48 on the synthetic corpus), so the word-shingle 16x4
# banding (S-curve threshold (1/16)^(1/4) ~ 0.5) admits most of the n^2
# pair space as candidates. 8-row bands move the S-curve to ~(1/b)^(1/8)
# ~ 0.71-0.77 — near the 0.8 verification threshold: background pairs
# collapse (~4% admitted at J=0.48) while near-threshold TRUE pairs keep
# real margin: 16 bands square the 8-band per-pair miss probability
# (J=0.91 suffix near-dups: miss 6.6e-3 -> 4.3e-5), so construction-
# based planted oracles stay deterministic well beyond bench scale.


class CharGramMinHashStage:
    """MinHash over character 3-grams (instead of word shingles) — the
    banding front-end for the n-gram Jaccard dedup variant."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        sigs = _batch_sigs([char_ngrams((t or ""), 3) for t in texts],
                           A=_MH_A_CHAR, B=_MH_B_CHAR)
        return _band_rows(doc_ids, sigs, 177, bands=CHAR_BANDS)


def ngram_jaccard_dedup(docs, threshold: float = NGRAM_THRESHOLD,
                        strict_caps: bool = False):
    """documents → (doc_id, cluster_id, keep): near-dup = character
    3-gram Jaccard ≥ threshold, candidates via char-gram MinHash bands,
    verified with the exact gram-Jaccard kernel. Candidate pairs stay a
    Dataset end-to-end; the labeler is adaptive like
    ``minhash_lsh_dedup``'s."""
    banded = docs.map_batches(CharGramMinHashStage(),
                              batch_format="pyarrow",
                              batch_size=256).materialize()
    n_docs = max(1, banded.count() // CHAR_BANDS)
    pairs = _pairs_from_buckets(banded, ["band_id", "band_hash"],
                                strict_caps=strict_caps)
    verified_ds = _verified_pairs_ds(docs, pairs, "char", threshold,
                                     n_docs_hint=n_docs).materialize()
    if verified_ds.count() > DISTRIBUTED_LABELER_PAIRS:
        return cluster_pairs_distributed(docs, verified_ds)

    verified = verified_ds.to_pandas()   # small: below the swap bound
    uf = _UnionFind()
    for a, b in zip(verified.get("a", []), verified.get("b", [])):
        uf.union(int(a), int(b))
    return _label_clusters(docs, uf.cluster_map())


# --- planted-duplicate corpus (construction-based oracles) ---
#
# The LSH dedup variants are probabilistic in *candidate generation*
# only; verification is exact. A corpus where (a) every cross-document
# gram collision is impossible BY CONSTRUCTION and (b) planted
# duplicates have Jaccard ≥ 0.9 therefore has a deterministic,
# SQL-expressible expected output: each planted copy clusters with its
# base and nothing else does.
#
# Construction: interleave a doc-unique CJK character c_i after EVERY
# character of the text. Any 3 consecutive characters then contain c_i,
# so char-3-gram sets of different docs are disjoint; every whitespace
# token contains c_i, so word-shingle sets are disjoint too — even when
# the underlying base texts are near-identical (the real corpus does
# contain cross-doc Jaccard ≈ 0.99 pairs).
#
#   id + OFF_COPY    exact copy       (Jaccard 1; SimHash Hamming 0)
#   id + OFF_SUFFIX  one appended token, only for docs with
#                    ≥ PLANT_MIN_TOKENS tokens → word-shingle Jaccard
#                    = |S|/(|S|+1) ≥ 18/19 on this corpus (LSH miss
#                    probability ≤ (1-0.9⁴)¹⁶ ≈ 4e-8, and the crc-seeded
#                    pipeline is deterministic).
#
# The SimHash planted corpus omits the suffix variant: one extra token
# flips an unbounded number of near-tied sign bits, so only Hamming-0
# exact copies have a construction-guaranteed outcome.

PLANT_OFF_COPY = 1_000_000
PLANT_OFF_SUFFIX = 2_000_000
PLANT_MIN_TOKENS = 20
PLANT_SUFFIX_TOKEN = "planteddup"


def _doc_unique_interleave(text: str, doc_id: int) -> str:
    # two-char unique marker → unique for ~220M doc ids (a single CJK
    # char collides at 20k docs); with the pair inserted after EVERY
    # character, any 3-char window contains at least the second marker,
    # so cross-doc gram collisions stay impossible
    u = chr(0x4E00 + (doc_id % 20000)) + \
        chr(0xAC00 + ((doc_id // 20000) % 11000))
    # C-level join instead of a per-char genexp (identical output:
    # u.join interleaves BETWEEN chars, + u restores the trailing pair)
    return u.join(text) + u if text else ""


def planted_documents(docs, include_suffix: bool = True):
    """documents Dataset → planted corpus Dataset (doc_id, text)."""
    def build(batch: pa.Table) -> pa.Table:
        ids: list[int] = []
        texts: list[str] = []
        for i, t in zip(batch["doc_id"].to_pylist(),
                        batch["text"].to_pylist()):
            i = int(i)
            n_tokens = len(ws_tokens(t or ""))
            if n_tokens == 0:
                # empty/whitespace docs have empty shingle sets (no
                # Jaccard merge possible), SimHash 0 and equal
                # fingerprints ACROSS docs — exclude them entirely
                # (mirrored by WHERE nt >= 1 in the oracles)
                continue
            base = _doc_unique_interleave(t or "", i)
            ids.extend((i, i + PLANT_OFF_COPY))
            texts.extend((base, base))
            if include_suffix and n_tokens >= PLANT_MIN_TOKENS:
                ids.append(i + PLANT_OFF_SUFFIX)
                texts.append(base + _doc_unique_interleave(
                    " " + PLANT_SUFFIX_TOKEN, i))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.large_string()),
        })

    return docs.map_batches(build, batch_format="pyarrow",
                            batch_size=1024)


def minhash_lsh_dedup_planted(docs):
    # strict: the construction-based oracle must FAIL, not under-merge,
    # if a cap ever truncates candidates. The planted corpus is
    # materialized once: the dedup pipeline consumes its docs three
    # times (banding, gram join, labeling) and the interleave transform
    # is the expensive part — a correctness-fixture corpus is small by
    # construction, so pinning it is free (production inputs go through
    # the unwrapped pipelines, which stay streaming).
    return minhash_lsh_dedup(planted_documents(docs).materialize(),
                             threshold=0.7, strict_caps=True)


def ngram_jaccard_dedup_planted(docs):
    return ngram_jaccard_dedup(planted_documents(docs).materialize(),
                               threshold=0.8, strict_caps=True)


def simhash_dedup_planted(docs):
    return simhash_dedup(
        planted_documents(docs, include_suffix=False).materialize(),
        strict_caps=True)


_PLANTED_BASE_SQL = r"""
WITH d AS (
  SELECT CAST(doc_id AS BIGINT) AS doc_id,
         CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS nt
  FROM documents
)
"""

DEDUP_PLANTED_SQL = _PLANTED_BASE_SQL + f"""
SELECT doc_id, doc_id AS cluster_id, true AS keep FROM d WHERE nt >= 1
UNION ALL
SELECT doc_id + {PLANT_OFF_COPY}, doc_id, false FROM d WHERE nt >= 1
UNION ALL
SELECT doc_id + {PLANT_OFF_SUFFIX}, doc_id, false FROM d
WHERE nt >= {PLANT_MIN_TOKENS}
"""

SIMHASH_PLANTED_SQL = _PLANTED_BASE_SQL + f"""
SELECT doc_id, doc_id AS cluster_id, true AS keep FROM d WHERE nt >= 1
UNION ALL
SELECT doc_id + {PLANT_OFF_COPY}, doc_id, false FROM d WHERE nt >= 1
"""

FINGERPRINT_CLASSES_PLANTED_SQL = _PLANTED_BASE_SQL + f"""
SELECT doc_id, doc_id AS class_id FROM d WHERE nt >= 1
UNION ALL
SELECT doc_id + {PLANT_OFF_COPY}, doc_id FROM d WHERE nt >= 1
"""


# --- fully distributed cluster labeling (no driver union-find) ---

def cluster_pairs_distributed(docs, pairs, max_rounds: int = 50):
    """verified (a, b) pairs — a Ray DATASET (pairs never touch the
    driver) or a pandas DataFrame — → (doc_id, cluster_id, keep) with NO
    driver-side union-find: bounded min-label propagation over the pair
    graph (reuses ``entity_merge.propagate_min_labels``; ids are
    zero-padded decimal strings so lexicographic min == numeric min —
    non-negative ids only).

    The default dedup pipelines keep the O(|verified pairs|) driver
    union-find (pair ids are dup-density-bounded and the propagation
    costs several extra shuffle rounds); this is the drop-in
    alternative when even the verified pair list must stay off the
    driver — swap it in for ``_UnionFind`` + ``_label_clusters``.
    Tested equivalent to the union-find path on planted corpora."""
    import pyarrow.compute as pc
    import ray.data as rd

    from .entity_merge import propagate_min_labels

    width = 20

    def enc(arr: pa.Array) -> pa.Array:
        """Vectorized zero-pad encode; negative ids would break the
        lexicographic-min == numeric-min invariant, so fail loudly."""
        ints = arr.cast(pa.int64())
        if len(ints) and pc.min(ints).as_py() < 0:
            raise ValueError(
                "cluster_pairs_distributed requires non-negative ids")
        return pc.utf8_lpad(ints.cast(pa.string()), width, padding="0")

    if isinstance(pairs, rd.Dataset):
        def pair_edges(batch: pa.Table) -> pa.Table:
            a = enc(batch["a"].combine_chunks()
                    if isinstance(batch["a"], pa.ChunkedArray)
                    else batch["a"])
            b = enc(batch["b"].combine_chunks()
                    if isinstance(batch["b"], pa.ChunkedArray)
                    else batch["b"])
            return pa.table({
                "src": pa.concat_arrays([a, b]),
                "dst": pa.concat_arrays([b, a]),
            })

        edges = pairs.map_batches(pair_edges, batch_format="pyarrow")
    elif len(pairs):
        a = enc(pa.array(pairs["a"].astype("int64")))
        b = enc(pa.array(pairs["b"].astype("int64")))
        edges = rd.from_arrow(pa.table({
            "src": pa.concat_arrays([a, b]),
            "dst": pa.concat_arrays([b, a]),
        }))
    else:
        edges = rd.from_arrow(pa.table({
            "src": pa.array([], pa.string()),
            "dst": pa.array([], pa.string())}))

    def as_nodes(batch: pa.Table) -> pa.Table:
        col = batch["doc_id"]
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        return pa.table({"node": enc(col)})

    nodes = docs.map_batches(as_nodes, batch_format="pyarrow")
    labels = propagate_min_labels(nodes, edges, max_rounds=max_rounds)

    def decode(batch: pa.Table) -> pa.Table:
        node = batch["node"].cast(pa.int64())
        label = batch["label"].cast(pa.int64())
        return pa.table({
            "doc_id": node,
            "cluster_id": label,
            "keep": pc.equal(node, label),
        })

    return labels.map_batches(decode, batch_format="pyarrow")


def minhash_lsh_dedup_distributed(docs, threshold: float = 0.7):
    """minhash_lsh_dedup with distributed cluster labeling end-to-end —
    the 100 TB shape where nothing corpus-derived sits on the driver
    except the (dup-density-bounded) candidate/verified pair lists."""
    return minhash_lsh_dedup(docs, threshold,
                             labeler=cluster_pairs_distributed)

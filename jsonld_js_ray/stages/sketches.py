"""Hashing and the Count-Min token-frequency sketch.

``_hash64`` is the shared deterministic 64-bit key mix (splitmix64
finalizer); dedup, n-gram, entity-merge and training-data stages all
hash through it. ``cms_token_counts`` is the Count-Min sketch over
corpus term frequencies, with ``exact_top_tokens`` as its exact twin
and probe-set source.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _hash64(values: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mix of int64 keys (splitmix64 finalizer)."""
    x = values.astype(np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


# --- Count-Min sketch: heavy-hitter token counts (Cormode &
# Muthukrishnan 2005, public algorithm): D hash rows × W
# counters; add(token, tf) increments one counter per row;
# est(token) = min over rows — NEVER an underestimate, and
# overestimates by at most εN (ε = e/W) with probability 1−δ
# (δ = e^−D). Deterministic given the data and the fixed row seeds,
# so the one-sided bound is asserted exactly against the exact-count
# twin (stages/text token counts) in pytest.
#
# Distribution shape: per-batch partial sketches are (cell, count)
# SPARSE rows (cells touched by the batch only), one tiny
# groupby(cell) sums them — counter matrices are associative, the
# canonical mergeable-sketch pattern. The D×W matrix (default 4×2048
# int64 = 64 KiB) is the ONLY driver-side state; candidate tokens are
# estimated by probing the matrix, never by re-scanning the corpus.

CMS_D = 4
CMS_W = 2048
_CMS_SEEDS = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                       0x165667B19E3779F9, 0x27D4EB2F165667C5],
                      dtype=np.uint64)


def _cms_cells(token_hashes: np.ndarray) -> np.ndarray:
    """(n,) uint64 token hashes → (D, n) flat cell indices."""
    cells = np.empty((CMS_D, len(token_hashes)), np.int64)
    for d in range(CMS_D):
        h = _hash64(token_hashes ^ _CMS_SEEDS[d])
        cells[d] = (d * CMS_W
                    + (h % np.uint64(CMS_W)).astype(np.int64))
    return cells


def cms_token_counts(docs, candidates: list[str]):
    """documents → (token, est_count) for each candidate token: the
    Count-Min estimate of its corpus term frequency. ``candidates``
    is a SMALL list (the probe set — e.g. an exact top-k's tokens);
    the sketch itself is built over the WHOLE corpus in one pass."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from .tfidf import term_freq_batch

    def partial(batch: pa.Table) -> pa.Table:
        t = term_freq_batch(batch)
        toks = t["token"].to_numpy(zero_copy_only=False)
        tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(toks):
            return pa.table({"cell": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        th = pd.util.hash_array(np.asarray(toks, dtype=object))
        cells = _cms_cells(th)
        flat = cells.ravel()
        weights = np.tile(tf, CMS_D)
        uniq, codes = np.unique(flat, return_inverse=True)
        from .groupkit import int_group_sums
        sums = int_group_sums(codes, weights, len(uniq))
        return pa.table({"cell": pa.array(uniq),
                         "cnt": pa.array(sums)})

    merged = docs.map_batches(partial, batch_format="pyarrow",
                              batch_size=4096) \
        .groupby("cell").aggregate(Sum("cnt", alias_name="cnt")) \
        .to_pandas()
    matrix = np.zeros(CMS_D * CMS_W, np.int64)
    matrix[merged["cell"].to_numpy(np.int64)] = \
        merged["cnt"].to_numpy(np.int64)

    cand = np.asarray(candidates, dtype=object)
    ch = pd.util.hash_array(cand)
    cells = _cms_cells(ch)
    est = matrix[cells].min(axis=0)
    return pa.table({
        "token": pa.array(list(candidates), pa.string()),
        "est_count": pa.array(est),
    })


def exact_top_tokens(docs, k: int = 20):
    """Exact corpus term-frequency top-k (count DESC, token ASC) —
    the CMS probe-set source and its exact twin. The vocab-sized
    groupby output goes through a distributed sort + limit(k); only
    k rows reach the driver."""
    from ray.data.aggregate import Sum

    from .tfidf import term_freq_batch

    totals = docs.map_batches(term_freq_batch,
                              batch_format="pyarrow",
                              batch_size=4096) \
        .groupby("token").aggregate(Sum("tf", alias_name="n")) \
        .map_batches(lambda t: t.set_column(
            t.schema.get_field_index("n"), "n",
            t["n"].cast(pa.int64())), batch_format="pyarrow")
    top = totals.sort(["n", "token"],
                      descending=[True, False]).limit(k).to_pandas()
    return list(top["token"]), dict(zip(top["token"], top["n"]))

"""Small shared Ray-batch helpers."""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def list_col_matrix(col: pa.ChunkedArray | pa.Array,
                    dtype=np.float64) -> np.ndarray:
    """Fixed-row-length ``list<float>`` column → an (n, d) matrix with
    ZERO per-row Python: one chunk combine, one flatten (both Arrow
    buffer ops), one numpy view + reshape. This is the ONLY sanctioned
    list→matrix conversion on corpus-scaled paths — the
    ``to_pylist()``/``np.stack`` idiom it replaces runs a Python loop
    over every embedding row and was the dominant constant in every
    ANN/semdedup/kmeans/pq stage at scale.

    Raises on NULL rows or ragged row lengths (the embedding-column
    contract) instead of silently mis-shaping."""
    import pyarrow.compute as pc

    arr = (col.combine_chunks() if isinstance(col, pa.ChunkedArray)
           else col)
    n = len(arr)
    if n == 0:
        return np.zeros((0, 0), dtype)
    if arr.null_count:
        raise ValueError(
            "embedding column contains NULL rows; the list->matrix "
            "contract requires dense fixed-length rows")
    if pa.types.is_fixed_size_list(arr.type):
        d = arr.type.list_size
        # .flatten(), not .values: .values ignores a slice's
        # offset/length, and Ray serves zero-copy sliced batches.
        flat = arr.flatten()
    else:
        lens = pc.list_value_length(arr).to_numpy(zero_copy_only=False)
        d = int(lens[0])
        if not (lens == d).all():
            raise ValueError(
                "ragged list column; the list->matrix contract "
                "requires one fixed row length")
        flat = arr.flatten()
    vals = flat.to_numpy(zero_copy_only=False)
    return vals.reshape(n, d).astype(dtype, copy=False)


def embedding_batch(batch: pa.Table, id_col: str = "vec_id",
                    vec_col: str = "embedding"):
    """The shared ANN-stage batch unpack: (int64 id vector, float64
    (n, d) matrix), both vectorized — no ``to_pylist`` anywhere."""
    ids = batch[id_col].to_numpy(zero_copy_only=False) \
        .astype(np.int64, copy=False)
    return ids, list_col_matrix(batch[vec_col])


def strip_meta(t: pa.Table) -> pa.Table:
    """Drop parquet pandas-metadata (zero-copy). The embedded metadata
    dict defeats Ray's schema hashing — per-task 'Failed to hash the
    schemas' warnings and no schema deduplication — so every parquet
    reader maps this over its blocks. ONE implementation; a behavior
    change here reaches all read sites."""
    return t.replace_schema_metadata(None)

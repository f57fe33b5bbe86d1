"""Small shared Ray-batch helpers."""

from __future__ import annotations

import pyarrow as pa


def strip_meta(t: pa.Table) -> pa.Table:
    """Drop parquet pandas-metadata (zero-copy). The embedded metadata
    dict defeats Ray's schema hashing — per-task 'Failed to hash the
    schemas' warnings and no schema deduplication — so every parquet
    reader maps this over its blocks. ONE implementation; a behavior
    change here reaches all read sites."""
    return t.replace_schema_metadata(None)

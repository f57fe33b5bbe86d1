"""Small shared Ray-batch helpers: the events read and the package's one
shuffle idiom, ``per_block``: sort on the group keys, then one call per
whole block, which regroups vectorised (``run_starts``) instead of one
Python call per group as ``groupby(...).map_groups`` makes."""

from __future__ import annotations

import glob

import pyarrow as pa


def strip_meta(t: pa.Table) -> pa.Table:
    """Drop parquet pandas-metadata (zero-copy). The embedded metadata
    dict defeats Ray's schema hashing — per-task 'Failed to hash the
    schemas' warnings and no schema deduplication — so every parquet
    reader maps this over its blocks. ONE implementation; a behavior
    change here reaches all read sites."""
    return t.replace_schema_metadata(None)


def event_files(sf_dir: str) -> list[str]:
    """``sf_dir/events.parquet``, else the sorted ``sf_dir/events/*.parquet``
    shards."""
    files = sorted(glob.glob(f"{sf_dir}/events.parquet")
                   or glob.glob(f"{sf_dir}/events/*.parquet"))
    if not files:
        raise FileNotFoundError(f"no events parquet under {sf_dir}")
    return files


EVENT_COLS = ["event_id", "ts", "user_id", "event_type", "props"]


def read_events(files: list[str], fn=strip_meta, **read_kwargs):
    """Column-pruned events read; ``fn`` maps each read block."""
    import ray.data as rd

    return rd.read_parquet(
        files, columns=EVENT_COLS, **read_kwargs
    ).map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def per_block(ds, keys, fn):
    """Sort on the group ``keys``, then ``fn`` once per whole block: the
    rows of one key never span two blocks, and each block is sorted on
    ``keys``."""
    return ds.sort(keys).map_batches(
        fn, batch_size=None, batch_format="pyarrow", zero_copy_batch=True)


def run_starts(t: pa.Table, keys: list[str]) -> list[int]:
    """Offsets where a run of equal ``keys`` starts in the sorted table
    ``t``, then ``t.num_rows``. Null equals null, as in a group-by."""
    import numpy as np
    import pyarrow.compute as pc

    n = t.num_rows
    if n == 0:
        return [0]
    change = np.zeros(n - 1, dtype=bool)
    for key in keys:
        col = t[key].combine_chunks()
        a, b = col.slice(1), col.slice(0, n - 1)
        ne = pc.or_(pc.fill_null(pc.not_equal(a, b), False),
                    pc.not_equal(pc.is_null(a), pc.is_null(b)))
        change |= ne.to_numpy(zero_copy_only=False)
    return [0, *(np.flatnonzero(change) + 1).tolist(), n]

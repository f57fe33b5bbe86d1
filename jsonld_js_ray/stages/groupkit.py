"""Vectorized run (sorted-group) index arithmetic shared by the
grouped stages (stages/graph.py, stages/pivot.py, pipelines/kg.py).

A "run" is a maximal block of equal values in an already-sorted key
array; per-group rank/top-k reduces to these three primitives plus one
lexsort — no per-group Python.
"""

from __future__ import annotations

import numpy as np


def run_starts(sorted_ids: np.ndarray) -> np.ndarray:
    """Start index of each run of equal values in a sorted array."""
    if not len(sorted_ids):
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(
        np.concatenate([[True], sorted_ids[1:] != sorted_ids[:-1]]))


def pair_run_starts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Start index of each run of equal (a, b) PAIRS in arrays already
    lexsorted by (a, b) — the two-key analogue of run_starts."""
    if not len(a):
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(np.concatenate(
        [[True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])]))


def run_lengths(sorted_ids: np.ndarray,
                starts: np.ndarray | None = None) -> np.ndarray:
    """Length of each run (aligned with run_starts)."""
    if starts is None:
        starts = run_starts(sorted_ids)
    return np.diff(np.append(starts, len(sorted_ids))).astype(np.int64)


def run_positions(sorted_ids: np.ndarray,
                  starts: np.ndarray | None = None) -> np.ndarray:
    """0-based position of every element within its run."""
    if starts is None:
        starts = run_starts(sorted_ids)
    lengths = run_lengths(sorted_ids, starts)
    return np.arange(len(sorted_ids)) - np.repeat(starts, lengths)


def int_group_sums(codes: np.ndarray, values: np.ndarray,
                   n: int) -> np.ndarray:
    """Exact int64 per-group sums (groups = codes in [0, n)).
    np.bincount(weights=...) accumulates in FLOAT64 and silently rounds
    once a group's sum passes 2^53 — any integer-contract kernel whose
    sums can get large must use true integer accumulation instead."""
    out = np.zeros(n, dtype=np.int64)
    np.add.at(out, codes, values.astype(np.int64))
    return out


def run_pair_indices(sorted_ids: np.ndarray):
    """All within-run index pairs (i, j) with i < j positionally, for
    every run of a sorted key array — O(#pairs) vectorized, no per-run
    Python. Returns (i_idx, j_idx) into the sorted array."""
    starts = run_starts(sorted_ids)
    lengths = run_lengths(sorted_ids, starts)
    pos = run_positions(sorted_ids, starts)
    # the element at run-position p closes p pairs (one per earlier
    # element of its run)
    cnt = pos
    total = int(cnt.sum())
    j_idx = np.repeat(np.arange(len(sorted_ids)), cnt)
    if not total:
        return np.zeros(0, np.int64), j_idx.astype(np.int64)
    offs = np.concatenate(([0], np.cumsum(cnt)[:-1]))
    grp_start = np.repeat(starts, lengths)
    i_idx = (np.arange(total) - np.repeat(offs, cnt)
             + np.repeat(grp_start, cnt))
    return i_idx.astype(np.int64), j_idx.astype(np.int64)


def pair_bucket_ids(a: np.ndarray, b: np.ndarray,
                    n_buckets: int) -> np.ndarray:
    """Shared bucket id for a PAIR of string keys. Every stage that
    co-buckets two datasets on a key pair (edge joins, wedge closing,
    bigram partials) MUST use this one helper — the multiplier/combiner
    has to stay identical on both sides or co-location silently
    breaks."""
    import pandas as pd

    h = (pd.util.hash_array(np.asarray(a, dtype=object))
         * np.uint64(1000003)
         ^ pd.util.hash_array(np.asarray(b, dtype=object)))
    return (h % n_buckets).astype(np.int32)


def sorted_lookup(build_keys: np.ndarray, probes: np.ndarray):
    """(hit, idx) membership probe against SORTED ``build_keys``:
    ``hit[i]`` iff ``probes[i]`` occurs in build_keys, ``idx[i]`` the
    matching position (meaningful only where hit). The ONE copy of
    the searchsorted → clamp → equality idiom every explicit hash
    join's in-bucket kernel needs — hand-rolled copies drift on the
    empty-build and clamp edge cases."""
    if not len(build_keys):
        return (np.zeros(len(probes), bool),
                np.zeros(len(probes), np.int64))
    idx = np.searchsorted(build_keys, probes)
    idx = np.minimum(idx, len(build_keys) - 1)
    # equality after the clamp is a complete membership test: a probe
    # above max(build_keys) clamps onto the last element and fails it
    return build_keys[idx] == probes, idx

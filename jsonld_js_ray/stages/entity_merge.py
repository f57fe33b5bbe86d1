"""Distributed entity canonicalization: min-hash + exact-match merge with
skew-aware salting (north star: "groupby-aggregate shuffle on surface-form
hash ... salting of hot entities").

Two-phase aggregation (SURVEY.md §4.3 skew row):

  phase A  map_batches: per-batch PARTIAL counts per (surface, salt)
           where salt = stable_hash(conv_id) % S (``_hashed_strings``,
           process-stable) — hot surfaces (common roles/tools cover
           most rows) split across S partials, so no single reducer
           sees a hot key's full row stream;
  phase B  groupby(surface) over the ~S·|vocab| partials — a tiny,
           skew-free shuffle.

Near-dup merge — blocking and verification distributed, clustering on
the driver:

  1. character-3-gram MinHash (crc32-based permutations —
     process-stable, unlike Python's salted hash()) → LSH band explode
     (map_batches over the aggregated vocab);
  2. ``per_block`` on ``(band_id, band_hash)`` (the package's one
     shuffle idiom: sort, then one call per whole block) — IN-BUCKET
     Jaccard verification per run of one bucket (the surfaces are the
     bucket's rows, so no text fetch) → verified edge Dataset;
  3. ``build_canonical_mapping``: an O(|verified edges|) union-find on
     the driver — connected components with the lexicographic-min
     surface as the canonical label, exact for any chain length.

The surface → canonical dict is the broadcast small side of the
pipeline's phase 2, so it is vocabulary-sized on the driver by design;
``canonicalize_entities`` reads it back onto the stats rows through one
``ray.put``.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa

from ..rayutil import per_block, run_starts

NUM_PERMS = 64
BANDS = 16          # 16 bands × 4 rows
ROWS_PER_BAND = NUM_PERMS // BANDS
DEFAULT_SALTS = 16


# --- hashing, MinHash and union-find primitives ---

# multiply-shift permutation family: h_p(x) = (A_p·x + B_p) mod 2^64
# with A_p a random ODD 64-bit multiplier and x a 64-bit shingle hash.
# The product wraps 2^64 many times for any x, so the per-permutation
# rank orders are decorrelated. (The previous (A·x+B) mod (2^61-1) form
# with A < 2^29 and a 32-bit x almost never wrapped the modulus — h was
# monotone in x for most permutations, i.e. every "permutation" agreed
# on which shingle was the minimum, silently collapsing LSH recall.)
_mh_rng = np.random.RandomState(0xC0FFEE)
_MH_A = ((_mh_rng.randint(0, 1 << 62, size=NUM_PERMS).astype(np.uint64)
          << np.uint64(1)) | np.uint64(1))
_MH_B = (_mh_rng.randint(0, 1 << 32, size=NUM_PERMS).astype(np.uint64)
         << np.uint64(32)) \
    | _mh_rng.randint(0, 1 << 32, size=NUM_PERMS).astype(np.uint64)


def _hashed_strings(vals: list) -> np.ndarray:
    """Vectorized process-stable 64-bit hashes of a list of strings
    (pandas hash_array: siphash with a fixed key — C speed, no per-row
    Python hashing). The MinHash shingles and the phase-A salts hash
    through it."""
    import pandas as pd

    if not vals:
        return np.zeros(0, dtype=np.uint64)
    return pd.util.hash_array(np.asarray(vals, dtype=object))


def _cap_event(msg: str, strict: bool) -> None:
    """Hot-bucket cap policy: strict mode RAISES (oracle/correctness
    runs must not pass while dropping candidates — worker warnings are
    easy to miss on the driver); non-strict warns and truncates."""
    import warnings

    if strict:
        raise RuntimeError(f"strict_caps: {msg}")
    warnings.warn(msg)


class _UnionFind:
    """Path-halving union-find keeping the SMALLEST member as root
    (cluster id = min of cluster) over surface strings. Its one user is
    build_canonical_mapping, the broadcast mapping that
    pipelines.kg.build_entity_mapping returns."""

    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, x):
        p = self.parent
        p.setdefault(x, x)
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            lo, hi = sorted((ra, rb))
            self.parent[hi] = lo

    def cluster_map(self) -> dict:
        return {x: self.find(x) for x in self.parent}


def _crc(data: str, seed: int = 0) -> int:
    return zlib.crc32(data.encode("utf-8"), seed) & 0xFFFFFFFF


def shingles(s: str, k: int = 3) -> set[str]:
    if len(s) < k:
        return {s}
    return {s[i:i + k] for i in range(len(s) - k + 1)}


def minhash_signature(s: str) -> list[int]:
    """Vectorized MinHash: hashed shingles through the multiply-shift
    permutation family above (the uint64 wraparound is intentional)."""
    base = _hashed_strings(list(shingles(s)))
    vals = _MH_A[:, None] * base[None, :] + _MH_B[:, None]
    return [int(x) for x in vals.min(axis=1)]


def band_hashes(sig: list[int]) -> list[int]:
    out = []
    for b in range(BANDS):
        chunk = sig[b * ROWS_PER_BAND:(b + 1) * ROWS_PER_BAND]
        out.append(_crc(",".join(map(str, chunk)), 9_000 + b))
    return out


def jaccard(a: str, b: str) -> float:
    sa, sb = shingles(a), shingles(b)
    inter = len(sa & sb)
    union = len(sa | sb)
    return inter / union if union else 0.0


# --- phase A: salted partial counts ---

def salted_partial_counts(batch: pa.Table) -> pa.Table:
    """map_batches: mention rows → partial (surface, salt, n) rows.
    Pre-aggregation inside the batch → the subsequent groupby moves
    ~|vocab|·S tiny rows instead of every mention (S =
    ``DEFAULT_SALTS``)."""
    if batch.num_rows == 0:
        return pa.table({"surface": pa.array([], pa.string()),
                         "salt": pa.array([], pa.int32()),
                         "n": pa.array([], pa.int64())})
    # any deterministic conv→salt function partitions correctly — the
    # salts never appear in output; _hashed_strings is process-stable
    salt = (_hashed_strings(batch["conv_id"].cast(pa.string()).to_pylist())
            % DEFAULT_SALTS).astype("int32")
    keyed = pa.table({
        "surface": batch["surface"].cast(pa.string()),
        "salt": pa.array(salt),
    })
    g = keyed.group_by(["surface", "salt"]).aggregate(
        [([], "count_all")])
    return pa.table({
        "surface": g["surface"],
        "salt": g["salt"].cast(pa.int32()),
        "n": g["count_all"].cast(pa.int64()),
    })


def surface_stats(mentions):
    """mentions Dataset (conv_id, surface, ...) → (surface, n_mentions)
    via salted two-phase agg."""
    from ray.data.aggregate import Sum

    partials = mentions.map_batches(
        salted_partial_counts, batch_format="pyarrow", batch_size=65536)
    return partials.groupby("surface").aggregate(
        Sum("n", alias_name="n_mentions"))


# --- distributed near-dup edge generation ---

def sig_band_rows(batch: pa.Table) -> pa.Table:
    """map_batches over the vocab: (surface, ...) → BANDS rows
    (band_id, band_hash, surface) per surface."""
    out_band: list[int] = []
    out_hash: list[int] = []
    out_surf: list[str] = []
    for s in batch["surface"].to_pylist():
        for b_idx, bh in enumerate(band_hashes(minhash_signature(s))):
            out_band.append(b_idx)
            out_hash.append(bh)
            out_surf.append(s)
    return pa.table({
        "band_id": pa.array(out_band, pa.int32()),
        "band_hash": pa.array(out_hash, pa.int64()),
        "surface": pa.array(out_surf, pa.string()),
    })


MAX_BUCKET_MEMBERS = 142     # ~MAX_PAIRS_PER_BUCKET verification pairs
EDGE_SCHEMA = pa.schema([("src", pa.string()), ("dst", pa.string())])


def _bucket_edges(g, threshold: float, strict: bool = False):
    """One LSH bucket's surfaces (``g["surface"]``) → verified SYMMETRIC
    edges (src, dst) for the union-find closure. Verification is
    IN-BUCKET: both strings are bucket rows, no driver fetch. Returns a
    TYPED arrow table so every downstream block is arrow (mixed block
    types break Ray's sort).
    Degenerate buckets are capped — warned, or raised under ``strict``
    (``_cap_event``: never silent)."""
    members = sorted(set(g["surface"]))
    if len(members) > MAX_BUCKET_MEMBERS:
        _cap_event(
            f"entity LSH bucket with {len(members)} surfaces exceeds "
            f"the verification cap ({MAX_BUCKET_MEMBERS}); truncating — "
            f"consider more bands or pre-splitting hot surfaces", strict)
        members = members[:MAX_BUCKET_MEMBERS]
    src: list[str] = []
    dst: list[str] = []
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if jaccard(members[i], members[j]) >= threshold:
                src.extend((members[i], members[j]))
                dst.extend((members[j], members[i]))
    return pa.table({"src": src, "dst": dst}, schema=EDGE_SCHEMA)


def _verify_block(banded: pa.Table, threshold: float,
                  strict: bool) -> pa.Table:
    """Band rows sorted on ``(band_id, band_hash)`` → the verified edges
    of every bucket in the block, ``_bucket_edges`` once per bucket."""
    starts = run_starts(banded, ["band_id", "band_hash"])
    surfaces = banded["surface"].to_pylist()
    return pa.concat_tables([
        _bucket_edges({"surface": surfaces[a:b]}, threshold, strict)
        for a, b in zip(starts, starts[1:])] or [EDGE_SCHEMA.empty_table()])


def verified_edges(stats, threshold: float = 0.6,
                   strict_caps: bool = False):
    """vocab Dataset (surface, ...) → deduplicated verified edge Dataset
    (src, dst), symmetric. Banding + verification run per block of the
    band sort (``_verify_block``); the (band-deduplicated) edge set
    comes from a second tiny groupby — nothing vocabulary-sized reaches
    the driver."""
    import functools

    from ray.data.aggregate import Count

    banded = stats.map_batches(sig_band_rows, batch_format="pyarrow",
                               batch_size=8192)
    edges = per_block(banded, ["band_id", "band_hash"], functools.partial(
        _verify_block, threshold=threshold, strict=strict_caps))
    # same pair often fires in several bands → dedupe with a groupby
    return edges.groupby(["src", "dst"]).aggregate(
        Count(alias_name="_n")).drop_columns(["_n"])


# --- clustering: union-find closure of the verified edges ---

def build_canonical_mapping(stats, threshold: float = 0.6,
                            strict_caps: bool = False) -> dict[str, str]:
    """Aggregated surface Dataset (``surface_stats`` output) → surface →
    canonical dict (min of its near-dup cluster): the broadcast small
    side of ``pipelines.kg.build_entity_mapping``, which must become one
    ``ray.put`` object — so the vocabulary must fit on the driver here
    by design. Banding + in-bucket verification stay distributed
    (``verified_edges``); the driver sees only the vocab keys and the
    dup-density-bounded verified EDGE list, then runs an O(|edges|)
    union-find: the exact transitive closure, however long a chain.
    Keys come in ``stats`` row order."""
    stats = stats.materialize()          # read twice: edges + vocab
    edges = verified_edges(stats, threshold, strict_caps).to_pandas()
    surfaces = stats.select_columns(["surface"]).to_pandas()["surface"]

    uf = _UnionFind()
    for s in surfaces:
        uf.find(s)                       # register singletons
    for a, b in zip(edges.get("src", []), edges.get("dst", [])):
        uf.union(a, b)
    return uf.cluster_map()


def _add_canonical(batch: pa.Table, mapping_ref) -> pa.Table:
    import ray

    mapping = ray.get(mapping_ref)
    return pa.table({
        "surface": batch["surface"],
        "n_mentions": batch["n_mentions"].cast(pa.int64()),
        "canonical": pa.array(
            [mapping[s] for s in batch["surface"].to_pylist()], pa.string()),
    })


def canonicalize_entities(mentions, threshold: float = 0.6,
                          strict_caps: bool = False):
    """mentions Dataset → (surface, n_mentions, canonical) Dataset.

    Salted two-phase count → ``build_canonical_mapping`` (distributed
    banding and verification, union-find closure on the driver) → one
    map over the stats rows reading the mapping through a single
    ``ray.put``, as ``pipelines.kg.assemble_docs`` does."""
    import functools

    import ray

    stats = surface_stats(mentions).materialize()
    mapping = build_canonical_mapping(stats, threshold, strict_caps)
    return stats.map_batches(
        functools.partial(_add_canonical, mapping_ref=ray.put(mapping)),
        batch_format="pyarrow")


# --- construction-based oracles (driver CORRECTNESS gate) ---
#
# The real mention vocabulary {click, error, purchase, signup, view} has
# pairwise char-3-gram Jaccard 0 (verified; the tokens share no trigram),
# so canonicalize_entities provably returns the identity mapping on it —
# SQL-expressible. The *planted* query unions a near-dup variant
# (surface || 's') for every surface of length ≥ PLANT_MIN_LEN: those
# pairs have Jaccard ≥ 0.75 (k/(k+1) over ≥3 trigrams), where the
# 16-band×4-row LSH miss probability is ≤ (1-0.75⁴)¹⁶ ≈ 0.2% — and the
# crc-seeded pipeline is fully deterministic, so the (verified) outcome
# is stable. Shorter surfaces (J = 0.667 for a 4-char token) sit in the
# LSH coin-flip zone and are excluded BY THE SAME RULE in the SQL.
# Expected clusters are known by construction: each {s, s+'s'} pair
# merges with canonical = s (a proper prefix sorts first).

PLANT_MIN_LEN = 5


def planted_variant_mentions(mentions):
    """mentions ∪ near-dup variant mentions (surface → surface || 's'
    where len(surface) ≥ PLANT_MIN_LEN), same conv_id (salting key) —
    the planted corpus for the construction-based oracle."""
    import pyarrow.compute as pc

    def plant(batch: pa.Table) -> pa.Table:
        keep = pc.greater_equal(
            pc.utf8_length(batch["surface"]), PLANT_MIN_LEN)
        batch = batch.filter(keep)
        cols = {name: batch[name] for name in batch.column_names}
        cols["surface"] = pc.binary_join_element_wise(
            batch["surface"].cast(pa.string()), "s", "")
        return pa.table(cols)

    return mentions.union(
        mentions.map_batches(plant, batch_format="pyarrow"))


def canonicalize_entities_planted(mentions, threshold: float = 0.6):
    # strict: the construction-based oracle must FAIL, not under-merge,
    # if a cap ever truncates a bucket
    return canonicalize_entities(planted_variant_mentions(mentions),
                                 threshold, strict_caps=True)


def _entities_canonical_sql() -> str:
    from .linker import MENTIONS_SQL

    return f"""
WITH m AS ({MENTIONS_SQL})
SELECT surface, CAST(count(*) AS BIGINT) AS n_mentions,
       surface AS canonical
FROM m GROUP BY surface
"""


def _entities_canonical_planted_sql() -> str:
    from .linker import MENTIONS_SQL

    return f"""
WITH m AS ({MENTIONS_SQL}),
base AS (SELECT surface, CAST(count(*) AS BIGINT) AS n_mentions
         FROM m GROUP BY surface)
SELECT surface, n_mentions, surface AS canonical FROM base
UNION ALL
SELECT surface || 's' AS surface, n_mentions, surface AS canonical
FROM base WHERE length(surface) >= {PLANT_MIN_LEN}
"""

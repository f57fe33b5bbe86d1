"""Distributed entity canonicalization: min-hash + exact-match merge with
skew-aware salting (north star: "groupby-aggregate shuffle on surface-form
hash ... salting of hot entities").

Two-phase aggregation (SURVEY.md §4.3 skew row):

  phase A  map_batches: per-batch PARTIAL counts per (surface, salt)
           where salt = stable_hash(conv_id) % S (pandas hash_array,
           process-stable) — hot surfaces (common roles/tools cover
           most rows) split across S partials, so no single reducer
           sees a hot key's full row stream;
  phase B  groupby(surface) over the ~S·|vocab| partials — a tiny,
           skew-free shuffle.

Near-dup merge — fully distributed, no driver-side vocabulary
materialization:

  1. character-3-gram MinHash (crc32-based permutations —
     process-stable, unlike Python's salted hash()) → LSH band explode
     (map_batches over the aggregated vocab);
  2. ``groupby(band_id, band_hash)`` — IN-BUCKET Jaccard verification
     (the surfaces are the group rows, so no text fetch) → verified
     edge Dataset;
  3. bounded-round min-label propagation over the edge graph: each
     round is a bucketed hash-join (edges ⋈ labels on src) + a
     ``groupby(node).aggregate(Min)`` — connected components with the
     lexicographic-min surface as the canonical label.  Convergence is
     detected with a per-round label checksum (a scalar aggregate);
     rounds are capped at ``max_rounds`` (label needs diameter hops).

Only scalars (checksums) and Dataset handles touch the driver; every
per-row structure stays in the object store.

The broadcast mapping the pipeline links against
(``build_canonical_mapping``) shares steps 1–2 and closes the verified
edges with a driver-side union-find instead of step 3.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa

NUM_PERMS = 64
BANDS = 16          # 16 bands × 4 rows
ROWS_PER_BAND = NUM_PERMS // BANDS
DEFAULT_SALTS = 16
JOIN_BUCKETS = 32   # label-propagation hash-join fan-out
MAX_ROUNDS = 10


# --- hashing, MinHash and union-find primitives ---

def _hash64(values: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mix of int64 keys (splitmix64 finalizer),
    used by the label checksum."""
    x = values.astype(np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


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
    Python hashing). Shingles, bucket keys and label checksums all
    hash through it."""
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

class SaltedPartialCount:
    """map_batches: mention rows → partial (surface, salt, n) rows.
    Pre-aggregation inside the batch → the subsequent groupby moves
    ~|vocab|·S tiny rows instead of every mention."""

    def __init__(self, num_salts: int = DEFAULT_SALTS) -> None:
        self.num_salts = num_salts

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np
        import pandas as pd

        if batch.num_rows == 0:
            return pa.table({"surface": pa.array([], pa.string()),
                             "salt": pa.array([], pa.int32()),
                             "n": pa.array([], pa.int64())})
        # vectorized salt: pandas hash_array is process-stable (fixed
        # siphash key); any deterministic conv→salt function partitions
        # correctly — the salts never appear in output
        convs = batch["conv_id"].cast(pa.string()).to_pandas()
        salt = (pd.util.hash_array(np.asarray(convs, dtype=object))
                % self.num_salts).astype("int32")
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


def surface_stats(mentions, num_salts: int = DEFAULT_SALTS):
    """mentions Dataset → (surface, n_mentions) via salted two-phase agg."""
    from ray.data.aggregate import Sum

    partials = mentions.map_batches(
        SaltedPartialCount(num_salts), batch_format="pyarrow",
        batch_size=65536)
    return partials.groupby("surface").aggregate(
        Sum("n", alias_name="n_mentions"))


# --- distributed near-dup edge generation ---

class SigBandExplode:
    """map_batches over the vocab: (surface, ...) → BANDS rows
    (band_id, band_hash, surface)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        surfaces = batch["surface"].to_pylist()
        out_band: list[int] = []
        out_hash: list[int] = []
        out_surf: list[str] = []
        for s in surfaces:
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


def _bucket_edges(g, threshold: float, strict: bool = False):
    """One LSH bucket's surfaces → verified SYMMETRIC edges (src, dst)
    for label propagation. Verification is IN-BUCKET: both strings are
    group rows, no driver fetch. Returns a TYPED arrow table so every
    downstream block is arrow (mixed block types break Ray's sort).
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
    return pa.table({"src": pa.array(src, pa.string()),
                     "dst": pa.array(dst, pa.string())})


def verified_edges(stats, threshold: float = 0.6,
                   strict_caps: bool = False):
    """vocab Dataset (surface, ...) → deduplicated verified edge Dataset
    (src, dst), symmetric. Banding + verification run inside the band
    groupby; the (band-deduplicated) edge set comes from a second tiny
    groupby — nothing vocabulary-sized reaches the driver."""
    import functools

    from ray.data.aggregate import Count

    banded = stats.map_batches(SigBandExplode(), batch_format="pyarrow",
                               batch_size=8192)
    edges = banded.groupby(["band_id", "band_hash"]).map_groups(
        functools.partial(_bucket_edges, threshold=threshold,
                          strict=strict_caps),
        batch_format="pandas")
    # same pair often fires in several bands → dedupe with a groupby
    return edges.groupby(["src", "dst"]).aggregate(
        Count(alias_name="_n")).drop_columns(["_n"])


# --- bounded min-label propagation (distributed connected components) ---

def _bucketed(ds, col: str, num_buckets: int):
    def add_bucket(batch: pa.Table, _col=col) -> pa.Table:
        import numpy as np

        vals = batch[_col].to_pylist()
        buckets = (_hashed_strings(vals)
                   % np.uint64(num_buckets)).astype(np.int32)
        return batch.append_column("bucket", pa.array(buckets, pa.int32()))
    return ds.map_batches(add_bucket, batch_format="pyarrow")


# block-coalescing target for _pin: downstream map stages schedule one
# task per block (~8 ms dispatch each), so a toy-scale artifact carrying
# the read's 64-way split costs ~0.5 s of pure scheduling PER consuming
# stage (and per superstep round). Coalescing is applied only when it
# at least halves the block count, so real-scale datasets (blocks
# already >= the target) pass through untouched — scale-neutral.
_PIN_TARGET_ROWS = 65536


def _concat_blocks(*tables):
    import pyarrow as pa

    # a dataset can carry empty blocks whose schema is EMPTY (Ray
    # warns "RefBundle with a different schema"); zero-row tables add
    # nothing and would fail the schema-equality concat precondition
    real = [t for t in tables if t.num_rows]
    if not real:
        return tables[0]
    if len(real) == 1:
        return real[0]
    return pa.concat_tables(real, promote_options="default")


# decorated lazily so importing this module never requires a live Ray
# context; resolved once per process
_concat_blocks_remote = None


def _get_concat_remote():
    global _concat_blocks_remote
    if _concat_blocks_remote is None:
        import ray

        _concat_blocks_remote = ray.remote(num_cpus=0.5)(_concat_blocks)
    return _concat_blocks_remote


def _pin(ds):
    """Execute ``ds`` and rebuild a FRESH dataset from the executed
    block refs — a hard lineage cut. ``materialize()`` alone is not
    enough inside an iterative loop: deriving new plans (union/groupby)
    from a MaterializedDataset can re-plan from its ORIGINAL logical
    plan, so each round re-executes all previous rounds (~3× slower per
    round, measured; 10 rounds ≈ minutes).

    Tiny blocks are COALESCED toward ~_PIN_TARGET_ROWS rows per block
    (split/merge repartition — no hash exchange, and only on data small
    enough for the move to be free) so pinned artifacts and per-round
    frontier datasets don't impose a 64-tiny-task schedule on every
    consuming stage."""
    import ray.data as rd

    m = ds.materialize()
    refs = m.to_arrow_refs()
    if len(refs) > 1:
        target = max(1, min(len(refs),
                            -(-m.count() // _PIN_TARGET_ROWS)))
        # coalesce only when it meaningfully cuts the task count: a
        # 2→1 move saves one dispatch but costs a concat wave
        if target <= len(refs) // 2 and len(refs) - target >= 4:
            # one concat-task wave over the block refs — NOT a
            # Dataset.repartition: that would be a second full dataset
            # job per pin (measured +0.3-0.5 s per superstep round),
            # and deriving it from the MaterializedDataset is the
            # re-plan hazard documented above. Raw tasks are justified
            # here: the Dataset API cannot express "merge these
            # already-executed blocks without a new job".
            import numpy as _np
            remote_fn = _get_concat_remote()
            groups = _np.array_split(_np.arange(len(refs)), target)
            refs = [remote_fn.remote(*(refs[int(i)] for i in g))
                    for g in groups if len(g)]
    return rd.from_arrow_refs(refs)


def _label_checksum(labels) -> int:
    """Order-independent scalar fingerprint of a (node, label) Dataset —
    the per-round convergence probe (a tiny aggregate, not a download).

    Vectorized 64-bit per-row hashes (siphash node ^ mixed siphash
    label, then one more splitmix64 pass), summed mod 2^64 — a collision
    between two differing label states needs a 2^-64 event, vs the old
    per-row crc32 sum (32-bit, and per-row Python)."""
    def partial(batch: pa.Table) -> pa.Table:
        hn = _hashed_strings(batch["node"].to_pylist())
        hl = _hashed_strings(batch["label"].to_pylist())
        comb = _hash64(hn ^ _hash64(hl))
        total = comb.sum(dtype=np.uint64)      # wraps mod 2^64
        return pa.table({"h": pa.array([np.uint64(total).astype(np.int64)],
                                       pa.int64())})

    # one row per block — tiny; wrap-sum on the driver keeps 64-bit
    # modular arithmetic exact (Arrow Sum would overflow int64)
    parts = labels.map_batches(partial, batch_format="pyarrow").to_pandas()
    return int(parts["h"].to_numpy().view(np.uint64).sum(dtype=np.uint64))


def propagate_min_labels(nodes, edges, max_rounds: int = MAX_ROUNDS,
                         num_buckets: int = JOIN_BUCKETS):
    """nodes: Dataset with column ``node``; edges: symmetric Dataset
    (src, dst). → Dataset (node, label) where label = min node in the
    connected component.

    Each round: bucketed hash-join (edges ⋈ labels ON src) pushes every
    node's current label to its neighbours, then
    ``groupby(node).aggregate(Min)`` takes the best seen. Min-label needs
    ``diameter`` rounds; rounds are capped and convergence is detected by
    an order-independent checksum (scalar per round)."""
    import warnings

    import pandas as pd
    from ray.data.aggregate import Min

    def init_labels(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["node"],
                         "label": batch["node"]})

    labels = _pin(nodes.map_batches(init_labels,
                                    batch_format="pyarrow"))
    # pin the edge pipeline: count() + the bucketing below would
    # otherwise re-execute the banding + in-bucket verification twice
    edges = _pin(edges)
    if edges.count() == 0:
        return labels

    def tag(side: str):
        def fn(batch: pa.Table, _s=side) -> pa.Table:
            return batch.append_column(
                "side", pa.array([_s] * batch.num_rows, pa.string()))
        return fn

    edges_tagged = _pin(_bucketed(edges, "src", num_buckets).map_batches(
        tag("E"), batch_format="pyarrow"))

    def join_bucket(g: pd.DataFrame):
        e = g[g["side"] == "E"]
        l = g[g["side"] == "L"]
        if e.empty or l.empty:
            return pa.table({"node": pa.array([], pa.string()),
                             "label": pa.array([], pa.string())})
        m = e[["src", "dst"]].merge(
            l[["node", "label"]], left_on="src", right_on="node")
        return pa.table({"node": pa.array(m["dst"], pa.string()),
                         "label": pa.array(m["label"], pa.string())})

    prev_sum = _label_checksum(labels)
    for _round in range(max_rounds):
        labels_tagged = _bucketed(labels, "node", num_buckets) \
            .map_batches(tag("L"), batch_format="pyarrow")
        # schema-align for union: E rows carry (src, dst), L rows
        # carry (node, label); pad each side with the other's columns
        def pad_e(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return batch.append_column(
                "node", pa.array([None] * n, pa.string())).append_column(
                "label", pa.array([None] * n, pa.string()))

        def pad_l(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return batch.append_column(
                "src", pa.array([None] * n, pa.string())).append_column(
                "dst", pa.array([None] * n, pa.string()))

        unioned = edges_tagged.map_batches(
            pad_e, batch_format="pyarrow").union(
            labels_tagged.map_batches(pad_l, batch_format="pyarrow"))
        pushed = unioned.groupby("bucket").map_groups(
            join_bucket, batch_format="pandas")
        # repartition to a CONSTANT block count: union concatenates
        # block lists and groupby partitions by input blocks, so
        # without this the block count doubles per round (2^rounds
        # tasks — measured exponential slowdown)
        labels = _pin(labels.union(pushed).groupby("node").aggregate(
            Min("label", alias_name="label")).repartition(num_buckets))
        cur_sum = _label_checksum(labels)
        if cur_sum == prev_sum:
            return labels
        prev_sum = cur_sum
    warnings.warn(
        f"min-label propagation hit max_rounds={max_rounds} without "
        f"converging (cluster diameter > rounds); labels may be "
        f"partially merged")
    return labels


def canonicalize_entities(mentions, threshold: float = 0.6,
                          num_salts: int = DEFAULT_SALTS,
                          strict_caps: bool = False):
    """mentions Dataset → (surface, n_mentions, canonical) Dataset.

    End-to-end distributed: salted two-phase count → band explode →
    in-bucket verified edges → bounded min-label propagation → bucketed
    join of labels back onto the stats rows. No vocabulary-sized
    structure ever reaches the driver."""
    import pandas as pd

    stats = surface_stats(mentions, num_salts).materialize()
    edges = verified_edges(stats, threshold, strict_caps=strict_caps)

    def as_nodes(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["surface"]})

    nodes = stats.map_batches(as_nodes, batch_format="pyarrow")
    labels = propagate_min_labels(nodes, edges)

    # final vocab-sized join: stats ⋈ labels ON surface == node, bucketed
    def stats_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "surface": batch["surface"],
            "n_mentions": batch["n_mentions"].cast(pa.int64()),
            "label": pa.array([None] * n, pa.string()),
            "side": pa.array(["S"] * n, pa.string()),
        })

    def label_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "surface": batch["node"],
            "n_mentions": pa.array([0] * n, pa.int64()),
            "label": batch["label"],
            "side": pa.array(["L"] * n, pa.string()),
        })

    unioned = _bucketed(
        stats.map_batches(stats_rows, batch_format="pyarrow").union(
            labels.map_batches(label_rows, batch_format="pyarrow")),
        "surface", JOIN_BUCKETS)

    def join_canonical(g: pd.DataFrame):
        s = g[g["side"] == "S"]
        l = g[g["side"] == "L"][["surface", "label"]]
        m = s[["surface", "n_mentions"]].merge(l, on="surface",
                                               how="left")
        return pa.table({
            "surface": pa.array(m["surface"], pa.string()),
            "n_mentions": pa.array(
                m["n_mentions"].astype("int64"), pa.int64()),
            "canonical": pa.array(
                m["label"].fillna(m["surface"]), pa.string()),
        })

    return unioned.groupby("bucket").map_groups(
        join_canonical, batch_format="pandas")


# --- small-vocab broadcast mapping (kg.build_entity_mapping) ---

def build_canonical_mapping(stats, threshold: float = 0.6) -> dict[str, str]:
    """Aggregated surface Dataset (``surface_stats`` output) → surface →
    canonical dict (min of its near-dup cluster): the broadcast small
    side of ``pipelines.kg.build_entity_mapping``, which must become one
    ``ray.put`` object — so the vocabulary must fit on the driver here
    by design. Banding + in-bucket verification stay distributed
    (``verified_edges``); the driver sees only the vocab keys and the
    dup-density-bounded verified EDGE list, then runs an O(|edges|)
    union-find (exact transitive closure — unlike the round-capped
    label propagation in ``canonicalize_entities``, which warns if a
    chain exceeds MAX_ROUNDS hops; the two agree whenever propagation
    converges). Keys come in ``stats`` row order."""
    stats = stats.materialize()          # read twice: edges + vocab
    edges = verified_edges(stats, threshold).to_pandas()
    surfaces = stats.select_columns(["surface"]).to_pandas()["surface"]

    uf = _UnionFind()
    for s in surfaces:
        uf.find(s)                       # register singletons
    for a, b in zip(edges.get("src", []), edges.get("dst", [])):
        uf.union(a, b)
    return uf.cluster_map()


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

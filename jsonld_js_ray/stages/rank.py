"""Per-key order statistics: discrete quantiles and windowed rank/top-n.

Both are classic "window function" classes (PARTITION BY key ORDER BY
value) that Ray Data has no native operator for. Shape: one uniform
user-hash shard shuffle, then fully VECTORIZED order statistics inside
each shard (one lexsort + group-boundary index arithmetic — no per-user
Python). Oracled against DuckDB ``quantile_disc`` / ``row_number()``.

``quantile_disc`` convention (verified empirically): the sorted
element at 1-based position ceil(p·n), i.e. index ``ceil(p*n)-1``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .groupkit import (
    quantile_disc_pos, run_lengths, run_positions, run_starts,
)

RANK_SHARDS = 64


def _enc_nulls_last(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """NULL-safe key encoding whose LEXICOGRAPHIC order matches
    DuckDB's default `ORDER BY col` (values ascending, NULLS LAST):
    'v' + value, bare 'w' for NULL. NULLS LAST matters: NULLS FIRST
    would flip the mode tie-break for a user whose NULL-typed count ties
    a value."""
    import pyarrow.compute as pc
    vals = col.to_numpy(zero_copy_only=False)
    isnull = pc.is_null(
        col.combine_chunks() if isinstance(col, pa.ChunkedArray)
        else col).to_numpy(zero_copy_only=False)
    filled = np.where(isnull, "", vals).astype(str)
    return np.where(isnull, "w", np.char.add("v", filled))


def _dec_nulls_last(enc: np.ndarray) -> pa.Array:
    """Inverse of _enc_nulls_last: strip the 'v' prefix, 'w' → NULL."""
    import pyarrow.compute as pc
    arr = pa.array(np.asarray(enc, dtype=str), pa.string())
    return pc.if_else(pc.equal(arr, "w"),
                      pa.scalar(None, pa.string()),
                      pc.utf8_slice_codeunits(arr, 1))
QUANTILES = (0.5, 0.95)
TOP_N = 2


def _events(sf_dir: str, columns):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/events.parquet", columns=columns)


def _with_bucket(ds):
    def fn(batch: pa.Table) -> pa.Table:
        # strip parquet pandas-metadata (see pipelines/kg._strip_meta)
        batch = batch.replace_schema_metadata(None)
        users = batch["user_id"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket", pa.array((users % RANK_SHARDS).astype("int32")))
    return ds.map_batches(fn, batch_format="pyarrow")


def user_value_quantiles(sf_dir: str, quantiles=QUANTILES):
    """events → (user_id, p50, p95): discrete per-user quantiles of
    ``value`` — exact order statistics, vectorized per shard."""
    ds = _with_bucket(_events(sf_dir, ["user_id", "value"]))

    def per_shard(g):
        all_users = np.unique(g["user_id"].to_numpy().astype(np.int64))
        users = g["user_id"].to_numpy().astype(np.int64)
        vals = g["value"].to_numpy().astype(np.float64)
        # quantile_disc ignores NULLs: drop NaN before order statistics
        valid = ~np.isnan(vals)
        users, vals = users[valid], vals[valid]
        order = np.lexsort((vals, users))
        users, vals = users[order], vals[order]
        starts = run_starts(users)
        ns = run_lengths(users, starts)
        cols: dict = {"user_id": pa.array(users[starts], pa.int64())}
        for p in quantiles:
            pos = quantile_disc_pos(p, ns)
            idx = (starts + pos - 1) if len(starts) else starts
            name = f"p{int(p * 100)}"
            cols[name] = pa.array(vals[idx], pa.float64())
        tbl = pa.table(cols)
        # users whose values were ALL NULL still get a row (NULL
        # quantiles), matching GROUP BY semantics
        missing = np.setdiff1d(all_users, users[starts],
                               assume_unique=False)
        if len(missing):
            pad = {"user_id": pa.array(missing, pa.int64())}
            for p in quantiles:
                pad[f"p{int(p * 100)}"] = pa.array(
                    [None] * len(missing), pa.float64())
            tbl = pa.concat_tables([tbl, pa.table(pad)])
        return tbl

    return ds.groupby("bucket").map_groups(per_shard,
                                           batch_format="pandas")


USER_QUANTILES_SQL = """
SELECT CAST(user_id AS BIGINT) AS user_id,
       quantile_disc(value, 0.5) AS p50,
       quantile_disc(value, 0.95) AS p95
FROM events GROUP BY user_id
"""


def top_events_per_user(sf_dir: str, n: int = TOP_N):
    """events → (user_id, rank, event_id): the n highest-``value``
    events per user (rank 1 = highest; ties by event_id — the
    deterministic ROW_NUMBER window), vectorized per shard."""
    ds = _with_bucket(_events(sf_dir, ["event_id", "user_id", "value"]))

    def per_shard(g, _n=n):
        users = g["user_id"].to_numpy().astype(np.int64)
        vals = g["value"].to_numpy().astype(np.float64)
        eids = g["event_id"].to_numpy().astype(np.int64)
        # sort: user asc, value desc, event_id asc
        order = np.lexsort((eids, -vals, users))
        users, eids = users[order], eids[order]
        # rank within user = position since group start
        rank = run_positions(users) + 1
        keep = rank <= _n
        return pa.table({
            "user_id": pa.array(users[keep], pa.int64()),
            "rank": pa.array(rank[keep].astype(np.int64)),
            "event_id": pa.array(eids[keep], pa.int64()),
        })

    return ds.groupby("bucket").map_groups(per_shard,
                                           batch_format="pandas")


def user_running_totals(sf_dir: str):
    """events → (event_id, user_id, seq, cum_cents): the per-user
    RUNNING aggregate (cumulative sum window function — ROWS UNBOUNDED
    PRECEDING), ordered by (ts, event_id) so ties are deterministic.

    Same shape as the other order statistics: one uniform user-hash
    shard shuffle, then a single lexsort + segmented cumsum per shard
    (cumsum minus the per-run base — no per-user Python). Monetary
    values are exact integer cents (floor(v·100 + 0.5), NULL → 0),
    the repo-wide convention that dodges float summation order."""
    ds = _with_bucket(
        _events(sf_dir, ["event_id", "ts", "user_id", "value"]))

    def per_shard(g):
        users = g["user_id"].to_numpy().astype(np.int64)
        ts = g["ts"].astype("int64").to_numpy()
        eids = g["event_id"].to_numpy().astype(np.int64)
        vals = np.nan_to_num(g["value"].to_numpy().astype(np.float64))
        cents = np.floor(vals * 100 + 0.5).astype(np.int64)
        order = np.lexsort((eids, ts, users))
        users, eids, cents = users[order], eids[order], cents[order]
        starts = run_starts(users)
        lengths = run_lengths(users, starts)
        cum = np.cumsum(cents)
        base = np.repeat(cum[starts] - cents[starts], lengths)
        return pa.table({
            "event_id": pa.array(eids, pa.int64()),
            "user_id": pa.array(users, pa.int64()),
            "seq": pa.array(
                (run_positions(users, starts) + 1).astype(np.int64)),
            "cum_cents": pa.array(cum - base, pa.int64()),
        })

    return ds.groupby("bucket").map_groups(per_shard,
                                           batch_format="pandas")


CONT_QUANTILES = (0.5, 0.9)


def user_value_quantiles_cont(sf_dir: str,
                              quantiles=CONT_QUANTILES):
    """events → (user_id, c50, c90): INTERPOLATED per-user quantiles
    of ``value`` — the continuous counterpart of user_value_quantiles.

    Exactness: DuckDB's quantile_cont is bit-identical to the lerp
    s[lo]·(1−frac) + s[hi]·frac at q = p·(n−1) (verified empirically:
    900/900 random trials across n and p — note the OTHER common
    formulations, s[lo]+(s[hi]−s[lo])·frac and np.quantile, do NOT
    match bit-for-bit), so the mirror is hash-exact with no epsilon.
    Same shard shape as the discrete variant; NULLs are ignored."""
    ds = _with_bucket(_events(sf_dir, ["user_id", "value"]))

    def per_shard(g):
        all_users = np.unique(
            g["user_id"].to_numpy().astype(np.int64))
        users = g["user_id"].to_numpy().astype(np.int64)
        vals = g["value"].to_numpy().astype(np.float64)
        valid = ~np.isnan(vals)
        users, vals = users[valid], vals[valid]
        order = np.lexsort((vals, users))
        users, vals = users[order], vals[order]
        starts = run_starts(users)
        ns = run_lengths(users, starts)
        cols: dict = {"user_id": pa.array(users[starts], pa.int64())}
        for p in quantiles:
            q = p * (ns - 1)
            lo = np.floor(q).astype(np.int64)
            hi = np.ceil(q).astype(np.int64)
            frac = q - lo
            v = (vals[starts + lo] * (1 - frac)
                 + vals[starts + hi] * frac)
            cols[f"c{int(p * 100)}"] = pa.array(v, pa.float64())
        tbl = pa.table(cols)
        # all-NULL users still get a row (NULL quantiles), matching
        # GROUP BY semantics — same pad as the discrete twin above
        missing = np.setdiff1d(all_users, users[starts])
        if len(missing):
            pad = {"user_id": pa.array(missing, pa.int64())}
            for p in quantiles:
                pad[f"c{int(p * 100)}"] = pa.array(
                    [None] * len(missing), pa.float64())
            tbl = pa.concat_tables([tbl, pa.table(pad)])
        return tbl

    return ds.groupby("bucket").map_groups(per_shard,
                                           batch_format="pandas")


USER_QUANTILES_CONT_SQL = """
SELECT CAST(user_id AS BIGINT) AS user_id,
       quantile_cont(value, 0.5) AS c50,
       quantile_cont(value, 0.9) AS c90
FROM events GROUP BY user_id
"""


NTILES = 4


def user_value_ntiles(sf_dir: str, tiles: int = NTILES):
    """events → (event_id, user_id, tile): NTILE(``tiles``) OVER
    (PARTITION BY user_id ORDER BY value, event_id) — the quartile
    bucketing a feature pipeline uses to discretize a per-user
    distribution. SQL NTILE semantics exactly: the first n % tiles
    buckets get ⌈n/tiles⌉ rows, the rest ⌊n/tiles⌋; the (value,
    event_id) order key makes ties deterministic. One user-hash shard
    shuffle, one lexsort + run arithmetic per shard."""
    ds = _with_bucket(
        _events(sf_dir, ["event_id", "user_id", "value"]))

    def per_shard(g, _t=tiles):
        users = g["user_id"].to_numpy().astype(np.int64)
        vals = g["value"].to_numpy().astype(np.float64)
        eids = g["event_id"].to_numpy().astype(np.int64)
        order = np.lexsort((eids, vals, users))
        users, eids = users[order], eids[order]
        starts = run_starts(users)
        ns = run_lengths(users, starts)
        pos = run_positions(users, starts)
        n_per = np.repeat(ns, ns)
        big = n_per // _t + 1            # size of the first-rem tiles
        rem = n_per % _t
        cut = rem * big                  # rows covered by big tiles
        in_big = pos < cut
        small = np.maximum(n_per // _t, 1)   # guard n < tiles (rem>pos)
        tile = np.where(in_big, pos // big,
                        rem + (pos - cut) // small) + 1
        return pa.table({
            "event_id": pa.array(eids, pa.int64()),
            "user_id": pa.array(users, pa.int64()),
            "tile": pa.array(tile.astype(np.int64)),
        })

    return ds.groupby("bucket").map_groups(per_shard,
                                           batch_format="pandas")


USER_NTILES_SQL = f"""
SELECT CAST(event_id AS BIGINT) AS event_id,
       CAST(user_id AS BIGINT) AS user_id,
       CAST(ntile({NTILES}) OVER (PARTITION BY user_id
                                  ORDER BY value, event_id)
            AS BIGINT) AS tile
FROM events
"""


def user_value_deltas(sf_dir: str):
    """events → (event_id, user_id, delta): value − LAG(value) OVER
    (PARTITION BY user_id ORDER BY ts, event_id) — the consecutive
    difference a feature pipeline derives from a behavioral stream;
    each user's first event has a NULL delta (SQL LAG semantics).
    One user-hash shard shuffle, one lexsort + shifted subtraction per
    shard; the subtraction is a single IEEE-754 double op evaluated
    identically by numpy and DuckDB — hash-exact."""
    ds = _with_bucket(
        _events(sf_dir, ["event_id", "ts", "user_id", "value"]))

    def per_shard(g):
        users = g["user_id"].to_numpy().astype(np.int64)
        ts = g["ts"].astype("int64").to_numpy()
        eids = g["event_id"].to_numpy().astype(np.int64)
        vals = g["value"].to_numpy().astype(np.float64)
        order = np.lexsort((eids, ts, users))
        users, eids, vals = users[order], eids[order], vals[order]
        delta = np.empty(len(vals), np.float64)
        delta[1:] = vals[1:] - vals[:-1]
        starts = run_starts(users)
        # each user's FIRST row gets NULL (covers index 0 too; an
        # unconditional delta[0] would crash on an empty shard)
        delta[starts] = np.nan
        return pa.table({
            "event_id": pa.array(eids, pa.int64()),
            "user_id": pa.array(users, pa.int64()),
            "delta": pa.array(delta, pa.float64(),
                              mask=np.isnan(delta)),
        })

    return ds.groupby("bucket").map_groups(per_shard,
                                           batch_format="pandas")


USER_DELTAS_SQL = """
SELECT CAST(event_id AS BIGINT) AS event_id,
       CAST(user_id AS BIGINT) AS user_id,
       value - lag(value) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS delta
FROM events
"""


def user_event_paths(sf_dir: str):
    """events → (user_id, path, n_events): each user's event types
    joined with ',' in (ts, event_id) order — the session-path export
    a behavior-modeling pipeline feeds to sequence models (SQL
    string_agg ... ORDER BY). One user-hash shard shuffle; the join
    is one lexsort + Arrow binary_join (the list-array kernel) per
    shard — no per-user Python string building."""
    import pyarrow.compute as pc

    ds = _with_bucket(
        _events(sf_dir, ["event_id", "ts", "user_id", "event_type"]))

    def per_shard(g):
        users = g["user_id"].to_numpy().astype(np.int64)
        ts = g["ts"].astype("int64").to_numpy()
        eids = g["event_id"].to_numpy().astype(np.int64)
        types = g["event_type"].to_numpy()
        order = np.lexsort((eids, ts, users))
        users, types = users[order], types[order]
        starts = run_starts(users)
        lens = run_lengths(users, starts)
        offsets = np.zeros(len(starts) + 1, np.int32)
        np.cumsum(lens, out=offsets[1:])
        lst = pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(types, pa.string()))
        path = pc.binary_join(lst, pa.scalar(","))
        return pa.table({
            "user_id": pa.array(users[starts], pa.int64()),
            "path": path,
            "n_events": pa.array(lens),
        })

    return ds.groupby("bucket").map_groups(per_shard,
                                           batch_format="pandas")


USER_PATHS_SQL = """
SELECT CAST(user_id AS BIGINT) AS user_id,
       string_agg(event_type, ',' ORDER BY ts, event_id) AS path,
       CAST(count(*) AS BIGINT) AS n_events
FROM events GROUP BY user_id
"""


def event_transitions(sf_dir: str):
    """events → (prev_type, next_type, n): the Markov transition
    counts over each user's (ts, event_id)-ordered event stream — the
    behavior model a funnel/recommendation pipeline estimates first.
    One user-hash shard shuffle; per shard one lexsort + shifted pair
    counting (in-shard partials), then a tiny pair groupby."""
    from ray.data.aggregate import Sum

    ds = _with_bucket(
        _events(sf_dir, ["event_id", "ts", "user_id", "event_type"]))

    def per_shard(g):
        users = g["user_id"].to_numpy().astype(np.int64)
        ts = g["ts"].astype("int64").to_numpy()
        eids = g["event_id"].to_numpy().astype(np.int64)
        types = g["event_type"].to_numpy()
        order = np.lexsort((eids, ts, users))
        users, types = users[order], types[order]
        same = users[1:] == users[:-1]
        return pa.table({
            "prev_type": pa.array(types[:-1][same], pa.string()),
            "next_type": pa.array(types[1:][same], pa.string()),
        }).group_by(["prev_type", "next_type"]) \
            .aggregate([([], "count_all")]) \
            .rename_columns(["prev_type", "next_type", "n_part"])

    parts = ds.groupby("bucket").map_groups(per_shard,
                                            batch_format="pandas")
    return parts.groupby(["prev_type", "next_type"]).aggregate(
        Sum("n_part", alias_name="n"))


EVENT_TRANSITIONS_SQL = """
WITH s AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev_type
  FROM events)
SELECT prev_type, event_type AS next_type,
       CAST(count(*) AS BIGINT) AS n
FROM s WHERE prev_type IS NOT NULL
GROUP BY prev_type, event_type
"""


MAD_K = 3.0


def robust_outliers(sf_dir: str, k: float = MAD_K):
    """events → (event_id, user_id, value): per-user robust outliers —
    events whose |value − median| exceeds k × MAD (median absolute
    deviation), the anomaly filter a training-data pipeline runs on
    behavioral streams (robust to the very outliers it hunts, unlike
    mean/stddev z-scores).

    Exactness: median and MAD use the quantile_disc convention (an
    actual data value at position ceil(p·n)), and the flag condition
    |v − med| > k·mad is three IEEE-754 double ops evaluated
    identically by numpy and DuckDB — hash-exact, no epsilon. NULL
    values are dropped (they can be neither quantile inputs nor
    outliers). Same shape as the other order statistics: one user-hash
    shard shuffle, two lexsorts per shard (values, then deviations),
    no per-user Python."""
    ds = _with_bucket(
        _events(sf_dir, ["event_id", "user_id", "value"]))

    def per_shard(g, _k=k):
        users = g["user_id"].to_numpy().astype(np.int64)
        vals = g["value"].to_numpy().astype(np.float64)
        eids = g["event_id"].to_numpy().astype(np.int64)
        valid = ~np.isnan(vals)
        users, vals, eids = users[valid], vals[valid], eids[valid]
        order = np.lexsort((vals, users))
        users, vals, eids = users[order], vals[order], eids[order]
        starts = run_starts(users)
        ns = run_lengths(users, starts)
        med_idx = (starts + quantile_disc_pos(0.5, ns) - 1) \
            if len(starts) else starts
        med = np.repeat(vals[med_idx], ns)
        dev = np.abs(vals - med)
        order2 = np.lexsort((dev, users))
        dev2 = dev[order2]
        # run boundaries are unchanged (same user key, stable sizes)
        mad_idx = (starts + quantile_disc_pos(0.5, ns) - 1) \
            if len(starts) else starts
        mad = np.repeat(dev2[mad_idx], ns)
        flag = dev > _k * mad
        return pa.table({
            "event_id": pa.array(eids[flag], pa.int64()),
            "user_id": pa.array(users[flag], pa.int64()),
            "value": pa.array(vals[flag], pa.float64()),
        })

    return ds.groupby("bucket").map_groups(per_shard,
                                           batch_format="pandas")


ROBUST_OUTLIERS_SQL = f"""
WITH v AS (SELECT event_id, user_id, value FROM events
           WHERE value IS NOT NULL),
m AS (SELECT user_id, quantile_disc(value, 0.5) AS med
      FROM v GROUP BY user_id),
d AS (SELECT v.event_id, v.user_id, v.value, m.med
      FROM v JOIN m USING (user_id)),
md AS (SELECT user_id, quantile_disc(abs(value - med), 0.5) AS mad
       FROM d GROUP BY user_id)
SELECT CAST(d.event_id AS BIGINT) AS event_id,
       CAST(d.user_id AS BIGINT) AS user_id,
       d.value AS value
FROM d JOIN md USING (user_id)
WHERE abs(d.value - d.med) > {MAD_K} * md.mad
"""


RUNNING_TOTALS_SQL = """
SELECT CAST(event_id AS BIGINT) AS event_id,
       CAST(user_id AS BIGINT) AS user_id,
       CAST(row_number() OVER w AS BIGINT) AS seq,
       CAST(sum(CAST(floor(coalesce(value, 0) * 100 + 0.5) AS BIGINT))
                OVER w AS BIGINT) AS cum_cents
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
"""


TOP_EVENTS_SQL = f"""
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(rank AS BIGINT) AS rank,
       CAST(event_id AS BIGINT) AS event_id
FROM (
  SELECT user_id, event_id,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY value DESC, event_id) AS rank
  FROM events)
WHERE rank <= {TOP_N}
"""


DEBOUNCE_US = 300 * 1_000_000    # 5-minute quiet gap


def debounce_events(sf_dir: str, gap_us: int = DEBOUNCE_US):
    """events → the debounced stream (event_id, user_id, event_type):
    keep an event iff it is the user's FIRST event of that type or
    arrives more than ``gap_us`` after the previous same-(user, type)
    event — the stream-hygiene filter that collapses bursts (double
    clicks, retry storms) before feature extraction.

    One user-hash shard shuffle; per shard one lexsort by (user, type,
    ts, event_id) and a shifted int64 gap test over the (user, type)
    runs — LAG semantics with the deterministic (ts, event_id) order
    key mirrored in SQL. Equal-timestamp duplicates debounce to the
    lowest event_id."""
    from .groupkit import run_starts as _rs

    ds = _with_bucket(
        _events(sf_dir, ["event_id", "ts", "user_id", "event_type"]))

    def per_shard(g):
        users = g["user_id"].to_numpy().astype(np.int64)
        # normalize to MICROSECONDS regardless of the source parquet's
        # timestamp unit (a ns-unit source would make the gap test
        # 1000× too permissive; the SQL mirror uses epoch_us)
        ts = g["ts"].to_numpy().astype("datetime64[us]") \
            .astype(np.int64)
        eids = g["event_id"].to_numpy().astype(np.int64)
        # factorize event_type so the run key is one int pair
        etypes, tcodes = np.unique(g["event_type"].to_numpy(object),
                                   return_inverse=True)
        u, e, tc, keep = _debounce_keep(users, ts, eids, tcodes,
                                        len(etypes), gap_us)
        return pa.table({
            "event_id": pa.array(e[keep], pa.int64()),
            "user_id": pa.array(u[keep], pa.int64()),
            "event_type": pa.array(etypes[tc[keep]], pa.string()),
        })

    return ds.groupby("bucket").map_groups(per_shard,
                                           batch_format="pandas")


def _debounce_keep(users, ts_us, eids, tcodes, n_types, gap_us):
    """The debounce shard kernel, module-level so the property tests
    drive the REAL code: sort by (user, type, ts, id), keep rows that
    start a (user, type) run or follow a gap > gap_us. Returns the
    sorted (users, eids, tcodes) arrays plus the keep mask."""
    from .groupkit import run_starts as _rs

    order = np.lexsort((eids, ts_us, tcodes, users))
    u, t, e, tc = users[order], ts_us[order], eids[order], \
        tcodes[order]
    key = u * np.int64(max(n_types, 1)) + tc
    gap = np.empty(len(t), np.int64)
    gap[1:] = t[1:] - t[:-1]
    starts = _rs(key)
    keep = gap > gap_us
    keep[starts] = True                  # first-in-run always kept
    return u, e, tc, keep


DEBOUNCE_SQL = f"""
SELECT CAST(event_id AS BIGINT) AS event_id,
       CAST(user_id AS BIGINT) AS user_id,
       event_type
FROM (SELECT event_id, user_id, event_type,
             epoch_us(ts) - lag(epoch_us(ts)) OVER (
                 PARTITION BY user_id, event_type
                 ORDER BY ts, event_id) AS gap
      FROM events)
WHERE gap IS NULL OR gap > {DEBOUNCE_US}
"""


def user_favorite_event(sf_dir: str):
    """events → (user_id, fav_event, n): each user's MODE event type
    (most frequent; ties broken by the lexicographically smallest
    type — the deterministic argmax contract shared with the LPA
    communities kernel) and its count.

    Per-batch partial (user, type) counts bound the shuffle at
    distinct pairs per batch; the in-bucket kernel re-reduces the
    partials and takes one weighted argmax per user (two lexsorts,
    no per-user Python)."""
    from .groupkit import int_group_sums, pair_run_starts, run_starts

    # no _with_bucket wrapper: partial() computes its own shard key
    # from the partial rows (cheaper than bucketing the raw events)
    ds = _events(sf_dir, ["user_id", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        users = batch["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        # NULLS-LAST encoding: the mode tie-break below sorts
        # encoded types ascending, and DuckDB's default null order in
        # `ORDER BY event_type` is NULLS LAST — 'w' > 'v'+anything
        # keeps a genuine NULL type losing every tie, exactly as SQL
        et = _enc_nulls_last(batch["event_type"])
        key = np.char.add(np.char.add(users.astype(str), "\x1f"), et)
        uniq, first, codes = np.unique(key, return_index=True,
                                       return_inverse=True)
        return pa.table({
            "user_id": pa.array(users[first]),
            "event_type": pa.array(et[first], pa.string()),
            "n": pa.array(np.bincount(codes, minlength=len(uniq))
                          .astype(np.int64)),
            "bucket": pa.array(
                (users[first] % RANK_SHARDS).astype("int32")),
        })

    def per_shard(g) -> pa.Table:
        gu, gt, sums = _weighted_mode_argmax(
            g["user_id"].to_numpy(np.int64),
            np.asarray(g["event_type"].to_numpy(object), dtype=str),
            g["n"].to_numpy(np.int64))
        return pa.table({
            "user_id": pa.array(gu),
            "fav_event": _dec_nulls_last(gt),
            "n": pa.array(sums),
        })

    return ds.map_batches(partial, batch_format="pyarrow",
                          batch_size=65536) \
        .groupby("bucket").map_groups(per_shard,
                                      batch_format="pandas")


def _weighted_mode_argmax(users, et, n):
    """The favorite-event shard kernel, module-level so the property
    tests drive the REAL code: re-reduce (user, type, count) partials
    (possibly repeated across batches), then per user take the max
    total count with min-type ties. Returns (user, type, count)
    arrays, one row per user."""
    from .groupkit import int_group_sums, pair_run_starts, run_starts

    order = np.lexsort((et, users))
    u, t, c = users[order], et[order], n[order]
    starts = pair_run_starts(u.astype(str), t)
    codes = np.repeat(np.arange(len(starts)),
                      np.diff(np.append(starts, len(u))))
    sums = int_group_sums(codes, c, len(starts))
    gu, gt = u[starts], t[starts]
    # weighted argmax per user: (count desc, type asc), first wins —
    # ascending lexsort on (-sums) is safe: counts are positive and
    # far from the int64 wrap boundary
    order2 = np.lexsort((gt, -sums, gu))
    gu, gt, sums = gu[order2], gt[order2], sums[order2]
    first = run_starts(gu.astype(str))
    return gu[first], gt[first], sums[first]


USER_FAVORITE_SQL = """
SELECT CAST(user_id AS BIGINT) AS user_id,
       event_type AS fav_event,
       n
FROM (SELECT user_id, event_type,
             CAST(count(*) AS BIGINT) AS n,
             row_number() OVER (PARTITION BY user_id
                                ORDER BY count(*) DESC, event_type)
                 AS rn
      FROM events GROUP BY user_id, event_type)
WHERE rn = 1
"""

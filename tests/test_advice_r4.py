"""user_favorite_event regression test: a NULL event_type groups as
SQL NULL in the mode argmax and sorts last in its tie-break.

The test drives the REAL query callable against a DuckDB oracle on
the same parquet file (the reference's golden-comparison test style,
tests/test-common.js:747-760)."""

from __future__ import annotations

import datetime as dt

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _oracle(tmp_path, sql):
    import duckdb
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM "
            f"'{tmp_path}/events.parquet'")
    try:
        return con.sql(sql).df()
    finally:
        con.close()


def _assert_frames(mine: pd.DataFrame, orc: pd.DataFrame):
    cols = sorted(mine.columns)
    assert cols == sorted(orc.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))


def test_user_favorite_null_event_type(ray_session, tmp_path):
    """NULL event_type in the mode argmax: groups as SQL NULL and
    loses count ties to any value (DuckDB default NULLS LAST in the
    `ORDER BY event_type` tie-break) — ADVICE r4 #2, rank half."""
    import __ray_entry__ as E
    from jsonld_js_ray.stages.rank import user_favorite_event

    n = 8
    tbl = pa.table({
        "event_id": pa.array(range(n), pa.int64()),
        "ts": pa.array([dt.datetime(2026, 1, 1)] * n,
                       pa.timestamp("us")),
        # user 1: tie NULL×2 vs click×2 → click (NULLS LAST)
        # user 2: only NULL-typed events → favorite IS NULL
        # user 3: NULL×2 beats view×1 → NULL wins on count
        "user_id": pa.array([1, 1, 1, 1, 2, 3, 3, 3], pa.int64()),
        "event_type": pa.array(
            [None, "click", None, "click", None, None, "view", None],
            pa.string()),
        "value": pa.array([1.0] * n, pa.float64()),
        "props": pa.array([""] * n, pa.string()),
    })
    pq.write_table(tbl, str(tmp_path / "events.parquet"))
    mine = user_favorite_event(str(tmp_path)).to_pandas()
    orc = _oracle(tmp_path, E.oracle_sql()["user_favorite_event"])
    _assert_frames(mine, orc)
    byu = mine.set_index("user_id")["fav_event"]
    assert byu[1] == "click"
    assert pd.isna(byu[2]) and pd.isna(byu[3])

"""Round-4 task 5: exact SQL oracles + in-run exactness certificates
for the RAW dedup_minhash / dedup_ngram / dedup_simhash rows.

Also: RE2-'\\S+' tokenizer parity (the engine's dedup tokenizer must
agree with DuckDB's regexp_extract_all(..., '\\S+') on exotic
whitespace — \\x0b, NBSP, ideographic space — where str.split()
diverges), and hamming_pairs (the connectivity-exact unique-signature
reduction produces the same cluster labels as brute-force all-pairs
Hamming, and a bucket of m identical signatures emits O(m) edges, not
O(m²))."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _oracle_df(sql, sf=SF):
    import duckdb
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"'{sf}/documents.parquet'")
    try:
        return con.sql(sql).df()
    finally:
        con.close()


def _cmp(mine: pd.DataFrame, orc: pd.DataFrame):
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))


def test_simhash64_matches_sql_hash():
    """Engine simhash64 == the SQL recomputation for hand texts —
    the bit-exactness that makes SIMHASH_DEDUP_SQL an oracle."""
    import duckdb

    from jsonld_js_ray.stages.dedup import simhash64

    texts = ["hello world hello", "MiXeD Case  double  space",
             "single", ""]
    con = duckdb.connect()
    con.sql("CREATE TABLE documents AS SELECT * FROM (VALUES " +
            ",".join(f"({i}, '{t}')" for i, t in enumerate(texts)) +
            ") t(doc_id, text)")
    sql = r"""
    WITH tok AS (
      SELECT doc_id, t AS tok, CAST(count(*) AS BIGINT) AS w
      FROM documents,
           unnest(regexp_extract_all(lower(coalesce(text, '')),
                                     '\S+')) AS u(t)
      GROUP BY 1, 2),
    th AS (SELECT doc_id,
                  CAST(concat('0x', substr(md5(tok), 1, 16)) AS UBIGINT)
                      AS h, w FROM tok),
    votes AS (SELECT doc_id, b,
                     sum(CASE WHEN (h >> b) & 1 = 1 THEN w ELSE -w END)
                         AS v
              FROM th, unnest(generate_series(0, 63)) AS g(b)
              GROUP BY 1, 2),
    sig AS (SELECT doc_id,
                   sum(CASE WHEN v > 0 THEN CAST(1 AS UBIGINT) << b
                            ELSE CAST(0 AS UBIGINT) END) AS sh
            FROM votes GROUP BY 1)
    SELECT d.doc_id, coalesce(s.sh, 0) AS sh
    FROM documents d LEFT JOIN sig s USING (doc_id) ORDER BY doc_id
    """
    for row in con.sql(sql).fetchall():
        assert simhash64(texts[int(row[0])]) == int(row[1])


@pytest.mark.parametrize("key", ["dedup_minhash", "dedup_ngram",
                                 "dedup_simhash"])
def test_checked_raw_dedup_matches_exact_sql(ray_session, key):
    """The checked wrappers pass their own in-run certificate AND
    match the exact ground-truth SQL at sf0.001."""
    import __ray_entry__ as E

    mine = E.queries()[key](SF).to_pandas()
    orc = _oracle_df(E.oracle_sql()[key])
    _cmp(mine, orc)
    # the raw corpus genuinely contains near-dup clusters — the oracle
    # is not vacuously comparing an identity labeling
    assert (~mine["keep"]).sum() > 0


def test_certificate_raises_on_divergence():
    """_assert_labels_match fails LOUDLY when the engine labeling
    diverges from the referee (the under-recall failure mode)."""
    from jsonld_js_ray.pipelines.training_data import \
        _assert_labels_match

    got = pd.DataFrame({"doc_id": [0, 1, 2],
                        "cluster_id": [0, 1, 2],
                        "keep": [True, True, True]})
    exp = pd.DataFrame({"doc_id": [0, 1, 2],
                        "cluster_id": [0, 0, 2],
                        "keep": [True, False, True]})
    with pytest.raises(RuntimeError, match="pre-check failed"):
        _assert_labels_match(got, exp, "dedup_minhash")


def test_simhash_referee_pairs(ray_session, tmp_path):
    """The chunked all-pairs Hamming referee finds exactly the planted
    near-identical pair and clusters it."""
    import pyarrow.parquet as pq

    from jsonld_js_ray.pipelines.training_data import \
        q_dedup_simhash_checked

    base = " ".join(f"tok{i}" for i in range(200))
    near = base + " extra"
    far = " ".join(f"zzz{i} yyy{i}" for i in range(100))
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([base, near, far], pa.string()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    out = q_dedup_simhash_checked(str(tmp_path)).to_pandas() \
        .set_index("doc_id")
    assert out.loc[1, "cluster_id"] == 0 and not out.loc[1, "keep"]
    assert out.loc[2, "cluster_id"] == 2 and out.loc[2, "keep"]


# --- RE2 '\S+' tokenizer parity ---

# strings where Python str.split() and RE2 '\S+' disagree, plus
# plain ones where they agree
WS_CASES = [
    "a\x0bb",               # vertical tab: RE2 keeps it inside a token
    "a b",             # NBSP
    "a b",             # line separator
    "a　b",             # ideographic space
    "a\x85b",               # NEL
    " a  b\tc\nd\re\ff ",   # ASCII whitespace: both split
    "",
    "\x0b",
    "héllo wörld\x0b mix",
]


def _duck_tokens(s: str) -> list[str]:
    import duckdb
    con = duckdb.connect()
    try:
        return con.execute(
            r"SELECT regexp_extract_all(?, '\S+')", [s]).fetchone()[0]
    finally:
        con.close()


def test_ws_tokens_matches_duckdb_re2():
    from jsonld_js_ray.stages.dedup import ws_tokens

    for s in WS_CASES:
        assert ws_tokens(s) == _duck_tokens(s), repr(s)


def test_ws_tokens_fastpath_equivalence_fuzz():
    """ws_tokens has a str.split() fast path gated on an exotic-
    whitespace scan; fuzz both paths against DuckDB RE2 over an
    alphabet that mixes ASCII ws, exotic ws, and text."""
    import random

    import duckdb

    from jsonld_js_ray.stages.dedup import ws_tokens

    con = duckdb.connect()
    try:
        random.seed(7)
        alphabet = list("ab \t\n\f\r\x0b\x1c\x85\xa0 　xyz.!")
        for _ in range(500):
            s = "".join(random.choice(alphabet)
                        for _ in range(random.randint(0, 30)))
            got = ws_tokens(s)
            want = con.execute(
                r"SELECT regexp_extract_all(?, '\S+')", [s]).fetchone()[0]
            assert got == want, repr(s)
    finally:
        con.close()


def test_str_split_would_diverge():
    """Meta-test: the divergence ws_tokens exists to prevent is real —
    if this ever fails, str.split() became RE2-compatible and the
    helper could be dropped."""
    assert "a\x0bb".split() != _duck_tokens("a\x0bb")


def test_simhash_signature_sql_parity_exotic_ws():
    """simhash64 must agree with the SIMHASH_DEDUP_SQL signature
    construction on a document containing \\x0b / NBSP."""
    import duckdb

    from jsonld_js_ray.stages.dedup import simhash64

    text = "Alpha\x0bBeta gamma delta gamma"
    sig_sql = r"""
    WITH tok AS (
      SELECT t AS tok, CAST(count(*) AS BIGINT) AS w
      FROM unnest(regexp_extract_all(lower(?), '\S+')) AS u(t)
      GROUP BY 1
    ),
    th AS (
      SELECT CAST(concat('0x', substr(md5(tok), 1, 16)) AS UBIGINT)
                 AS h, w
      FROM tok
    ),
    votes AS (
      SELECT b, sum(CASE WHEN (h >> b) & 1 = 1 THEN w ELSE -w END) AS v
      FROM th, unnest(generate_series(0, 63)) AS g(b) GROUP BY 1
    )
    SELECT sum(CASE WHEN v > 0 THEN CAST(1 AS UBIGINT) << b
                    ELSE CAST(0 AS UBIGINT) END) AS sh
    FROM votes
    """
    con = duckdb.connect()
    try:
        expected = int(con.execute(sig_sql, [text]).fetchone()[0])
    finally:
        con.close()
    assert simhash64(text) == expected


# --- hamming_pairs ---

def _labels_from_edges(ids, a, b):
    from jsonld_js_ray.stages.dedup import _UnionFind

    uf = _UnionFind()
    for i in ids:
        uf.union(int(i), int(i))
    for x, y in zip(a, b):
        uf.union(int(x), int(y))
    cl = uf.cluster_map()
    return {int(i): cl.get(int(i), int(i)) for i in ids}


def _brute_edges(ids, sigs, max_h):
    a, b = [], []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if bin(int(sigs[i]) ^ int(sigs[j])).count("1") <= max_h:
                a.append(ids[i])
                b.append(ids[j])
    return a, b


@pytest.mark.parametrize("seed", range(5))
def test_hamming_pairs_closure_equals_bruteforce(seed):
    from jsonld_js_ray.stages.dedup import hamming_pairs

    rng = np.random.RandomState(seed)
    # small signature alphabet + bit noise → plenty of identical and
    # near-identical signatures
    base = rng.randint(0, 1 << 16, size=8).astype(np.uint64)
    picks = base[rng.randint(0, 8, size=60)]
    noise = (np.uint64(1) << rng.randint(0, 64, size=60).astype(
        np.uint64)) * (rng.rand(60) < 0.4).astype(np.uint64)
    sigs = picks ^ noise
    ids = np.arange(100, 100 + 60, dtype=np.int64)
    a, b = hamming_pairs(ids, sigs, 3)
    assert (a < b).all()
    got = _labels_from_edges(ids, a, b)
    exp = _labels_from_edges(ids, *_brute_edges(ids, sigs, 3))
    assert got == exp


def test_hamming_pairs_identical_bucket_is_linear():
    """m identical signatures → exactly m-1 star edges (the O(m²)
    blowup the unique-signature reduction removes) and no ×64
    unpackbits expansion anywhere."""
    from jsonld_js_ray.stages.dedup import hamming_pairs

    m = 5000
    ids = np.arange(m, dtype=np.int64)
    sigs = np.full(m, 0xDEADBEEF, dtype=np.uint64)
    a, b = hamming_pairs(ids, sigs, 3)
    assert len(a) == m - 1
    assert (a == 0).all()           # star center = min id
    got = _labels_from_edges(ids, a, b)
    assert set(got.values()) == {0}


def test_hamming_pairs_empty_and_single():
    from jsonld_js_ray.stages.dedup import hamming_pairs

    for n in (0, 1):
        ids = np.arange(n, dtype=np.int64)
        sigs = np.zeros(n, dtype=np.uint64)
        a, b = hamming_pairs(ids, sigs, 3)
        assert len(a) == 0 and len(b) == 0

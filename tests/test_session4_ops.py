"""Graph operators over the KG quad table: clustering coefficient,
truss support, Jaccard neighbors, assortativity, neighbor sampling,
random walks, property unpivot (semantics + DuckDB oracle parity at
sf0.001; tools/oracle_sweep.py re-checks at sf0.01)."""

from __future__ import annotations

import pyarrow as pa


def _parity(E, q, sf_dir, views):
    import duckdb
    import pandas as pd

    mine = E.queries()[q](sf_dir).to_pandas()
    con = duckdb.connect()
    for t in views:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"'{sf_dir}/{t}.parquet'")
    orc = con.sql(E.oracle_sql()[q]).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))
    return a


def test_kg_clustering_oracle_parity_sf(ray_session, sf_dir):
    import __ray_entry__ as E

    a = _parity(E, "kg_clustering", sf_dir, ("events",))
    # coefficient is a probability: 0 <= n_tri <= n_wedges, deg >= 2
    assert (a["n_wedges"] >= 1).all()
    assert (a["n_tri"] >= 0).all()
    assert (a["n_tri"] <= a["n_wedges"]).all()
    # the conv KG is bipartite-ish (conv→turn→entity, no closing
    # edges) so its triangle count is genuinely 0 — the nonzero path
    # is exercised by test_kg_clustering_semantics below


def test_kg_clustering_semantics(ray_session):
    """K4 on {a,b,c,d} plus pendant e—a: every K4 node sits on 3 of
    its wedge pairs' triangles; a's extra pendant edge raises its
    denominator to C(4,2)=6; e has degree 1 and is excluded."""
    import ray.data as rd

    from jsonld_js_ray.stages.graph import clustering_quads

    edges = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
             ("b", "d"), ("c", "d"), ("e", "a")]
    tbl = pa.table({
        "subj": pa.array([e[0] for e in edges], pa.string()),
        "obj_kind": pa.array(["iri"] * len(edges), pa.string()),
        "obj_value": pa.array([e[1] for e in edges], pa.string()),
    })
    out = clustering_quads(rd.from_arrow(tbl)).to_pandas()
    got = {r.node: (r.n_tri, r.n_wedges) for r in out.itertuples()}
    assert got == {"a": (3, 6), "b": (3, 3), "c": (3, 3),
                   "d": (3, 3)}


def test_kg_truss_support_oracle_parity_sf(ray_session, sf_dir):
    import __ray_entry__ as E

    a = _parity(E, "kg_truss_support", sf_dir, ("events",))
    # one row per distinct undirected edge, u < v, support >= 0
    assert (a["u"] < a["v"]).all()
    assert (a["support"] >= 0).all()
    assert not a.duplicated(["u", "v"]).any()


def test_kg_truss_support_semantics(ray_session):
    """K4 minus one edge (a—b, a—c, a—d, b—c, b—d): two triangles;
    the shared edge a—b supports both, the outer edges one each,
    and c—d doesn't exist."""
    import ray.data as rd

    from jsonld_js_ray.stages.graph import truss_support_quads

    edges = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
             ("b", "d")]
    tbl = pa.table({
        "subj": pa.array([e[0] for e in edges], pa.string()),
        "obj_kind": pa.array(["iri"] * len(edges), pa.string()),
        "obj_value": pa.array([e[1] for e in edges], pa.string()),
    })
    out = truss_support_quads(rd.from_arrow(tbl)).to_pandas()
    got = {(r.u, r.v): r.support for r in out.itertuples()}
    assert got == {("a", "b"): 2, ("a", "c"): 1, ("a", "d"): 1,
                   ("b", "c"): 1, ("b", "d"): 1}


def test_kg_jaccard_neighbors_oracle_parity_sf(ray_session, sf_dir):
    import __ray_entry__ as E

    a = _parity(E, "kg_jaccard_neighbors", sf_dir, ("events",))
    # Jaccard is a probability: 0 < common <= union
    assert (a["n_common"] >= 1).all()
    assert (a["n_common"] <= a["n_union"]).all()


def test_kg_jaccard_neighbors_semantics(ray_session):
    """Star a,b,c around hub h plus edge a—b: pair (a, b) shares
    neighbor h with N(a)={h,b}, N(b)={h,a} → common 1, union 3."""
    import ray.data as rd

    from jsonld_js_ray.stages.graph import jaccard_neighbors

    edges = [("h", "a"), ("h", "b"), ("h", "c"), ("a", "b")]
    tbl = pa.table({
        "subj": pa.array([e[0] for e in edges], pa.string()),
        "obj_kind": pa.array(["iri"] * len(edges), pa.string()),
        "obj_value": pa.array([e[1] for e in edges], pa.string()),
    })
    out = jaccard_neighbors(rd.from_arrow(tbl)).to_pandas()
    got = {(r.u, r.v): (r.n_common, r.n_union)
           for r in out.itertuples()}
    # deg: h=3, a=2, b=2, c=1
    assert got == {
        ("a", "b"): (1, 3),    # share h; |{h,b} ∪ {h,a}| = 3
        ("a", "c"): (1, 2),    # share h; |{h,b} ∪ {h}| = 2
        ("b", "c"): (1, 2),
        ("a", "h"): (1, 4),    # share b; |{h,b} ∪ {a,b,c}| = 4
        ("b", "h"): (1, 4),
    }


def test_kg_assortativity_oracle_parity_sf(ray_session, sf_dir):
    import __ray_entry__ as E

    a = _parity(E, "kg_assortativity", sf_dir, ("events",))
    assert len(a) == 1
    m, s_uv, s_u, s_u2 = (int(a["m"][0]), int(a["s_uv"][0]),
                          int(a["s_u"][0]), int(a["s_u2"][0]))
    assert m > 0
    # Cauchy–Schwarz over edge endpoint degrees: 2m·s_u2 >= s_u²
    assert 2 * m * s_u2 >= s_u * s_u
    # each edge contributes degrees >= 1 on both ends
    assert s_u >= 2 * m and s_uv >= m


def test_kg_neighbor_sample_oracle_parity_sf(ray_session, sf_dir):
    import __ray_entry__ as E

    from jsonld_js_ray.stages.graph import SAMPLE_K

    a = _parity(E, "kg_neighbor_sample", sf_dir, ("events",))
    assert set(a["hop"]) <= {1, 2} and 1 in set(a["hop"])
    # the fan-out bound: every seed has at most K hop-1 neighbors
    h1 = a[a["hop"] == 1]
    assert h1.groupby("seed")["node"].count().max() <= SAMPLE_K
    # hop-2 fan-out bounded by K per hop-1 node → ≤ K² per seed
    h2 = a[a["hop"] == 2]
    if len(h2):
        assert h2.groupby("seed")["node"].count().max() <= SAMPLE_K ** 2


def test_kg_neighbor_sample_deterministic(ray_session, sf_dir):
    """The md5-rank sample is reproducible run-to-run."""
    import pandas as pd

    import __ray_entry__ as E

    q = E.queries()["kg_neighbor_sample"]
    a = q(sf_dir).to_pandas().sort_values(
        ["seed", "hop", "node"]).reset_index(drop=True)
    b = q(sf_dir).to_pandas().sort_values(
        ["seed", "hop", "node"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_kg_random_walks_oracle_parity_sf(ray_session, sf_dir):
    import __ray_entry__ as E

    from jsonld_js_ray.stages.graph import WALK_LEN

    a = _parity(E, "kg_random_walks", sf_dir, ("events",))
    # one node per (seed, step); steps within 1..WALK_LEN; walks only
    # truncate (a seed present at step t+1 is present at step t)
    assert not a.duplicated(["seed", "step"]).any()
    assert a["step"].between(1, WALK_LEN).all()
    per_seed = a.groupby("seed")["step"].agg(["min", "max", "count"])
    assert (per_seed["min"] == 1).all()
    assert (per_seed["count"] == per_seed["max"]).all()


def test_kg_property_unpivot_oracle_parity_sf(ray_session, sf_dir):
    import __ray_entry__ as E

    a = _parity(E, "kg_property_unpivot", sf_dir, ("events",))
    assert not a.duplicated(["node", "pred"]).any()
    assert a["val"].notna().all()          # NULL cells dropped


def test_kg_property_unpivot_roundtrips_pivot(ray_session, sf_dir):
    """Melt(pivot(q)) carries exactly the non-NULL cells of the wide
    table — the inverse-op contract."""
    import __ray_entry__ as E

    wide = E.queries()["kg_property_table"](sf_dir).to_pandas()
    long = E.queries()["kg_property_unpivot"](sf_dir).to_pandas()
    n_cells = int(wide.drop(columns=["node"]).notna().sum().sum())
    assert len(long) == n_cells


def test_kg_clustering_consistent_with_triangle_stats(ray_session,
                                                      sf_dir):
    """Σ per-node credits = 3 × the independently-computed global
    triangle count (each triangle has exactly 3 corners)."""
    import ray.data as rd

    from jsonld_js_ray.pipelines.kg import build_quads
    from jsonld_js_ray.stages.graph import (
        clustering_quads,
        triangle_stats,
    )

    per_node = clustering_quads(
        build_quads(sf_dir, entity_mapping={})).to_pandas()
    stats = triangle_stats(
        build_quads(sf_dir, entity_mapping={})).to_pandas()
    assert per_node["n_tri"].sum() == 3 * int(stats["n_triangles"][0])

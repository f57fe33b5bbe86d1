"""Graph operators over the KG quad table: PageRank (plain and
mention-weighted), triangles, components, communities, k-core, reach,
common neighbors, resource allocation, degree histogram, property
table, entity lift (semantics + DuckDB oracle parity at sf0.001;
tools/oracle_sweep.py re-checks parity at sf0.01). Clustering, truss
support, Jaccard neighbors, assortativity, sampling, random walks and
unpivot are in test_session4_ops.py."""

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


def test_kcore_onion_semantics(ray_session):
    import ray.data as rd

    from jsonld_js_ray.stages.graph import KCORE_K, kcore_quads

    assert KCORE_K == 5
    # K6 clique: degree 5 everywhere -> survives every round (layer 0)
    clique = [chr(ord("A") + i) for i in range(6)]
    edges = [(a, b) for i, a in enumerate(clique)
             for b in clique[i + 1:]]
    edges.append(("A", "P"))            # pendant: peels round 1
    edges += [("X", "Y"), ("Y", "Z")]   # path: peels round 1
    # star: leaves peel round 1, the hub loses all edges -> round 2
    edges += [(f"q{i}", "hub") for i in range(5)]
    tbl = pa.table({
        "subj": pa.array([e[0] for e in edges], pa.string()),
        "obj_kind": pa.array(["iri"] * len(edges), pa.string()),
        "obj_value": pa.array([e[1] for e in edges], pa.string()),
    })
    out = kcore_quads(rd.from_arrow(tbl)).to_pandas() \
        .set_index("node")["peeled_round"]
    assert set(out[clique]) == {0}
    assert out["P"] == 1 and set(out[["X", "Y", "Z"]]) == {1}
    assert set(out[[f"q{i}" for i in range(5)]]) == {1}
    assert out["hub"] == 2
    assert len(out) == len(clique) + 10


def test_kcore_oracle_parity_sf(ray_session, sf_dir):
    import __ray_entry__ as E

    a = _parity(E, "kg_kcore", sf_dir, ("events",))
    # the KG's star shape cascades: turns, then convs/entities, then
    # the class hub — at least three distinct onion layers
    assert a["peeled_round"].nunique() >= 3


def test_reach_bfs_semantics(ray_session):
    """Path seed—a—b—c—d at hops=3: exact min-hop distances 0..3,
    d unreached (absent); a second seed shortcuts c to dist 1."""
    import ray.data as rd

    from jsonld_js_ray.stages.graph import REACH_SEED_PRED, reach_quads

    edges = [("seed", "a"), ("a", "b"), ("b", "c"), ("c", "d"),
             ("d", "e")]
    subj = [e[0] for e in edges]
    obj = [e[1] for e in edges]
    pred = ["p"] * len(edges)
    # the mention quad marks "seed" as an entity seed (and is itself
    # an edge turn0—seed)
    subj.append("turn0")
    obj.append("seed")
    pred.append(REACH_SEED_PRED)
    tbl = pa.table({
        "subj": pa.array(subj, pa.string()),
        "pred": pa.array(pred, pa.string()),
        "obj_kind": pa.array(["iri"] * len(subj), pa.string()),
        "obj_value": pa.array(obj, pa.string()),
    })
    out = reach_quads(rd.from_arrow(tbl), hops=3).to_pandas() \
        .set_index("node")["dist"]
    assert out.to_dict() == {"seed": 0, "turn0": 1, "a": 1, "b": 2,
                             "c": 3}
    # second seed at the far end pulls d/e into range
    tbl2 = pa.table({
        "subj": pa.array(subj + ["turn1"], pa.string()),
        "pred": pa.array(pred + [REACH_SEED_PRED], pa.string()),
        "obj_kind": pa.array(["iri"] * (len(subj) + 1), pa.string()),
        "obj_value": pa.array(obj + ["e"], pa.string()),
    })
    out2 = reach_quads(rd.from_arrow(tbl2), hops=3).to_pandas() \
        .set_index("node")["dist"]
    assert out2["e"] == 0 and out2["d"] == 1 and out2["c"] == 2
    assert out2["turn1"] == 1 and out2["b"] == 2


def test_reach_oracle_parity_sf(ray_session, sf_dir):
    import __ray_entry__ as E

    a = _parity(E, "kg_reach", sf_dir, ("events",))
    # entity seeds at 0, every turn at 1, convs at 2, class hub at 3
    assert set(a["dist"].unique()) == {0, 1, 2, 3}


def test_common_neighbors_semantics(ray_session):
    """Star a,b,c around hub h (+ edge a—b): five wedge pairs, each
    with one shared neighbor; a degree cap of 2 excludes h as a
    center, leaving only the pairs through a and b."""
    import ray.data as rd

    from jsonld_js_ray.stages.graph import common_neighbors

    edges = [("h", "a"), ("h", "b"), ("h", "c"), ("a", "b")]
    tbl = pa.table({
        "subj": pa.array([e[0] for e in edges], pa.string()),
        "obj_kind": pa.array(["iri"] * len(edges), pa.string()),
        "obj_value": pa.array([e[1] for e in edges], pa.string()),
    })
    out = common_neighbors(rd.from_arrow(tbl)).to_pandas()
    got = {(r.u, r.v): r.common for r in out.itertuples()}
    assert got == {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1,
                   ("a", "h"): 1, ("b", "h"): 1}
    capped = common_neighbors(rd.from_arrow(tbl), max_deg=2) \
        .to_pandas()
    got2 = {(r.u, r.v): r.common for r in capped.itertuples()}
    assert got2 == {("a", "h"): 1, ("b", "h"): 1}


def test_common_neighbors_oracle_parity_sf(ray_session, sf_dir):
    import __ray_entry__ as E

    a = _parity(E, "kg_common_neighbors", sf_dir, ("events",))
    # turns sharing a conversation are the dominant wedge pairs
    assert (a["common"] > 1).any()


def test_property_table_semantics(ray_session):
    """Pivot picks MIN value under duplicate assertions and leaves
    NULL for absent predicates; subjects with no selected predicate
    are absent entirely."""
    import ray.data as rd

    from jsonld_js_ray.stages.pivot import property_table

    V = "https://w3id.org/conv#"
    rows = [  # (subj, pred, val)
        ("t1", f"{V}role", "user"),
        ("t1", f"{V}role", "assistant"),      # dup: min -> assistant
        ("t1", f"{V}position", "3"),
        ("t2", f"{V}tool", "search"),          # others NULL
        ("c1", f"{V}turnCount", "9"),          # not selected -> absent
    ]
    tbl = pa.table({
        "subj": pa.array([r[0] for r in rows], pa.string()),
        "pred": pa.array([r[1] for r in rows], pa.string()),
        "obj_kind": pa.array(["literal"] * len(rows), pa.string()),
        "obj_value": pa.array([r[2] for r in rows], pa.string()),
    })
    out = property_table(rd.from_arrow(tbl)).to_pandas() \
        .set_index("node").sort_index()
    assert out.index.tolist() == ["t1", "t2"]
    assert out.loc["t1", "role"] == "assistant"
    assert out.loc["t1", "position"] == "3"
    assert out.loc["t1", "tool"] is None and out.loc["t1", "part_of"] is None
    assert out.loc["t2", "tool"] == "search"
    assert out.loc["t2", "role"] is None


def test_property_table_and_full_outer_parity_sf(ray_session, sf_dir):
    import __ray_entry__ as E

    a = _parity(E, "kg_property_table", sf_dir, ("events",))
    assert len(a) > 0


def test_resource_allocation_semantics(ray_session):
    """Star a,b,c around hub h (+ edge a—b): every wedge weight is
    floor(10^6 / deg(center)); deg(h)=3, deg(a)=deg(b)=2. Pairs via
    center h — (a,b), (a,c), (b,c) — score 333333; (a,h) via center b
    and (b,h) via center a score 500000."""
    import ray.data as rd

    from jsonld_js_ray.stages.graph import resource_allocation

    edges = [("h", "a"), ("h", "b"), ("h", "c"), ("a", "b")]
    tbl = pa.table({
        "subj": pa.array([e[0] for e in edges], pa.string()),
        "obj_kind": pa.array(["iri"] * len(edges), pa.string()),
        "obj_value": pa.array([e[1] for e in edges], pa.string()),
    })
    out = resource_allocation(rd.from_arrow(tbl)).to_pandas()
    got = {(r.u, r.v): r.ra_score for r in out.itertuples()}
    assert got == {("a", "b"): 333333, ("a", "c"): 333333,
                   ("b", "c"): 333333, ("a", "h"): 500000,
                   ("b", "h"): 500000}


def test_new_relational_oracle_parity_sf(ray_session, sf_dir):
    import __ray_entry__ as E

    a = _parity(E, "kg_resource_allocation", sf_dir, ("events",))
    assert len(a) > 0


def test_entity_lift_semantics(ray_session):
    """Hand-built (conv, entity) relation: N=4 convs; pair (a, b)
    co-mentioned once with c(a)=c(b)=2 → lift exactly 10^6
    (independence); pair (x, y) co-occurring both times either
    appears (c=2 each, n12=2) → lift 2×10^6; never-co-mentioned
    pairs are absent."""
    import ray.data as rd

    from jsonld_js_ray.pipelines.kg import LIFT_SCALE, _lift_over_ce

    rows = [  # (conv, entity)
        ("c1", "a"),
        ("c2", "a"), ("c2", "b"),
        ("c3", "b"),
        ("c1", "x"), ("c1", "y"),     # x,y always together
        ("c4", "x"), ("c4", "y"),
    ]
    ce = rd.from_arrow(pa.table({
        "conv": pa.array([r[0] for r in rows], pa.string()),
        "entity": pa.array([r[1] for r in rows], pa.string()),
    }))
    out = _lift_over_ce(ce).to_pandas()
    got = {(r.e1, r.e2): (r.n_both, r.lift) for r in out.itertuples()}
    assert got[("a", "b")] == (1, LIFT_SCALE)
    assert got[("x", "y")] == (2, 2 * LIFT_SCALE)
    # co-mentions in c1: (a,x), (a,y) — present with below-1 lift is
    # impossible here (c(a)=2, c(x)=2, N=4, n12=1 -> exactly 10^6)
    assert got[("a", "x")] == (1, LIFT_SCALE)
    assert ("a", "b") in got and ("b", "x") not in got
    assert len(got) == 4


def test_entity_lift_oracle_parity_sf(ray_session, sf_dir):
    import __ray_entry__ as E

    a = _parity(E, "kg_entity_lift", sf_dir, ("events",))
    # 5 mention surfaces -> up to C(5,2)=10 pairs, all present at sf
    assert len(a) == 10
    assert (a["e1"] < a["e2"]).all()
    assert (a["lift"] > 0).all() and (a["n_both"] > 0).all()


def test_communities_lpa_semantics(ray_session):
    """Two stars (hubs a, b with leaves a0..a3 / b0..b3) joined by
    the bridge a—b. Synchronous LPA oscillates on stars, so the exact
    3-round labels are pinned by the DuckDB oracle parity test; here
    we assert the structural invariant that holds regardless of the
    oscillation phase: all leaves of one star receive the SAME label
    each round (they share the one neighbor), so they agree at the
    end."""
    import ray.data as rd

    from jsonld_js_ray.stages.graph import communities_quads

    edges = [("a", f"a{i}") for i in range(4)]
    edges += [("b", f"b{i}") for i in range(4)]
    edges.append(("a", "b"))
    tbl = pa.table({
        "subj": pa.array([e[0] for e in edges], pa.string()),
        "obj_kind": pa.array(["iri"] * len(edges), pa.string()),
        "obj_value": pa.array([e[1] for e in edges], pa.string()),
    })
    out = communities_quads(rd.from_arrow(tbl)).to_pandas() \
        .set_index("node")["community"]
    leavesA = [out[f"a{i}"] for i in range(4)]
    leavesB = [out[f"b{i}"] for i in range(4)]
    assert len(set(leavesA)) == 1 and len(set(leavesB)) == 1
    import pytest

    with pytest.raises(ValueError):
        communities_quads(rd.from_arrow(tbl), iters=0)


def test_communities_oracle_parity_sf(ray_session, sf_dir):
    import __ray_entry__ as E

    a = _parity(E, "kg_communities", sf_dir, ("events",))
    assert len(a) > 0
    # the rdf:type class hubs pull nodes into a handful of
    # class-anchored communities — more than one, far fewer than nodes
    assert 1 < a["community"].nunique() < len(a)


def test_pagerank_weighted_semantics(ray_session):
    """Weight-split messages: hub h links to a (w=3) and b (w=1); a
    receives 3x b's mass from h; with w==1 everywhere the weighted
    kernel is bit-identical to the unweighted one on the same graph."""
    import ray.data as rd

    from jsonld_js_ray.stages.graph import (
        PR_BASE,
        PR_SCALE,
        pagerank_quads,
        pagerank_weighted,
    )

    edges = pa.table({
        "src": pa.array(["h", "h"], pa.string()),
        "dst": pa.array(["a", "b"], pa.string()),
        "w": pa.array([3, 1], pa.int64()),
    })
    out = pagerank_weighted(rd.from_arrow(edges)).to_pandas() \
        .set_index("node")["pagerank"]
    # closed form: h has no in-edges so its score is PR_BASE from
    # round 1 on; in rounds 2..T a/b receive (h_score·w)//4 with
    # h_score = PR_BASE — the FINAL scores are exactly:
    want_a = PR_BASE + (85 * ((PR_BASE * 3) // 4)) // 100
    want_b = PR_BASE + (85 * (PR_BASE // 4)) // 100
    assert out["h"] == PR_BASE
    assert out["a"] == want_a and out["b"] == want_b
    assert out["a"] > out["b"]
    # w==1 equivalence on a small directed graph
    tbl = pa.table({
        "subj": pa.array(["x", "y", "z"], pa.string()),
        "pred": pa.array(["p"] * 3, pa.string()),
        "obj_kind": pa.array(["iri"] * 3, pa.string()),
        "obj_value": pa.array(["y", "z", "x"], pa.string()),
    })
    unw = pagerank_quads(rd.from_arrow(tbl)).to_pandas() \
        .set_index("node")["pagerank"].sort_index()
    ew = pa.table({
        "src": pa.array(["x", "y", "z"], pa.string()),
        "dst": pa.array(["y", "z", "x"], pa.string()),
        "w": pa.array([1, 1, 1], pa.int64()),
    })
    wgt = pagerank_weighted(rd.from_arrow(ew)).to_pandas() \
        .set_index("node")["pagerank"].sort_index()
    assert (unw == wgt).all()


def test_pagerank_weighted_oracle_parity_sf(ray_session, sf_dir):
    import __ray_entry__ as E

    a = _parity(E, "kg_pagerank_weighted", sf_dir, ("events",))
    # bipartite conv <-> entity graph: convs + the 5 entities
    assert len(a) > 5 and a["pagerank"].nunique() > 1


def test_pagerank_semantics_tiny_graph(ray_session):
    """3-node cycle + a hub: the distributed integer PageRank must
    equal the plain-Python reference of the same integer recurrence."""
    import ray.data as rd

    from jsonld_js_ray.stages.graph import (
        PR_BASE, PR_ITERS, PR_SCALE, pagerank_quads,
    )

    edges = [("a", "b"), ("b", "c"), ("c", "a"),
             ("a", "hub"), ("b", "hub"), ("c", "hub"),
             ("a", "b")]          # duplicate must collapse
    quads = pa.table({
        "subj": pa.array([e[0] for e in edges], pa.string()),
        "obj_kind": pa.array(["iri"] * len(edges), pa.string()),
        "obj_value": pa.array([e[1] for e in edges], pa.string()),
    })
    out = pagerank_quads(rd.from_arrow(quads)).to_pandas() \
        .set_index("node")["pagerank"].to_dict()

    dedup = sorted(set(edges))
    nodes = sorted({u for u, _ in dedup} | {v for _, v in dedup})
    deg = {u: sum(1 for s, _ in dedup if s == u) for u in nodes}
    score = {u: PR_SCALE for u in nodes}
    for _ in range(PR_ITERS):
        nxt = {}
        for v in nodes:
            insum = sum(score[u] // deg[u] for u, w in dedup if w == v)
            nxt[v] = PR_BASE + (85 * insum) // 100
        score = nxt
    assert out == score
    assert out["hub"] > out["a"]          # 3 in-edges beats 1


def test_pagerank_oracle_parity_sf(ray_session, sf_dir):
    import __ray_entry__ as E

    a = _parity(E, "kg_pagerank", sf_dir, ("events",))
    assert len(a) > 100


def _mini_quads(edges, literals=()):
    """Synthetic quad table with only the columns triangle/pagerank
    extraction reads (subj, obj_kind, obj_value)."""
    subj = [s for s, _ in edges] + [s for s, _ in literals]
    objv = [o for _, o in edges] + [o for _, o in literals]
    kind = ["iri"] * len(edges) + ["literal"] * len(literals)
    return pa.table({
        "subj": pa.array(subj, pa.string()),
        "obj_kind": pa.array(kind, pa.string()),
        "obj_value": pa.array(objv, pa.string()),
    })


def test_triangle_stats_semantics(ray_session):
    """K4 plus a pendant triangle: reversed duplicates collapse to one
    undirected edge, self-loops and literals are ignored, and the count
    matches a brute-force enumeration."""
    import itertools

    import ray.data as rd

    from jsonld_js_ray.stages.graph import triangle_stats

    edges = [
        # K4 on A,B,C,D (one edge also present reversed -> must dedup)
        ("A", "B"), ("B", "A"), ("A", "C"), ("A", "D"),
        ("B", "C"), ("B", "D"), ("C", "D"),
        # pendant triangle E-A-B
        ("E", "A"), ("E", "B"),
        # noise: self-loop, a path that closes nothing
        ("F", "F"), ("F", "G"), ("G", "H"),
    ]
    tbl = _mini_quads(edges, literals=[("A", "a literal value")])
    out = triangle_stats(rd.from_arrow(tbl)).to_pydict()

    und = {tuple(sorted(e)) for e in edges if e[0] != e[1]}
    nodes = {n for e in und for n in e}
    brute = sum(1 for a, b, c in itertools.combinations(sorted(nodes), 3)
                if {(a, b), (a, c), (b, c)} <= und)
    assert out["n_nodes"] == [len(nodes)]
    assert out["n_edges"] == [len(und)]
    assert out["n_triangles"] == [brute]
    assert brute == 5          # 4 in K4 + EAB


def test_triangle_stats_oracle_parity_sf(ray_session, sf_dir):
    import __ray_entry__ as E

    a = _parity(E, "kg_triangles", sf_dir, ("events",))
    assert int(a.n_edges.iloc[0]) > 1000


def test_triangle_stats_empty_graph(ray_session):
    """No IRI edges at all -> all-zero stats, no crash."""
    import ray.data as rd

    from jsonld_js_ray.stages.graph import triangle_stats

    tbl = _mini_quads([], literals=[("A", "x"), ("B", "y")])
    out = triangle_stats(rd.from_arrow(tbl)).to_pydict()
    assert out == {"n_nodes": [0], "n_edges": [0], "n_triangles": [0]}


def test_components_semantics(ray_session):
    """Three components get three labels (each the min node string);
    a path longer than LP_ITERS hops pins the R-hop semantics: nodes
    farther than LP_ITERS from the min keep a larger label."""
    import ray.data as rd

    from jsonld_js_ray.stages.graph import LP_ITERS, components_quads

    assert LP_ITERS == 4
    edges = [
        ("B", "A"), ("B", "C"), ("C", "D"),          # comp 1: min A
        ("X", "Y"), ("Y", "Z"),                      # comp 2: min X
        # comp 3: a 6-hop path from the min label "a0":
        # a0 - p1 - p2 - p3 - p4 - p5 - p6
        ("a0", "p1"), ("p1", "p2"), ("p2", "p3"),
        ("p3", "p4"), ("p4", "p5"), ("p5", "p6"),
    ]
    tbl = _mini_quads(edges)
    out = components_quads(rd.from_arrow(tbl)).to_pandas() \
        .set_index("node")["component"]
    assert set(out[["A", "B", "C", "D"]]) == {"A"}
    assert set(out[["X", "Y", "Z"]]) == {"X"}
    # within 4 hops of a0 -> labeled a0
    assert set(out[["a0", "p1", "p2", "p3", "p4"]]) == {"a0"}
    # p5 is 5 hops out: after 4 rounds its label is the min within
    # 4 hops of p5 = min(p1..p6, a0 is 5 away) = "p1"; p6 likewise
    assert out["p5"] == "p1" and out["p6"] == "p2"


def test_components_oracle_parity_sf(ray_session, sf_dir):
    import __ray_entry__ as E

    a = _parity(E, "kg_components", sf_dir, ("events",))
    assert len(a) > 1000


def test_degree_hist_oracle_parity_sf(ray_session, sf_dir):
    import __ray_entry__ as E

    _parity(E, "kg_degree_hist", sf_dir, ("events",))

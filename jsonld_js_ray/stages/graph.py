"""Integer PageRank over the knowledge graph — fixed-iteration link
analysis on the IRI→IRI edges of the quad table (rdf:type, hasTurn,
mentions, … — conversations, turns, entities and classes all become
nodes; literals are excluded).

Floating-point PageRank cannot be oracle-hashed (summation order), so
the contract is an INTEGER damped update whose every operation is
order-independent:

    deg(u)  = out-degree over DISTINCT edges
    s_0(v)  = PR_SCALE
    s_t+1(v) = PR_BASE + (85 · Σ_{u→v} (s_t(u) // deg(u))) // 100

(integer floor division; Σ of integers is order-free; dangling-node
mass is dropped, the standard simplification). PR_ITERS = 3 rounds.

Execution shape — fused message-passing, ONE bucketed exchange per
round (Pregel-style supersteps expressed as Ray Data groupbys):

  Every row lives in the hash bucket of the node it is FOR. A round's
  ``groupby("bucket").map_groups`` holds, per bucket, (a) the
  adjacency rows of its sources, (b) the state rows of its nodes, and
  (c) the messages sent to its nodes by the previous round. The group
  function computes the damped update from the messages and emits, in
  ONE output table, the new state + adjacency (same bucket) and the
  next round's messages (keyed by bucket(dst)) — so the next groupby
  IS the exchange. No unions, no second shuffle per round.

  The seed groupby deduplicates edges keyed by bucket(src) (every
  copy of an edge lands in its source's bucket, so in-bucket dedup is
  global), computes out-degrees right there (a source's whole
  adjacency is co-located), and emits the initial state plus the
  round-1 messages. Total exchanges: 1 + PR_ITERS (was 2 per round +
  2 setup in the unfused design — measured 14.6 s → ~9 s at sf0.1).

Iterations are FIXED-COUNT (no convergence probe), so the plan is a
straight-line lazy pipeline consumed once — no lineage pins needed
(cf. stages/entity_merge.py for the convergence-probe variant).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .assemble import CONV_VOCAB as _CONV_VOCAB
from .entity_merge import _hashed_strings, _pin
from .groupkit import int_group_sums as _int_group_sums
from .groupkit import pair_bucket_ids as _pair_bucket_ids

PR_SCALE = 10 ** 9
PR_BASE = 15 * PR_SCALE // 100
PR_ITERS = 3
PR_BUCKETS = 64


def _bucket_of(keys: np.ndarray) -> pa.Array:
    """Bucket id per string key (shared siphash kernel,
    entity_merge._hashed_strings)."""
    h = _hashed_strings(list(keys))
    return pa.array((h % np.uint64(PR_BUCKETS)).astype(np.int32))


# Row kinds in the fused exchange (one shared schema per round):
#   k=0  adjacency  (node=src, dst)        — rides in src's bucket
#   k=1  state      (node, val=score)      — the node's bucket
#   k=2  message    (node=dst, val=contribution) — receiver's bucket
_K_ADJ, _K_STATE, _K_MSG = 0, 1, 2


def _pr_seed(quads):
    """quad table → the round-1 exchange rows: globally distinct
    (src, dst) IRI→IRI edges as adjacency, state seeds (PR_SCALE) for
    every endpoint, and the bootstrap messages PR_SCALE // deg(src).

    Edge dedup is keyed by bucket(src), so every copy of an edge lands
    in its source's bucket (in-bucket dedup is global) AND the
    source's full adjacency is co-located — out-degree falls out of
    the same group, no separate degree join. State seeds for dst
    nodes are emitted once per (bucket, distinct dst) — ≤ PR_BUCKETS
    duplicates per node, collapsed by the round-1 unique()."""
    def edge_rows(batch: pa.Table) -> pa.Table:
        import pandas as pd

        t = batch.filter(pc.equal(batch["obj_kind"], "iri"))
        df = pd.DataFrame({
            "src": t["subj"].to_numpy(zero_copy_only=False),
            "dst": t["obj_value"].to_numpy(zero_copy_only=False),
        }).drop_duplicates()           # per-batch partial dedup
        src = df["src"].to_numpy(object)
        return pa.table({
            "src": pa.array(src, pa.string()),
            "dst": pa.array(df["dst"], pa.string()),
            "bucket": _bucket_of(src),
        })

    def seed_in_bucket(g) -> pa.Table:
        df = g[["src", "dst"]].drop_duplicates()
        w = np.ones(len(df), np.int64)
        return _pr_seed_rows(df["src"].to_numpy(),
                             df["dst"].to_numpy(), w,
                             np.int32(g["bucket"].iloc[0]))

    return quads.map_batches(edge_rows, batch_format="pyarrow") \
        .groupby("bucket").map_groups(seed_in_bucket,
                                      batch_format="pandas")


def _pr_seed_rows(src, dst, w, b: np.int32) -> pa.Table:
    """Shared weighted seed kernel: adjacency rows carry the edge
    weight in val; round-1 messages are (PR_SCALE · w) // W(src)
    (W = Σ outgoing weight — with w ≡ 1 this is exactly the
    unweighted PR_SCALE // deg)."""
    usrc, codes = np.unique(src, return_inverse=True)
    W = _int_group_sums(codes, w, len(usrc))
    udst = np.unique(dst)
    # same loud-failure contract as the round kernel: seed scores are
    # at their maximum (PR_SCALE), so this is where weight overflow
    # bites first; zero/negative weights would silently divide by zero
    if len(w) and (int(w.max()) > (2 ** 63 - 1) // PR_SCALE
                   or int(w.min()) < 1):
        raise OverflowError(
            "pagerank: edge weight outside [1, ~9.2e9] — rescale the "
            "weights (integer contract)")
    msg = (PR_SCALE * w) // W[codes]
    n_e, n_s = len(src), len(usrc) + len(udst)
    node = np.concatenate([src, usrc, udst, dst])
    out_dst = np.concatenate(
        [dst, np.full(n_s + n_e, None, object)])
    val = np.concatenate([w,
                          np.full(n_s, PR_SCALE, np.int64), msg])
    kind = np.repeat(np.array([_K_ADJ, _K_STATE, _K_MSG], np.int8),
                     [n_e, n_s, n_e])
    bucket = np.concatenate([
        np.full(n_e, b, np.int32),
        _bucket_of(usrc).to_numpy(),
        _bucket_of(udst).to_numpy(),
        _bucket_of(dst).to_numpy()])
    return pa.table({
        "node": pa.array(node, pa.string()),
        "dst": pa.array(out_dst, pa.string()),
        "val": pa.array(val, pa.int64()),
        "k": pa.array(kind, pa.int8()),
        "bucket": pa.array(bucket, pa.int32()),
    })


def _pr_round(state, last: bool):
    """One fused PageRank superstep: score_t(n) = PR_BASE +
    (85 · Σ messages) // 100, then (unless ``last``) re-emit the
    adjacency + new state in place and the round-(t+1) messages
    score_t(src) // deg(src) keyed by bucket(dst)."""
    def round_in_bucket(g) -> pa.Table:
        k = g["k"].to_numpy()
        node = g["node"].to_numpy()
        val = g["val"].to_numpy()
        is_s, is_m, is_a = k == _K_STATE, k == _K_MSG, k == _K_ADJ
        s_nodes = np.unique(node[is_s])
        m_node, m_val = node[is_m], val[is_m].astype(np.int64)
        idx = np.searchsorted(s_nodes, m_node)
        if len(m_node) and not (
                (idx < len(s_nodes)).all()
                and (s_nodes[idx] == m_node).all()):
            raise AssertionError(
                "pagerank invariant broken: message targets a node "
                "with no state row in its bucket")
        insum = _int_group_sums(idx, m_val, len(s_nodes))
        # a node's incoming sum approaches total graph mass
        # (≈ N·PR_SCALE): guard the 85× damping multiply as loudly as
        # the score×weight product below — at 100TB node counts it is
        # the first int64 product to wrap
        if len(insum) and int(insum.max()) > (2 ** 63 - 1) // 85:
            raise OverflowError(
                "pagerank: damped incoming sum exceeds the integer "
                "contract bound; rescale PR_SCALE")
        score = PR_BASE + (85 * insum) // 100
        if last:
            return pa.table({
                "node": pa.array(s_nodes, pa.string()),
                "score": pa.array(score, pa.int64()),
            })
        b = np.int32(g["bucket"].iloc[0])
        a_src, a_dst = node[is_a], g["dst"].to_numpy()[is_a]
        a_w = val[is_a].astype(np.int64)       # edge weight (1 for
        usrc, codes = np.unique(a_src,         # the unweighted graph)
                                return_inverse=True)
        W = _int_group_sums(codes, a_w, len(usrc))
        sidx = np.searchsorted(s_nodes, usrc)
        if len(usrc) and not ((sidx < len(s_nodes)).all()
                              and (s_nodes[sidx] == usrc).all()):
            raise AssertionError(
                "pagerank invariant broken: adjacency source with no "
                "state row in its bucket")
        src_score = score[sidx]
        if len(a_w) and (int(src_score.max()) * int(a_w.max())
                         > 2 ** 63 - 1):
            raise OverflowError(
                "pagerank: score × edge weight exceeds the integer "
                "contract bound; rescale PR_SCALE or the weights")
        msg = (src_score[codes] * a_w) // W[codes]
        n_e, n_s = len(a_src), len(s_nodes)
        out_node = np.concatenate([a_src, s_nodes, a_dst])
        out_dst = np.concatenate(
            [a_dst, np.full(n_s + n_e, None, object)])
        out_val = np.concatenate([a_w, score, msg])
        kind = np.repeat(np.array([_K_ADJ, _K_STATE, _K_MSG], np.int8),
                         [n_e, n_s, n_e])
        bucket = np.concatenate([
            np.full(n_e + n_s, b, np.int32),
            _bucket_of(a_dst).to_numpy()])
        return pa.table({
            "node": pa.array(out_node, pa.string()),
            "dst": pa.array(out_dst, pa.string()),
            "val": pa.array(out_val, pa.int64()),
            "k": pa.array(kind, pa.int8()),
            "bucket": pa.array(bucket, pa.int32()),
        })

    return state.groupby("bucket").map_groups(round_in_bucket,
                                              batch_format="pandas")


def _pr_run(state):
    """PR_ITERS fused rounds + the (node, pagerank) projection —
    shared driver tail of the unweighted and weighted operators."""
    for t in range(PR_ITERS):
        state = _pr_round(state, last=(t == PR_ITERS - 1))

    def final(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["node"],
                         "pagerank": batch["score"]})

    return state.map_batches(final, batch_format="pyarrow")


def pagerank_quads(quads):
    """quad table → (node, pagerank): PR_ITERS rounds of the integer
    damped update over the distinct IRI→IRI edge graph, as
    1 + PR_ITERS fused bucketed exchanges (see module docstring)."""
    return _pr_run(_pr_seed(quads))


def _pr_oracle_rounds(head: str, msg_expr: str) -> str:
    """Shared chained-CTE tail: ``head`` must define e (src, dst[,
    w]), d (per-src divisor) and n (nodes); ``msg_expr`` is the
    per-edge message (floor division, matching the kernel)."""
    ctes = [head + f""",
s0 AS (SELECT node, CAST({PR_SCALE} AS BIGINT) AS score FROM n)"""]
    for t in range(1, PR_ITERS + 1):
        ctes.append(f"""
i{t} AS (SELECT e.dst AS node, sum({msg_expr.format(s=f's{t - 1}')})
             AS insum
      FROM e JOIN d USING (src)
             JOIN s{t - 1} ON s{t - 1}.node = e.src
      GROUP BY e.dst),
s{t} AS (SELECT n.node,
             CAST({PR_BASE} + (85 * coalesce(i{t}.insum, 0)) // 100
                  AS BIGINT) AS score
      FROM n LEFT JOIN i{t} USING (node))""")
    return (",".join(ctes)
            + f"\nSELECT node, score AS pagerank FROM s{PR_ITERS}")


def _pagerank_oracle_sql(quads_sql: str) -> str:
    """Chained-CTE mirror: s0 → (i1, s1) → … → (i_T, s_T)."""
    head = f"""
WITH q AS ({quads_sql}),
e AS (SELECT DISTINCT subj AS src, obj_value AS dst
      FROM q WHERE obj_kind = 'iri'),
d AS (SELECT src, CAST(count(*) AS BIGINT) AS deg FROM e GROUP BY src),
n AS (SELECT src AS node FROM e UNION SELECT dst AS node FROM e)"""
    return _pr_oracle_rounds(head, "{s}.score // d.deg")


# --- triangle counting (degree-oriented wedge join) ---
# Classic scalable triangle count (Cohen's MapReduce formulation /
# node-iterator++): orient every undirected edge from its lower-rank
# endpoint to its higher-rank endpoint, rank = (degree, node) — the
# out-degree of any node is then O(sqrt(2m)), so per-center wedge
# generation is bounded even on power-law graphs.  Each triangle is
# counted EXACTLY once: at its lowest-rank vertex.  Five bucketed
# shuffles (edge-pair dedup; node-keyed degree attach; pair-keyed
# orient; wedge generation; wedge-close join) plus the n_nodes count
# pass; nothing driver-side but three scalars.

TRI_BUCKETS = 64

# wedge-center degree cap shared by the link-prediction family
# (common_neighbors / resource_allocation / jaccard_neighbors) — part
# of the operator CONTRACT, mirrored in every oracle
CN_MAX_DEG = 64


def _undirected_edges(quads):
    """quad table → globally distinct undirected IRI–IRI edges
    (u < v by string order, self-loops dropped)."""
    def edge_rows(batch: pa.Table) -> pa.Table:
        import pandas as pd

        t = batch.filter(pc.equal(batch["obj_kind"], "iri"))
        # fixed-width unicode arrays: C-vectorized comparisons (object
        # arrays would fall back to per-row Python __lt__)
        s = np.asarray(t["subj"].to_pylist(), dtype=str)
        o = np.asarray(t["obj_value"].to_pylist(), dtype=str)
        keep = s != o
        s, o = s[keep], o[keep]
        lo = s < o
        u = np.where(lo, s, o)
        v = np.where(lo, o, s)
        df = pd.DataFrame({"u": u, "v": v}).drop_duplicates()
        return pa.table({
            "u": pa.array(df["u"], pa.string()),
            "v": pa.array(df["v"], pa.string()),
            "bucket": pa.array(_pair_bucket_ids(
                df["u"].to_numpy(object), df["v"].to_numpy(object),
                TRI_BUCKETS)),
        })

    def dedup_in_bucket(g) -> pa.Table:
        df = g[["u", "v"]].drop_duplicates()
        return pa.table({
            "u": pa.array(df["u"], pa.string()),
            "v": pa.array(df["v"], pa.string()),
        })

    return quads.map_batches(edge_rows, batch_format="pyarrow") \
        .groupby("bucket").map_groups(dedup_in_bucket,
                                      batch_format="pandas")


def _tri_degrees(und):
    """undirected edges → (node, deg). Per-batch partial counts bound
    the shuffle at distinct-nodes-per-block rows."""
    def partial(batch: pa.Table) -> pa.Table:
        node = np.concatenate([
            batch["u"].to_numpy(zero_copy_only=False),
            batch["v"].to_numpy(zero_copy_only=False)])
        uniq, counts = np.unique(node, return_counts=True)
        return pa.table({
            "node": pa.array(uniq, pa.string()),
            "cnt": pa.array(counts.astype(np.int64)),
            "bucket": _bucket_of(uniq),
        })

    def total_in_bucket(g) -> pa.Table:
        nodes = g["node"].to_numpy()
        cnt = g["cnt"].to_numpy().astype(np.int64)
        uniq, codes = np.unique(nodes, return_inverse=True)
        return pa.table({
            "node": pa.array(uniq, pa.string()),
            "deg": pa.array(_int_group_sums(codes, cnt, len(uniq))),
        })

    return und.map_batches(partial, batch_format="pyarrow") \
        .groupby("bucket").map_groups(total_in_bucket,
                                      batch_format="pandas")


def _oriented_edges(und):
    """(u, v) → (a, b, db, bucket): each edge directed from its lower
    (deg, node) rank endpoint; db = deg(b) rides along so wedge
    generation can rank neighbors without another join.

    NO separate degree join: shuffle 1 routes BOTH endpoint-keyed
    copies of every edge to node buckets, where deg(n) is simply the
    number of rows keyed by n (every incident edge contributes exactly
    one); shuffle 2 reunites the two half-annotated copies of each
    edge by canonical pair and orients it. The emitted ``bucket``
    column is already the wedge key (hash of a)."""
    def both_ends(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        key = np.concatenate([u, v])
        other = np.concatenate([v, u])
        end = np.concatenate([np.zeros(len(u), np.int8),
                              np.ones(len(v), np.int8)])
        return pa.table({
            "key": pa.array(key, pa.string()),
            "other": pa.array(other, pa.string()),
            "end": pa.array(end),
            "bucket": _bucket_of(key),
        })

    def attach_deg(g) -> pa.Table:
        keys = g["key"].to_numpy()
        other = g["other"].to_numpy()
        end = g["end"].to_numpy()
        uniq, codes, counts = np.unique(keys, return_inverse=True,
                                        return_counts=True)
        d = counts[codes].astype(np.int64)
        # recover the canonical (u, v): end 0 rows are keyed by u
        is_u = end == 0
        u = np.where(is_u, keys, other)
        v = np.where(is_u, other, keys)
        return pa.table({
            "u": pa.array(u, pa.string()),
            "v": pa.array(v, pa.string()),
            "d": pa.array(d),
            "end": pa.array(end),
            "bucket": pa.array(_pair_bucket_ids(u, v, TRI_BUCKETS)),
        })

    halves = und.map_batches(both_ends, batch_format="pyarrow") \
        .groupby("bucket").map_groups(attach_deg, batch_format="pandas")

    def orient_in_bucket(g) -> pa.Table:
        if not len(g):
            return pa.table({"a": pa.array([], pa.string()),
                             "b": pa.array([], pa.string()),
                             "db": pa.array([], pa.int64()),
                             "bucket": pa.array([], pa.int32())})
        u = np.asarray(g["u"].to_numpy(object), dtype=str)
        v = np.asarray(g["v"].to_numpy(object), dtype=str)
        d = g["d"].to_numpy(np.int64)
        end = g["end"].to_numpy(np.int8)
        # exactly two rows per distinct edge (one per end): sort by
        # (u, v, end) and read them off pairwise
        order = np.lexsort((end, v, u))
        u, v, d = u[order], v[order], d[order]
        du, dv = d[0::2], d[1::2]
        u, v = u[0::2], v[0::2]
        u_low = (du < dv) | ((du == dv) & (u < v))
        a = np.where(u_low, u, v)
        b = np.where(u_low, v, u)
        return pa.table({
            "a": pa.array(a, pa.string()),
            "b": pa.array(b, pa.string()),
            "db": pa.array(np.where(u_low, dv, du).astype(np.int64)),
            "bucket": _bucket_of(a),
        })

    return halves.groupby("bucket").map_groups(orient_in_bucket,
                                               batch_format="pandas")


def _wedges(directed, with_center: bool = False):
    """directed (a, b, db, bucket=hash(a)) → candidate wedges (x, y)
    with rank(x) < rank(y): all ordered out-neighbor pairs per center,
    vectorized via groupkit.run_pair_indices (out-degree is
    O(sqrt(2m)) under the degree orientation, bounding per-center
    work). The bucket column already carries the center key.
    ``with_center`` adds the pivot node as a ``ctr`` column (needed by
    per-node triangle credits in clustering_quads; the global count of
    triangle_stats doesn't pay for it)."""
    from .groupkit import run_pair_indices

    def wedges_in_bucket(g) -> pa.Table:
        a = g["a"].to_numpy()
        b = np.asarray(g["b"].to_numpy(object), dtype=str)
        db = g["db"].to_numpy(np.int64)
        order = np.lexsort((b, db, a))
        a_s, b_s = a[order], b[order]
        i_idx, j_idx = run_pair_indices(a_s)
        cols = {
            "x": pa.array(b_s[i_idx], pa.string()),
            "y": pa.array(b_s[j_idx], pa.string()),
        }
        if with_center:
            cols["ctr"] = pa.array(a_s[i_idx], pa.string())
        return pa.table(cols)

    return directed.groupby("bucket").map_groups(wedges_in_bucket,
                                                 batch_format="pandas")


def triangle_stats(quads, und=None, directed=None, deg=None):
    """quad table → 1-row pyarrow.Table (n_nodes, n_edges,
    n_triangles) over the undirected distinct IRI–IRI graph.

    Wedges close against the oriented edge set in a final bucketed
    hash join keyed by the fused (x, y) pair hash; only per-bucket
    match counts (scalars) leave the workers.

    ``und``/``directed``/``deg`` accept the PINNED artifacts so one
    derivation serves the whole triangle family (triangles,
    clustering, truss) within a bench/driver session — each used to
    re-derive its own (VERDICT r3 #6)."""
    und = und if und is not None else _pin(_undirected_edges(quads))
    directed = directed if directed is not None \
        else _pin(_oriented_edges(und))

    def pair_bucket(x, y) -> pa.Array:
        return pa.array(_pair_bucket_ids(x, y, TRI_BUCKETS))

    def wedge_rows(batch: pa.Table) -> pa.Table:
        x = batch["x"].to_numpy(zero_copy_only=False)
        y = batch["y"].to_numpy(zero_copy_only=False)
        return pa.table({
            "x": batch["x"], "y": batch["y"],
            "is_edge": pa.array(np.zeros(len(x), np.int8)),
            "bucket": pair_bucket(x, y),
        })

    def edge_rows(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False)
        b = batch["b"].to_numpy(zero_copy_only=False)
        return pa.table({
            "x": batch["a"], "y": batch["b"],
            "is_edge": pa.array(np.ones(len(a), np.int8)),
            "bucket": pair_bucket(a, b),
        })

    def close_in_bucket(g) -> pa.Table:
        e = g[g["is_edge"] == 1][["x", "y"]]
        w = g[g["is_edge"] == 0][["x", "y"]]
        n = len(w.merge(e, on=["x", "y"])) if len(e) and len(w) else 0
        return pa.table({"n": pa.array([n], pa.int64())})

    closed = _wedges(directed).map_batches(wedge_rows,
                                           batch_format="pyarrow") \
        .union(directed.map_batches(edge_rows, batch_format="pyarrow")) \
        .groupby("bucket").map_groups(close_in_bucket,
                                      batch_format="pandas")

    n_tri = closed.sum("n") or 0
    return pa.table({
        "n_nodes": pa.array([(deg if deg is not None
                              else _tri_degrees(und)).count()],
                            pa.int64()),
        "n_edges": pa.array([und.count()], pa.int64()),
        "n_triangles": pa.array([int(n_tri)], pa.int64()),
    })


def _triangle_oracle_sql(quads_sql: str) -> str:
    """3-way self-join oracle over the canonical u < v < w edges."""
    return f"""
WITH q AS ({quads_sql}),
e AS (SELECT DISTINCT least(subj, obj_value) AS u,
                      greatest(subj, obj_value) AS v
      FROM q WHERE obj_kind = 'iri' AND subj <> obj_value)
SELECT
  (SELECT count(*) FROM (SELECT u AS n FROM e UNION SELECT v FROM e))
      AS n_nodes,
  (SELECT count(*) FROM e) AS n_edges,
  (SELECT count(*)
   FROM e e1 JOIN e e2 ON e2.u = e1.u AND e2.v > e1.v
             JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v) AS n_triangles
"""


def clustering_quads(quads, und=None, directed=None, deg=None):
    """quad table → (node, n_tri, n_wedges) for every node with
    degree ≥ 2 over the undirected distinct IRI–IRI graph: the local
    clustering coefficient n_tri / n_wedges kept as its EXACT integer
    numerator (triangles through the node) and denominator
    (deg·(deg−1)/2), per the repo contract that float division is
    done by the reader, not hashed.

    Same degree-oriented machinery as triangle_stats, but wedges carry
    their pivot so every closed triangle credits all three corners:
    the in-bucket closure join emits per-node partial counts (never
    pair rows), which meet the per-node degrees from _tri_degrees in
    one final node-bucketed exchange. Each triangle closes exactly
    once (its min-rank vertex pivots both oriented edges), so corner
    credits are exact. ``und``/``directed``: see triangle_stats."""
    und = und if und is not None else _pin(_undirected_edges(quads))
    directed = directed if directed is not None \
        else _pin(_oriented_edges(und))

    def pair_bucket(x, y) -> pa.Array:
        return pa.array(_pair_bucket_ids(x, y, TRI_BUCKETS))

    def wedge_rows(batch: pa.Table) -> pa.Table:
        x = batch["x"].to_numpy(zero_copy_only=False)
        y = batch["y"].to_numpy(zero_copy_only=False)
        return pa.table({
            "x": batch["x"], "y": batch["y"], "ctr": batch["ctr"],
            "is_edge": pa.array(np.zeros(len(x), np.int8)),
            "bucket": pair_bucket(x, y),
        })

    def edge_rows(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False)
        b = batch["b"].to_numpy(zero_copy_only=False)
        return pa.table({
            "x": batch["a"], "y": batch["b"],
            "ctr": pa.array([""] * len(a), pa.string()),
            "is_edge": pa.array(np.ones(len(a), np.int8)),
            "bucket": pair_bucket(a, b),
        })

    def close_credits(g) -> pa.Table:
        e = g[g["is_edge"] == 1][["x", "y"]]
        w = g[g["is_edge"] == 0][["x", "y", "ctr"]]
        if not len(e) or not len(w):
            return pa.table({
                "node": pa.array([], pa.string()),
                "cnt": pa.array([], pa.int64()),
                "nbucket": pa.array([], pa.int32()),
            })
        m = w.merge(e, on=["x", "y"])
        node = np.concatenate([m["x"].to_numpy(object),
                               m["y"].to_numpy(object),
                               m["ctr"].to_numpy(object)])
        uniq, counts = np.unique(node.astype(str), return_counts=True)
        return pa.table({
            "node": pa.array(uniq, pa.string()),
            "cnt": pa.array(counts.astype(np.int64)),
            "nbucket": _bucket_of(uniq),
        })

    credits = _wedges(directed, with_center=True) \
        .map_batches(wedge_rows, batch_format="pyarrow") \
        .union(directed.map_batches(edge_rows, batch_format="pyarrow")) \
        .groupby("bucket").map_groups(close_credits,
                                      batch_format="pandas")

    def tri_side(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "node": batch["node"],
            "tri": batch["cnt"].cast(pa.int64()),
            "deg": pa.array(np.zeros(n, np.int64)),
            "nbucket": batch["nbucket"],
        })

    def deg_side(batch: pa.Table) -> pa.Table:
        nodes = batch["node"].to_numpy(zero_copy_only=False)
        return pa.table({
            "node": batch["node"],
            "tri": pa.array(np.zeros(len(nodes), np.int64)),
            "deg": batch["deg"].cast(pa.int64()),
            "nbucket": _bucket_of(nodes),
        })

    from .groupkit import run_lengths, run_starts

    def finish(g) -> pa.Table:
        nodes = np.asarray(g["node"].to_numpy(object), dtype=str)
        tri = g["tri"].to_numpy(np.int64)
        deg = g["deg"].to_numpy(np.int64)
        order = np.argsort(nodes, kind="stable")
        n_s, t_s, d_s = nodes[order], tri[order], deg[order]
        starts = run_starts(n_s)
        codes = np.repeat(np.arange(len(starts)),
                          run_lengths(n_s, starts))
        n_tri = _int_group_sums(codes, t_s, len(starts))
        degs = _int_group_sums(codes, d_s, len(starts))
        keep = degs >= 2
        return pa.table({
            "node": pa.array(n_s[starts][keep], pa.string()),
            "n_tri": pa.array(n_tri[keep]),
            "n_wedges": pa.array(degs[keep] * (degs[keep] - 1) // 2),
        })

    deg = deg if deg is not None else _tri_degrees(und)
    return credits.map_batches(tri_side, batch_format="pyarrow") \
        .union(deg.map_batches(deg_side, batch_format="pyarrow")) \
        .groupby("nbucket").map_groups(finish, batch_format="pandas")


def truss_support_quads(quads, und=None, directed=None):
    """quad table → (u, v, support) for EVERY distinct undirected
    IRI–IRI edge (u < v): the number of triangles the edge sits in —
    the k-truss decomposition's base quantity (an edge survives the
    k-truss iff support ≥ k−2).

    Reuses the degree-oriented closure engine (clustering_quads):
    each triangle closes exactly once, crediting its THREE edges in
    canonical (u < v) string order; per-bucket partial pair counts
    meet the full edge list (support-0 rows preserved) in one final
    pair-bucketed exchange. ``und``/``directed``: see
    triangle_stats."""
    from .groupkit import pair_run_starts

    und = und if und is not None else _pin(_undirected_edges(quads))
    directed = directed if directed is not None \
        else _pin(_oriented_edges(und))

    def wedge_rows(batch: pa.Table) -> pa.Table:
        x = batch["x"].to_numpy(zero_copy_only=False)
        y = batch["y"].to_numpy(zero_copy_only=False)
        return pa.table({
            "x": batch["x"], "y": batch["y"], "ctr": batch["ctr"],
            "is_edge": pa.array(np.zeros(len(x), np.int8)),
            "bucket": pa.array(_pair_bucket_ids(x, y, TRI_BUCKETS)),
        })

    def edge_rows(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False)
        b = batch["b"].to_numpy(zero_copy_only=False)
        return pa.table({
            "x": batch["a"], "y": batch["b"],
            "ctr": pa.array([""] * len(a), pa.string()),
            "is_edge": pa.array(np.ones(len(a), np.int8)),
            "bucket": pa.array(_pair_bucket_ids(a, b, TRI_BUCKETS)),
        })

    def close_edge_credits(g) -> pa.Table:
        e = g[g["is_edge"] == 1][["x", "y"]]
        w = g[g["is_edge"] == 0][["x", "y", "ctr"]]
        if not len(e) or not len(w):
            return pa.table({
                "u": pa.array([], pa.string()),
                "v": pa.array([], pa.string()),
                "cnt": pa.array([], pa.int64()),
                "pbucket": pa.array([], pa.int32()),
            })
        m = w.merge(e, on=["x", "y"])
        x = np.asarray(m["x"].to_numpy(object), dtype=str)
        y = np.asarray(m["y"].to_numpy(object), dtype=str)
        c = np.asarray(m["ctr"].to_numpy(object), dtype=str)
        # the triangle's three edges, canonicalized u < v by STRING
        # order (wedge rows are rank-ordered, not string-ordered);
        # np.where on the comparison — np.minimum has no unicode loop
        xy, cx, cy = x < y, c < x, c < y
        eu = np.concatenate([np.where(xy, x, y), np.where(cx, c, x),
                             np.where(cy, c, y)])
        ev = np.concatenate([np.where(xy, y, x), np.where(cx, x, c),
                             np.where(cy, y, c)])
        order = np.lexsort((ev, eu))
        eu, ev = eu[order], ev[order]
        starts = pair_run_starts(eu, ev)
        lens = np.diff(np.append(starts, len(eu)))
        du, dv = eu[starts], ev[starts]
        return pa.table({
            "u": pa.array(du, pa.string()),
            "v": pa.array(dv, pa.string()),
            "cnt": pa.array(lens.astype(np.int64)),
            "pbucket": pa.array(
                _pair_bucket_ids(du, dv, TRI_BUCKETS)),
        })

    credits = _wedges(directed, with_center=True) \
        .map_batches(wedge_rows, batch_format="pyarrow") \
        .union(directed.map_batches(edge_rows, batch_format="pyarrow")) \
        .groupby("bucket").map_groups(close_edge_credits,
                                      batch_format="pandas")

    def edge_zero_rows(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        return pa.table({
            "u": batch["u"], "v": batch["v"],
            "cnt": pa.array(np.zeros(len(u), np.int64)),
            "pbucket": pa.array(_pair_bucket_ids(u, v, TRI_BUCKETS)),
        })

    def finish(g) -> pa.Table:
        u = np.asarray(g["u"].to_numpy(object), dtype=str)
        v = np.asarray(g["v"].to_numpy(object), dtype=str)
        cnt = g["cnt"].to_numpy(np.int64)
        order = np.lexsort((v, u))
        u, v, cnt = u[order], v[order], cnt[order]
        starts = pair_run_starts(u, v)
        sums = (np.add.reduceat(cnt, starts) if len(starts)
                else np.zeros(0, np.int64))
        return pa.table({
            "u": pa.array(u[starts], pa.string()),
            "v": pa.array(v[starts], pa.string()),
            "support": pa.array(sums),
        })

    return credits.union(
        und.map_batches(edge_zero_rows, batch_format="pyarrow")) \
        .groupby("pbucket").map_groups(finish, batch_format="pandas")


def _truss_support_oracle_sql(quads_sql: str) -> str:
    """Each canonical triangle (a < b < c) credits its three edges;
    support-0 edges preserved by the LEFT join."""
    return f"""
WITH q AS ({quads_sql}),
e AS (SELECT DISTINCT least(subj, obj_value) AS u,
                      greatest(subj, obj_value) AS v
      FROM q WHERE obj_kind = 'iri' AND subj <> obj_value),
t AS (SELECT e1.u AS a, e1.v AS b, e2.v AS c
      FROM e e1 JOIN e e2 ON e2.u = e1.u AND e2.v > e1.v
                JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v),
te AS (SELECT a AS u, b AS v FROM t
       UNION ALL SELECT a, c FROM t
       UNION ALL SELECT b, c FROM t),
sup AS (SELECT u, v, CAST(count(*) AS BIGINT) AS s
        FROM te GROUP BY u, v)
SELECT e.u, e.v,
       CAST(coalesce(sup.s, 0) AS BIGINT) AS support
FROM e LEFT JOIN sup ON sup.u = e.u AND sup.v = e.v
"""


def jaccard_neighbors(quads, max_deg: int = CN_MAX_DEG, und=None,
                      deg=None):
    """quad table → (u, v, n_common, n_union) for pairs sharing ≥ 1
    neighbor with degree in [2, ``max_deg``]: the neighborhood
    Jaccard link-prediction index kept as its EXACT integer numerator
    and denominator (n_union = deg(u) + deg(v) − n_common over FULL,
    uncapped endpoint degrees; the cap bounds wedge centers only, per
    the common_neighbors contract).

    One extra exchange beyond _wedge_scores: each common-count pair
    splits into two node-keyed half rows that pick up their
    endpoint's degree from the (node, deg) table routed into the same
    bucket (n node rows — NOT the 2m edge-endpoint rows the original
    formulation re-shipped; at sf0.1 that cut the attach exchange
    from 803k+1.9M rows to 102k+1.9M), then the pair bucket reunites
    the halves. ``und``/``deg`` let the session pass the pinned
    shared artifacts so neither the edge dedup nor the degree count
    reruns per consumer."""
    from .groupkit import pair_run_starts, sorted_lookup

    und = und if und is not None else _pin(_undirected_edges(quads))
    deg = deg if deg is not None else _tri_degrees(und)
    pairs = _wedge_scores(quads, max_deg, "common", scale=None,
                          und=und)

    def halves(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        c = batch["common"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        key = np.concatenate([u, v])
        other = np.concatenate([v, u])
        end = np.concatenate([np.zeros(len(u), np.int8),
                              np.ones(len(v), np.int8)])
        return pa.table({
            "key": pa.array(key, pa.string()),
            "other": pa.array(other, pa.string()),
            "common": pa.array(np.concatenate([c, c])),
            "end": pa.array(end),
            "is_pair": pa.array(np.ones(2 * len(u), np.int8)),
            "bucket": _bucket_of(key),
        })

    def deg_rows(batch: pa.Table) -> pa.Table:
        node = batch["node"].to_numpy(zero_copy_only=False)
        d = batch["deg"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        n = len(node)
        # the deg value rides the shared "common" column
        return pa.table({
            "key": pa.array(node, pa.string()),
            "other": pa.array([""] * n, pa.string()),
            "common": pa.array(d),
            "end": pa.array(np.zeros(n, np.int8)),
            "is_pair": pa.array(np.zeros(n, np.int8)),
            "bucket": _bucket_of(node),
        })

    def attach_deg(g) -> pa.Table:
        is_pair = (g["is_pair"] == 1).to_numpy()
        keys = g["key"].to_numpy()
        # (node, deg) rows routed into this bucket; nodes unique
        ek_raw = keys[~is_pair]
        ec_raw = g["common"].to_numpy(np.int64)[~is_pair]
        order = np.argsort(ek_raw, kind="stable")
        ek, ec = ek_raw[order], ec_raw[order]
        p = g[is_pair]
        pk = p["key"].to_numpy()
        hit, idx = sorted_lookup(ek, pk)
        deg = np.where(hit, ec[idx] if len(ec) else 0, 0) \
            .astype(np.int64)
        is_u = (p["end"] == 0).to_numpy()
        u = np.where(is_u, pk, p["other"].to_numpy())
        v = np.where(is_u, p["other"].to_numpy(), pk)
        return pa.table({
            "u": pa.array(u, pa.string()),
            "v": pa.array(v, pa.string()),
            "common": pa.array(p["common"].to_numpy(np.int64)),
            "deg": pa.array(deg),
            "pbucket": pa.array(_pair_bucket_ids(u, v, PR_BUCKETS)),
        })

    def reunite(g) -> pa.Table:
        u = np.asarray(g["u"].to_numpy(object), dtype=str)
        v = np.asarray(g["v"].to_numpy(object), dtype=str)
        c = g["common"].to_numpy(np.int64)
        d = g["deg"].to_numpy(np.int64)
        order = np.lexsort((v, u))
        u, v, c, d = u[order], v[order], c[order], d[order]
        starts = pair_run_starts(u, v)
        # exactly two half rows per pair (one per endpoint)
        dsum = np.add.reduceat(d, starts) if len(starts) \
            else np.zeros(0, np.int64)
        return pa.table({
            "u": pa.array(u[starts], pa.string()),
            "v": pa.array(v[starts], pa.string()),
            "n_common": pa.array(c[starts]),
            "n_union": pa.array(dsum - c[starts]),
        })

    return pairs.map_batches(halves, batch_format="pyarrow") \
        .union(deg.map_batches(deg_rows, batch_format="pyarrow")) \
        .groupby("bucket").map_groups(attach_deg,
                                      batch_format="pandas") \
        .groupby("pbucket").map_groups(reunite, batch_format="pandas")


def _jaccard_neighbors_oracle_sql(quads_sql: str,
                                  max_deg: int = CN_MAX_DEG) -> str:
    return f"""
WITH q AS ({quads_sql}),
e0 AS (SELECT DISTINCT least(subj, obj_value) AS u,
                       greatest(subj, obj_value) AS v
       FROM q WHERE obj_kind = 'iri' AND subj <> obj_value),
ed AS (SELECT u AS a, v AS b FROM e0 UNION ALL SELECT v, u FROM e0),
d AS (SELECT a AS node, CAST(count(*) AS BIGINT) AS deg
      FROM ed GROUP BY a),
c AS (SELECT ed.a AS ctr, ed.b AS nb FROM ed
      JOIN d ON d.node = ed.a WHERE d.deg BETWEEN 2 AND {max_deg}),
cn AS (SELECT x.nb AS u, y.nb AS v,
              CAST(count(*) AS BIGINT) AS n_common
       FROM c x JOIN c y ON x.ctr = y.ctr AND x.nb < y.nb
       GROUP BY x.nb, y.nb)
SELECT cn.u, cn.v, cn.n_common,
       CAST(du.deg + dv.deg - cn.n_common AS BIGINT) AS n_union
FROM cn JOIN d du ON du.node = cn.u
        JOIN d dv ON dv.node = cn.v
"""


def assortativity_moments_quads(quads, und=None):
    """quad table → ONE row (m, s_uv, s_u, s_u2) of exact integer
    moments over the undirected distinct IRI–IRI edge set, where for
    each edge (u, v): s_uv += deg(u)·deg(v), s_u += deg(u)+deg(v),
    s_u2 += deg(u)²+deg(v)² and m = |edges|. The degree-assortativity
    (Pearson) coefficient is pure arithmetic on these four integers —
    r = (4m·s_uv − s_u²) / (2m·s_u2 − s_u²) — left to the reader per
    the repo contract (float division is never hashed).

    Two exchanges past the edge dedup: endpoint-keyed halves pick up
    deg(n) = row count in n's bucket (the no-join degree trick), the
    pair bucket reunites the two halves of each edge, and only
    per-bucket partial moment rows (4 ints each) reach the final
    1-row reduce."""
    from .groupkit import pair_run_starts

    und = und if und is not None else _pin(_undirected_edges(quads))

    def both_ends(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        key = np.concatenate([u, v])
        other = np.concatenate([v, u])
        end = np.concatenate([np.zeros(len(u), np.int8),
                              np.ones(len(v), np.int8)])
        return pa.table({
            "key": pa.array(key, pa.string()),
            "other": pa.array(other, pa.string()),
            "end": pa.array(end),
            "bucket": _bucket_of(key),
        })

    def attach_deg(g) -> pa.Table:
        keys = g["key"].to_numpy()
        # deg(n) = number of rows keyed by n (each incident edge
        # contributes exactly one key-keyed row)
        uniq, codes, counts = np.unique(keys, return_inverse=True,
                                        return_counts=True)
        d = counts[codes].astype(np.int64)
        end = g["end"].to_numpy()
        other = g["other"].to_numpy()
        is_u = end == 0
        u = np.where(is_u, keys, other)
        v = np.where(is_u, other, keys)
        return pa.table({
            "u": pa.array(u, pa.string()),
            "v": pa.array(v, pa.string()),
            "d": pa.array(d),
            "pbucket": pa.array(_pair_bucket_ids(u, v, PR_BUCKETS)),
        })

    def moments_in_bucket(g) -> pa.Table:
        u = np.asarray(g["u"].to_numpy(object), dtype=str)
        v = np.asarray(g["v"].to_numpy(object), dtype=str)
        d = g["d"].to_numpy(np.int64)
        order = np.lexsort((v, u))
        u, v, d = u[order], v[order], d[order]
        starts = pair_run_starts(u, v)
        # exactly two half rows per edge (one per endpoint)
        du, dv = d[starts], d[starts + 1]
        return pa.table({
            "m": pa.array([np.int64(len(starts))]),
            "s_uv": pa.array([np.int64((du * dv).sum())]),
            "s_u": pa.array([np.int64((du + dv).sum())]),
            "s_u2": pa.array([np.int64((du * du + dv * dv).sum())]),
        })

    import ray.data as rd
    from ray.data.aggregate import Sum

    parts = und.map_batches(both_ends, batch_format="pyarrow") \
        .groupby("bucket").map_groups(attach_deg,
                                      batch_format="pandas") \
        .groupby("pbucket").map_groups(moments_in_bucket,
                                       batch_format="pandas")
    # global scalar reduce over ≤ PR_BUCKETS 4-int partial rows
    agg = parts.aggregate(Sum("m", alias_name="m"),
                          Sum("s_uv", alias_name="s_uv"),
                          Sum("s_u", alias_name="s_u"),
                          Sum("s_u2", alias_name="s_u2"))
    return rd.from_arrow(pa.table({
        k: pa.array([int(agg[k] or 0)], pa.int64())
        for k in ("m", "s_uv", "s_u", "s_u2")}))


def _assortativity_oracle_sql(quads_sql: str) -> str:
    return f"""
WITH q AS ({quads_sql}),
e AS (SELECT DISTINCT least(subj, obj_value) AS u,
                      greatest(subj, obj_value) AS v
      FROM q WHERE obj_kind = 'iri' AND subj <> obj_value),
d AS (SELECT node, CAST(count(*) AS BIGINT) AS deg FROM
      (SELECT u AS node FROM e UNION ALL SELECT v FROM e)
      GROUP BY node)
SELECT CAST(count(*) AS BIGINT) AS m,
       CAST(sum(du.deg * dv.deg) AS BIGINT) AS s_uv,
       CAST(sum(du.deg + dv.deg) AS BIGINT) AS s_u,
       CAST(sum(du.deg * du.deg + dv.deg * dv.deg) AS BIGINT) AS s_u2
FROM e JOIN d du ON du.node = e.u JOIN d dv ON dv.node = e.v
"""


# --- deterministic 2-hop neighbor sampling (GraphSAGE-style) ---
# The GNN-training-data operator: for every seed entity, a bounded
# fan-out sample of its 1-hop and 2-hop neighborhood. Sampling is the
# repo's deterministic md5 contract — per node keep the K neighbors
# with the smallest (md5_hex(neighbor), neighbor) — so the "random"
# sample is reproducible and EXACTLY mirrored by a row_number() OVER
# (ORDER BY md5(b), b) oracle. The per-node top-K table is computed
# ONCE and reused for both hops (hop-2 is a bucketed self-join of the
# sample against it), bounding every node's contribution at K rows no
# matter its true degree — the property that makes neighborhood
# export feasible on power-law graphs at corpus scale.

SAMPLE_K = 4


def _seed_vocab(quads) -> np.ndarray:
    """Distinct mention-entity IRIs (REACH_SEED_PRED objects) from a
    PINNED quad stream — the bounded seed vocabulary shared by the
    neighbor-sampling and walk exports. Collected on the driver BY
    DESIGN: the result is bounded by the entity vocabulary, not the
    corpus."""
    def seed_scan(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["pred"], REACH_SEED_PRED))
        return pa.table({
            "node": pa.array(np.unique(
                t["obj_value"].to_numpy(zero_copy_only=False)
                .astype(str)), pa.string()),
        })

    return np.unique(np.concatenate([
        b["node"].to_numpy(zero_copy_only=False)
        for b in quads.map_batches(seed_scan, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")] or [np.zeros(0, "U1")])
    ).astype(str)


def _md5_hex(values: np.ndarray) -> np.ndarray:
    """Per-row md5 hexdigest (the deterministic-sampling contract —
    same per-row md5 the split/sample operators use, bounded by the
    edge-list read). Hashes each DISTINCT value once and gathers:
    the adjacency rows this feeds repeat every hub node deg times, so
    the Python md5 loop runs over the per-batch vocabulary, not the
    row count."""
    import hashlib

    uniq, inv = np.unique(values, return_inverse=True)
    hx = np.array([hashlib.md5(str(v).encode()).hexdigest()
                   for v in uniq], object)
    return hx[inv] if len(uniq) else hx


def neighbor_sample_quads(quads, k: int = SAMPLE_K, und=None):
    """quad table → (seed, hop, node): for each mention-entity seed,
    the deterministic ≤k-per-node sample of its 1- and 2-hop
    neighborhoods over the undirected distinct IRI–IRI graph
    (distinct rows; a node reachable at both hops appears at each)."""
    import ray

    from .groupkit import run_positions, run_starts

    # the quad stream feeds TWO consumers (edge dedup + seed scan) —
    # pin once so the upstream KG pipeline executes once (the
    # reach/_pr seed kernels fuse instead; here the seed scan is a
    # trivial pruned pass over the pinned blocks)
    quads = _pin(quads)
    und = und if und is not None else _pin(_undirected_edges(quads))

    def both_ends(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        key = np.concatenate([u, v])
        nb = np.concatenate([v, u])
        return pa.table({
            "a": pa.array(key, pa.string()),
            "b": pa.array(nb, pa.string()),
            "h": pa.array(_md5_hex(nb), pa.string()),
            "bucket": _bucket_of(key),
        })

    def topk_in_bucket(g) -> pa.Table:
        a = np.asarray(g["a"].to_numpy(object), dtype=str)
        b = g["b"].to_numpy(object)
        h = g["h"].to_numpy(object)
        order = np.lexsort((b, h, a))
        a, b = a[order], b[order]
        starts = run_starts(a)
        pos = run_positions(a, starts)
        keep = pos < k
        return pa.table({
            "a": pa.array(a[keep], pa.string()),
            "b": pa.array(b[keep], pa.string()),
        })

    # the shared per-node top-k neighbor table (≤ k rows per node),
    # pinned: it feeds hop 1 and the hop-2 self-join
    T = _pin(und.map_batches(both_ends, batch_format="pyarrow")
             .groupby("bucket").map_groups(topk_in_bucket,
                                           batch_format="pandas"))

    # seeds: the mention-entity vocabulary (bounded by construction;
    # same rule as kg_reach) — broadcast once
    seeds_ref = ray.put(np.sort(_seed_vocab(quads)))

    def h1_rows(batch: pa.Table) -> pa.Table:
        sd = ray.get(seeds_ref)
        a = np.asarray(batch["a"].to_numpy(zero_copy_only=False),
                       dtype=str)
        m = np.isin(a, sd)
        t = batch.filter(pa.array(m))
        nb = t["b"].to_numpy(zero_copy_only=False)
        return pa.table({
            "seed": t["a"], "node": t["b"],
            "side": pa.array(np.ones(len(nb), np.int8)),
            "bucket": _bucket_of(nb),
        })

    def t_rows(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False)
        return pa.table({
            "seed": batch["a"], "node": batch["b"],
            "side": pa.array(np.zeros(len(a), np.int8)),
            "bucket": _bucket_of(a),
        })

    h1 = _pin(T.map_batches(h1_rows, batch_format="pyarrow"))

    def hop2_in_bucket(g) -> pa.Table:
        import pandas as pd

        left = g[g["side"] == 1][["seed", "node"]]
        right = g[g["side"] == 0].rename(
            columns={"seed": "node", "node": "nb2"})[["node", "nb2"]]
        m = left.merge(right, on="node")
        df = pd.DataFrame({"seed": m["seed"], "node": m["nb2"]}) \
            .drop_duplicates()
        return pa.table({
            "seed": pa.array(df["seed"], pa.string()),
            "node": pa.array(df["node"], pa.string()),
            "hop": pa.array(np.full(len(df), 2, np.int64)),
        })

    h2 = h1.union(T.map_batches(t_rows, batch_format="pyarrow")) \
        .groupby("bucket").map_groups(hop2_in_bucket,
                                      batch_format="pandas")

    def h1_out(batch: pa.Table) -> pa.Table:
        return pa.table({
            "seed": batch["seed"], "node": batch["node"],
            "hop": pa.array(np.ones(batch.num_rows, np.int64)),
        })

    def dedup_out(g) -> pa.Table:
        df = g[["seed", "hop", "node"]].drop_duplicates()
        return pa.table({
            "seed": pa.array(df["seed"], pa.string()),
            "hop": pa.array(df["hop"].to_numpy(np.int64)),
            "node": pa.array(df["node"], pa.string()),
        })

    def out_bucket(batch: pa.Table) -> pa.Table:
        nodes = batch["node"].to_numpy(zero_copy_only=False)
        return batch.append_column("obucket", _bucket_of(nodes))

    return h1.map_batches(h1_out, batch_format="pyarrow") \
        .union(h2) \
        .map_batches(out_bucket, batch_format="pyarrow") \
        .groupby("obucket").map_groups(dedup_out,
                                       batch_format="pandas")


def _neighbor_sample_oracle_sql(quads_sql: str,
                                k: int = SAMPLE_K) -> str:
    return f"""
WITH q AS ({quads_sql}),
e0 AS (SELECT DISTINCT least(subj, obj_value) AS u,
                       greatest(subj, obj_value) AS v
       FROM q WHERE obj_kind = 'iri' AND subj <> obj_value),
ed AS (SELECT u AS a, v AS b FROM e0 UNION ALL SELECT v, u FROM e0),
t AS (SELECT a, b FROM (
        SELECT a, b, row_number() OVER (
            PARTITION BY a ORDER BY md5(b), b) AS rn FROM ed)
      WHERE rn <= {k}),
s AS (SELECT DISTINCT obj_value AS node FROM q
      WHERE pred = '{REACH_SEED_PRED}'),
h1 AS (SELECT s.node AS seed, t.b AS node
       FROM s JOIN t ON t.a = s.node),
h2 AS (SELECT DISTINCT h1.seed, t2.b AS node
       FROM h1 JOIN t t2 ON t2.a = h1.node)
SELECT seed, CAST(1 AS BIGINT) AS hop, node FROM h1
UNION ALL
SELECT seed, CAST(2 AS BIGINT) AS hop, node FROM h2
"""


# --- deterministic random-walk corpus (DeepWalk-style) ---
# The embedding-training counterpart of neighbor sampling: a fixed-
# length walk from every seed entity. "Randomness" is the md5
# contract again, salted BY STEP — at step t every node's successor
# is its neighbor minimizing (md5(t || '|' || nb), nb) — so walks are
# reproducible, the successor table is computed in ONE edge pass for
# all steps (edge_rows × L, argmin per (node, t) in the node bucket),
# and the SQL mirror is a row_number() window plus L chained joins.
# Walks advance by L bucketed joins against the static successor
# table; each step moves |seeds| rows — nothing corpus-sized after
# the successor build.

WALK_LEN = 3
# frontier size up to which the walk step prefilters the successor
# scan with a broadcast key set (ids only); larger frontiers take the
# full keyed shuffle join
WALK_BROADCAST_MAX_FRONTIER = 65536


def random_walks_quads(quads, walk_len: int = WALK_LEN, und=None):
    """quad table → (seed, step, node): the deterministic walk node
    at each step 1..walk_len from every mention-entity seed over the
    undirected distinct IRI–IRI graph (dead ends truncate the
    walk)."""
    import hashlib

    quads = _pin(quads)
    und = und if und is not None else _pin(_undirected_edges(quads))

    def salted_rows(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        key = np.concatenate([u, v])
        nb = np.concatenate([v, u])
        n = len(key)
        # hub neighbors repeat deg times: hash each DISTINCT (t, nb)
        # once and gather, so the md5 work is vocabulary-bounded. All
        # walk_len × |vocab| salts go through ONE flat pass — each
        # neighbor string is encoded once (not re-formatted per step),
        # and md5 stays the digest because the SQL oracle recomputes
        # it bit-exactly (md5(concat(t, '|', nb)))
        nb_uniq, nb_inv = np.unique(nb, return_inverse=True)
        _md5 = hashlib.md5
        encs = [str(x).encode() for x in nb_uniq]
        hx_all = np.array(
            [_md5(b"%d|" % t + e).hexdigest()
             for t in range(1, walk_len + 1) for e in encs],
            object).reshape(walk_len, len(encs))
        keys_out, nbs_out, ts_out, hs_out = [], [], [], []
        for t in range(1, walk_len + 1):
            keys_out.append(key)
            nbs_out.append(nb)
            ts_out.append(np.full(n, t, np.int64))
            hx = hx_all[t - 1]
            hs_out.append(hx[nb_inv] if len(encs) else hx)
        key_all = np.concatenate(keys_out)
        return pa.table({
            "a": pa.array(key_all, pa.string()),
            "b": pa.array(np.concatenate(nbs_out), pa.string()),
            "t": pa.array(np.concatenate(ts_out)),
            "h": pa.array(np.concatenate(hs_out), pa.string()),
            "bucket": _bucket_of(key_all),
        })

    def argmin_in_bucket(g) -> pa.Table:
        from .groupkit import pair_run_starts

        a = np.asarray(g["a"].to_numpy(object), dtype=str)
        t = g["t"].to_numpy(np.int64)
        b = g["b"].to_numpy(object)
        h = g["h"].to_numpy(object)
        order = np.lexsort((b, h, t, a))
        a, t, b = a[order], t[order], b[order]
        # first row of each (a, t) run is the salted argmin
        starts = pair_run_starts(a, t)
        return pa.table({
            "a": pa.array(a[starts], pa.string()),
            "t": pa.array(t[starts]),
            "b": pa.array(b[starts], pa.string()),
        })

    # the static successor table: ONE row per (node, step).
    # Coalesced to few blocks: every walk round re-scans it, and the
    # per-round join's fixed cost is task dispatch over block count,
    # not row volume (measured: 64+64 blocks ≈ 4s/round on tiny
    # rows). The repartition is IN-PLAN (fused into the build job —
    # free), so _pin's after-the-fact coalesce wave never triggers on
    # it (its block delta is below the coalesce threshold).
    nxt = _pin(und.map_batches(salted_rows, batch_format="pyarrow")
               .groupby("bucket").map_groups(argmin_in_bucket,
                                             batch_format="pandas")
               .repartition(8))

    # walker state NEVER lives on the driver: the frontier is a
    # (seed, cur) Dataset and each step is one bucketed hash join of
    # the frontier against that step's slice of the successor table —
    # frontier rows and successor rows meet in the bucket(cur) group,
    # where a vectorized searchsorted advances every walker at once.
    # Dead ends drop out of the join; _pin cuts the per-step lineage
    # (iterative-union replanning, see entity_merge._pin).
    def seed_frontier(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["pred"], REACH_SEED_PRED))
        nodes = np.unique(
            t["obj_value"].to_numpy(zero_copy_only=False).astype(str))
        return pa.table({
            "seed": pa.array(nodes, pa.string()),
            "node": pa.array(nodes, pa.string()),
            "bucket": _bucket_of(pa.array(nodes, pa.string())),
        })

    def dedupe_seeds(g) -> pa.Table:
        s = np.unique(np.asarray(g["seed"].to_numpy(object),
                                 dtype=str))
        return pa.table({
            "seed": pa.array(s, pa.string()),
            "node": pa.array(s, pa.string()),
        })

    frontier = _pin(quads.map_batches(seed_frontier,
                                      batch_format="pyarrow")
                    .groupby("bucket").map_groups(
                        dedupe_seeds, batch_format="pandas")
                    .repartition(2))

    _F, _S = np.int8(0), np.int8(1)     # row kinds in the join group

    def frontier_rows(batch: pa.Table) -> pa.Table:
        return pa.table({
            "key": batch["node"],
            "val": batch["seed"],
            "k": pa.array(np.full(batch.num_rows, _F)),
            "bucket": _bucket_of(batch["node"]),
        })

    def succ_rows(batch: pa.Table, *, _t: int, _keys_ref=None
                  ) -> pa.Table:
        import ray as _ray
        tb = batch.filter(pc.equal(batch["t"], _t))
        if _keys_ref is not None:
            # broadcast semi-join prefilter: only successors of
            # CURRENT frontier nodes enter the shuffle, so the join
            # moves O(|frontier|) rows instead of O(|nodes|)
            keys = _ray.get(_keys_ref)
            a = np.asarray(tb["a"].to_numpy(zero_copy_only=False),
                           dtype=str)
            tb = tb.filter(pa.array(np.isin(a, keys)))
        return pa.table({
            "key": tb["a"],
            "val": tb["b"],
            "k": pa.array(np.full(tb.num_rows, _S)),
            "bucket": _bucket_of(tb["a"]),
        })

    def advance_in_bucket(g) -> pa.Table:
        k = g["k"].to_numpy(np.int8)
        key = np.asarray(g["key"].to_numpy(object), dtype=str)
        val = np.asarray(g["val"].to_numpy(object), dtype=str)
        is_s = k == _S
        sk, sv = key[is_s], val[is_s]
        fk, fs = key[~is_s], val[~is_s]
        empty = pa.table({"seed": pa.array([], pa.string()),
                          "node": pa.array([], pa.string())})
        if not len(sk) or not len(fk):
            return empty
        order = np.argsort(sk)
        sk, sv = sk[order], sv[order]
        idx = np.searchsorted(sk, fk)
        idx_c = np.minimum(idx, len(sk) - 1)
        found = (idx < len(sk)) & (sk[idx_c] == fk)
        if not found.any():
            return empty
        return pa.table({
            "seed": pa.array(fs[found], pa.string()),
            "node": pa.array(sv[idx_c[found]], pa.string()),
        })

    import functools

    import ray

    steps = []
    for t in range(1, walk_len + 1):
        # adaptive (size-picked broadcast vs shuffle join): a small
        # frontier ships its KEY SET once via ray.put and prefilters
        # the successor scan (ids only — never the walker state, which
        # stays a Dataset end to end); a vocab-scale frontier falls
        # back to the full keyed shuffle join
        keys_ref = None
        if frontier.count() <= WALK_BROADCAST_MAX_FRONTIER:
            keys = np.unique(np.concatenate([
                np.asarray(b["node"].to_numpy(zero_copy_only=False),
                           dtype=str)
                for b in frontier.select_columns(["node"])
                .iter_batches(batch_format="pyarrow")]
                or [np.zeros(0, "U1")]))
            keys_ref = ray.put(keys)
        fr = frontier.map_batches(frontier_rows,
                                  batch_format="pyarrow")
        sr = nxt.map_batches(
            functools.partial(succ_rows, _t=t, _keys_ref=keys_ref),
            batch_format="pyarrow")
        frontier = _pin(fr.union(sr).groupby("bucket").map_groups(
            advance_in_bucket, batch_format="pandas")
            .repartition(2))
        steps.append(frontier.map_batches(
            lambda b, _t=t: pa.table({
                "seed": b["seed"],
                "step": pa.array(np.full(b.num_rows, _t, np.int64)),
                "node": b["node"],
            }), batch_format="pyarrow"))

    out = steps[0]
    for s in steps[1:]:
        out = out.union(s)
    return out


def _random_walks_oracle_sql(quads_sql: str,
                             walk_len: int = WALK_LEN) -> str:
    steps = []
    for t in range(1, walk_len + 1):
        prev = "s" if t == 1 else f"w{t - 1}"
        steps.append(f"""
w{t} AS (SELECT p.seed, n.b AS node
        FROM (SELECT {'node AS seed, node' if t == 1
                      else 'seed, node'} FROM {prev}) p
        JOIN nxt n ON n.a = p.node AND n.t = {t})""")
    selects = "\nUNION ALL\n".join(
        f"SELECT seed, CAST({t} AS BIGINT) AS step, node FROM w{t}"
        for t in range(1, walk_len + 1))
    return f"""
WITH q AS ({quads_sql}),
e0 AS (SELECT DISTINCT least(subj, obj_value) AS u,
                       greatest(subj, obj_value) AS v
       FROM q WHERE obj_kind = 'iri' AND subj <> obj_value),
ed AS (SELECT u AS a, v AS b FROM e0 UNION ALL SELECT v, u FROM e0),
st AS (SELECT t FROM range(1, {walk_len + 1}) r(t)),
nxt AS (SELECT a, t, b FROM (
          SELECT ed.a, st.t, ed.b, row_number() OVER (
              PARTITION BY ed.a, st.t
              ORDER BY md5(concat(CAST(st.t AS VARCHAR), '|', ed.b)),
                       ed.b) AS rn
          FROM ed CROSS JOIN st) WHERE rn = 1),
s AS (SELECT DISTINCT obj_value AS node FROM q
      WHERE pred = '{REACH_SEED_PRED}'),{",".join(steps)}
{selects}
"""


def _clustering_oracle_sql(quads_sql: str) -> str:
    """Triangle corners via the canonical u < v < w 3-way join, each
    credited to all three vertices; degrees from the doubled edge
    list."""
    return f"""
WITH q AS ({quads_sql}),
e AS (SELECT DISTINCT least(subj, obj_value) AS u,
                      greatest(subj, obj_value) AS v
      FROM q WHERE obj_kind = 'iri' AND subj <> obj_value),
t AS (SELECT e1.u AS a, e1.v AS b, e2.v AS c
      FROM e e1 JOIN e e2 ON e2.u = e1.u AND e2.v > e1.v
                JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v),
corners AS (SELECT a AS node FROM t UNION ALL SELECT b FROM t
            UNION ALL SELECT c FROM t),
tc AS (SELECT node, CAST(count(*) AS BIGINT) AS n_tri
       FROM corners GROUP BY node),
d AS (SELECT node, CAST(count(*) AS BIGINT) AS deg FROM
      (SELECT u AS node FROM e UNION ALL SELECT v FROM e)
      GROUP BY node)
SELECT d.node AS node,
       CAST(coalesce(tc.n_tri, 0) AS BIGINT) AS n_tri,
       CAST(d.deg * (d.deg - 1) // 2 AS BIGINT) AS n_wedges
FROM d LEFT JOIN tc ON tc.node = d.node
WHERE d.deg >= 2
"""


# --- connected components (R-round min-label propagation) ---
# The bounded-round sibling of PageRank: label(v) starts as v's own
# IRI and each round becomes min(label(v), min over neighbors' labels)
# — after R rounds every node carries the smallest IRI within R hops,
# which equals its component id once R reaches the component diameter.
# The R-round result is DETERMINISTIC whether or not propagation has
# converged, so the oracle is an exact chained-CTE mirror (no
# convergence probe, no driver state — cf. stages/entity_merge.py for
# the probe-based variant over the mention-similarity graph).

LP_ITERS = 4


def _lp_seed(quads):
    """quad table → the round-1 exchange rows, one groupby.

    Canonical (u < v) edge copies are keyed by bucket(u), so in-bucket
    drop_duplicates is a GLOBAL dedup; each distinct edge then emits
    its 6 fused-exchange rows directly: both adjacency directions
    (owner's bucket), both state seeds lab=self, and both round-1
    messages lab=neighbor. Duplicate label rows across buckets are
    harmless — min() is idempotent — so no node-dedup pass is needed.

    Row kinds share one schema: adjacency rows have dst non-null /
    lab null; STATE rows carry the empty-string dst sentinel and
    message rows a null dst — the new label is still min over ALL
    label rows (own and incoming alike — exactly the
    s_t = min(s_{t-1}, i_t) recurrence), but the state/message split
    lets each round detect whether a node's label CHANGED and message
    its neighbors only then (labels only decrease and min is
    monotone, so skipping re-delivery of an unchanged label cannot
    alter any round's result — the label already folded on first
    arrival)."""
    def seed_in_bucket(g) -> pa.Table:
        df = g[["u", "v"]].drop_duplicates()
        u = df["u"].to_numpy()
        v = df["v"].to_numpy()
        n = len(u)
        bu = _bucket_of(u).to_numpy()
        bv = _bucket_of(v).to_numpy()
        none = np.full(n, None, object)
        empty = np.full(n, "", object)
        # order: adj u→v, adj v→u, state (u,u), state (v,v),
        # msg (v,u), msg (u,v)
        node = np.concatenate([u, v, u, v, v, u])
        dst = np.concatenate([v, u, empty, empty, none, none])
        lab = np.concatenate([none, none, u, v, u, v])
        bucket = np.concatenate([bu, bv, bu, bv, bv, bu])
        return pa.table({
            "node": pa.array(node, pa.string()),
            "dst": pa.array(dst, pa.string()),
            "lab": pa.array(lab, pa.string()),
            "bucket": pa.array(bucket, pa.int32()),
        })

    return quads.map_batches(_canon_edge_rows, batch_format="pyarrow") \
        .groupby("bucket").map_groups(seed_in_bucket,
                                      batch_format="pandas")


def _canon_edge_rows(batch: pa.Table) -> pa.Table:
    """quad batch → per-batch-distinct canonical (u < v) undirected
    IRI–IRI edges, keyed by bucket(u) — every copy of an edge lands in
    u's bucket, so the downstream in-bucket dedup is global."""
    import pandas as pd

    t = batch.filter(pc.equal(batch["obj_kind"], "iri"))
    s = np.asarray(t["subj"].to_pylist(), dtype=str)
    o = np.asarray(t["obj_value"].to_pylist(), dtype=str)
    keep = s != o
    s, o = s[keep], o[keep]
    lo = s < o
    u = np.where(lo, s, o)
    v = np.where(lo, o, s)
    df = pd.DataFrame({"u": u, "v": v}).drop_duplicates()
    uu = df["u"].to_numpy(object)
    return pa.table({
        "u": pa.array(uu, pa.string()),
        "v": pa.array(df["v"], pa.string()),
        "bucket": _bucket_of(uu),
    })


def _min_per_run(nodes: np.ndarray, labs: np.ndarray):
    """(unique node, min lab) via one lexsort + run starts."""
    from .groupkit import run_starts

    order = np.lexsort((labs, nodes))
    ns, ls = nodes[order], labs[order]
    starts = run_starts(ns)
    return ns[starts], ls[starts]


def _lp_round(state, last: bool):
    """One fused propagation superstep: per node, new label = min over
    ALL its label rows (own state + incoming messages — exactly
    s_t = min(s_{t-1}, i_t)); then (unless ``last``) re-emit adjacency
    + new state in place, and message neighbors ONLY for nodes whose
    label changed this round (delta propagation — an unchanged label
    already folded at the neighbor on first delivery, so re-sending
    it every round is pure shuffle waste; late rounds go quiet as the
    labels converge)."""
    def round_in_bucket(g) -> pa.Table:
        import pandas as pd

        dst_all = g["dst"].to_numpy()
        is_state = np.asarray(dst_all == "", bool)
        is_lab = is_state | pd.isna(dst_all)
        node = g["node"].to_numpy()
        lab_all = g["lab"].to_numpy()
        nodes, labs = _min_per_run(node[is_lab], lab_all[is_lab])
        if last:
            return pa.table({
                "node": pa.array(nodes, pa.string()),
                "lab": pa.array(labs, pa.string()),
            })
        # old label per node = min over its state rows (seed emits one
        # per incident edge, all equal); changed ⇔ some message beat it
        onodes, olabs = _min_per_run(node[is_state],
                                     lab_all[is_state])
        oidx = np.searchsorted(onodes, nodes)
        if len(nodes) and not ((oidx < len(onodes)).all()
                               and (onodes[oidx] == nodes).all()):
            raise AssertionError(
                "components invariant broken: label row with no "
                "state row in its bucket")
        changed = labs != olabs[oidx] if len(nodes) else \
            np.zeros(0, bool)
        is_a = ~is_lab
        a_src = node[is_a]
        a_dst = dst_all[is_a]
        idx = np.searchsorted(nodes, a_src)
        if len(a_src) and not ((idx < len(nodes)).all()
                               and (nodes[idx] == a_src).all()):
            raise AssertionError(
                "components invariant broken: adjacency source with "
                "no label row in its bucket")
        emit = changed[idx]
        m_dst = a_dst[emit]
        msg_lab = labs[idx[emit]]
        b = np.int32(g["bucket"].iloc[0])
        n_e, n_s, n_m = len(a_src), len(nodes), len(m_dst)
        out_node = np.concatenate([a_src, nodes, m_dst])
        out_dst = np.concatenate(
            [a_dst, np.full(n_s, "", object),
             np.full(n_m, None, object)])
        out_lab = np.concatenate(
            [np.full(n_e, None, object), labs, msg_lab])
        bucket = np.concatenate([
            np.full(n_e + n_s, b, np.int32),
            _bucket_of(m_dst).to_numpy()])
        return pa.table({
            "node": pa.array(out_node, pa.string()),
            "dst": pa.array(out_dst, pa.string()),
            "lab": pa.array(out_lab, pa.string()),
            "bucket": pa.array(bucket, pa.int32()),
        })

    return state.groupby("bucket").map_groups(round_in_bucket,
                                              batch_format="pandas")


def components_quads(quads):
    """quad table → (node, component): component = min IRI within
    LP_ITERS hops over the undirected distinct IRI–IRI graph (equals
    the connected-component id wherever the component diameter is
    ≤ LP_ITERS). 1 + LP_ITERS fused bucketed exchanges, same
    message-passing shape as pagerank_quads."""
    state = _lp_seed(quads)
    for t in range(LP_ITERS):
        state = _lp_round(state, last=(t == LP_ITERS - 1))

    def final(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["node"],
                         "component": batch["lab"]})

    return state.map_batches(final, batch_format="pyarrow")


def _components_oracle_sql(quads_sql: str) -> str:
    """Chained-CTE mirror of LP_ITERS min-label rounds."""
    ctes = [f"""
WITH q AS ({quads_sql}),
e0 AS (SELECT DISTINCT least(subj, obj_value) AS u,
                       greatest(subj, obj_value) AS v
       FROM q WHERE obj_kind = 'iri' AND subj <> obj_value),
ed AS (SELECT u AS a, v AS b FROM e0 UNION ALL SELECT v, u FROM e0),
n AS (SELECT DISTINCT a AS node FROM ed),
s0 AS (SELECT node, node AS lab FROM n)"""]
    for t in range(1, LP_ITERS + 1):
        ctes.append(f"""
i{t} AS (SELECT ed.b AS node, min(s{t - 1}.lab) AS ml
      FROM ed JOIN s{t - 1} ON s{t - 1}.node = ed.a
      GROUP BY ed.b),
s{t} AS (SELECT s{t - 1}.node,
             least(s{t - 1}.lab, coalesce(i{t}.ml, s{t - 1}.lab))
                 AS lab
      FROM s{t - 1} LEFT JOIN i{t} USING (node))""")
    return (",".join(ctes)
            + f"\nSELECT node, lab AS component FROM s{LP_ITERS}")


# --- degree histogram (graph-shape diagnostic) ---

def degree_histogram(quads, und=None, deg=None):
    """quad table → (deg, n_nodes): the undirected degree distribution
    of the IRI–IRI graph. Distinct degree VALUES are bounded by the
    max degree (not the corpus), so the final groupby is tiny; the
    node-degree table itself pre-reduces per batch."""
    deg = deg if deg is not None else _tri_degrees(
        und if und is not None else _undirected_edges(quads))

    def partial(batch: pa.Table) -> pa.Table:
        d = batch["deg"].to_numpy(zero_copy_only=False)
        uniq, counts = np.unique(d, return_counts=True)
        return pa.table({
            "deg": pa.array(uniq.astype(np.int64)),
            "n": pa.array(counts.astype(np.int64)),
        })

    def total(g) -> pa.Table:
        return pa.table({
            "deg": pa.array([int(g["deg"].iloc[0])], pa.int64()),
            "n_nodes": pa.array([int(g["n"].sum())], pa.int64()),
        })

    return deg.map_batches(partial, batch_format="pyarrow") \
        .groupby("deg").map_groups(total, batch_format="pandas")


def _degree_hist_oracle_sql(quads_sql: str) -> str:
    return f"""
WITH q AS ({quads_sql}),
e AS (SELECT DISTINCT least(subj, obj_value) AS u,
                      greatest(subj, obj_value) AS v
      FROM q WHERE obj_kind = 'iri' AND subj <> obj_value),
d AS (SELECT node, CAST(count(*) AS BIGINT) AS deg
      FROM (SELECT u AS node FROM e UNION ALL SELECT v FROM e)
      GROUP BY node)
SELECT deg, CAST(count(*) AS BIGINT) AS n_nodes FROM d GROUP BY deg
"""


# --- k-core onion decomposition (bounded synchronous peeling) ---
# Batagelj–Zaveršnik peeling, expressed as KCORE_ITERS synchronous
# supersteps in the same fused message-passing shape as components/
# pagerank: round t computes each node's degree within the
# round-(t-1) survivor subgraph and peels nodes below KCORE_K; a
# peeled node tells each neighbor (one message per lost edge) to drop
# the reverse edge copy before the next round's count. The output is
# the ONION LAYER per node — the round it was peeled in (0 = survived
# all rounds, i.e. sits in the bounded-round k-core) — so the result
# covers every node even when the cascade empties the graph.
# Fixed-round semantics make it deterministic whether or not peeling
# has converged; the oracle is an exact chained-CTE mirror.

KCORE_K = 5
KCORE_ITERS = 3

_KC_ADJ, _KC_RM, _KC_RES = 0, 1, 2


def _kcore_seed(quads):
    """quad table → both directed copies of every globally distinct
    undirected edge, keyed by the owning endpoint's bucket."""
    def seed_in_bucket(g) -> pa.Table:
        df = g[["u", "v"]].drop_duplicates()
        u = df["u"].to_numpy()
        v = df["v"].to_numpy()
        n = len(u)
        return pa.table({
            "node": pa.array(np.concatenate([u, v]), pa.string()),
            "other": pa.array(np.concatenate([v, u]), pa.string()),
            "k": pa.array(np.full(2 * n, _KC_ADJ, np.int8)),
            "round": pa.array(np.zeros(2 * n, np.int64)),
            "bucket": pa.array(np.concatenate([
                _bucket_of(u).to_numpy(),
                _bucket_of(v).to_numpy()]), pa.int32()),
        })

    return quads.map_batches(_canon_edge_rows, batch_format="pyarrow") \
        .groupby("bucket").map_groups(seed_in_bucket,
                                      batch_format="pandas")


def _kcore_round(state, k: int, rnd: int, last: bool):
    """One peeling superstep: apply incoming edge removals, count
    degrees, peel sub-k nodes (emitting their onion-layer result row
    and one removal message per lost edge), re-emit survivor
    adjacency. Result rows ride through unchanged; the last round
    converts survivors to layer-0 result rows."""
    def round_in_bucket(g) -> pa.Table:
        import pandas as pd

        kind = g["k"].to_numpy()
        node = g["node"].to_numpy()
        other = g["other"].to_numpy()
        is_a = kind == _KC_ADJ
        is_rm = kind == _KC_RM
        res_n = node[kind == _KC_RES]
        res_r = g["round"].to_numpy()[kind == _KC_RES]
        a_n, a_d = node[is_a], other[is_a]
        pre_nodes = np.unique(a_n)
        if is_rm.any() and len(a_n):
            a = pd.DataFrame({"n": a_n, "d": a_d})
            m = pd.DataFrame({"n": node[is_rm],
                              "d": other[is_rm]}).drop_duplicates()
            keep = (a.merge(m, on=["n", "d"], how="left",
                            indicator=True)["_merge"]
                    == "left_only").to_numpy()
            a_n, a_d = a_n[keep], a_d[keep]
        uniq, codes, deg = np.unique(a_n, return_inverse=True,
                                     return_counts=True)
        alive = deg >= k
        # nodes stripped of their last edge by this round's removals
        # peel too (degree 0 < k), with no messages to send
        zeroed = np.setdiff1d(pre_nodes, uniq, assume_unique=True)
        alive_rows = alive[codes] if len(a_n) else \
            np.zeros(0, dtype=bool)
        sa_n, sa_d = a_n[alive_rows], a_d[alive_rows]
        dd_n, dd_d = a_n[~alive_rows], a_d[~alive_rows]
        died = np.concatenate([uniq[~alive], zeroed])
        b = np.int32(g["bucket"].iloc[0])
        if last:
            out_n = np.concatenate([res_n, died, uniq[alive]])
            out_r = np.concatenate([
                res_r, np.full(len(died), rnd, np.int64),
                np.zeros(int(alive.sum()), np.int64)])
            return pa.table({
                "node": pa.array(out_n, pa.string()),
                "peeled_round": pa.array(out_r, pa.int64()),
            })
        n_res, n_sa, n_dd, n_died = (len(res_n), len(sa_n),
                                     len(dd_n), len(died))
        out_node = np.concatenate([res_n, died, sa_n, dd_d])
        out_other = np.concatenate([
            np.full(n_res + n_died, None, object), sa_d, dd_n])
        out_kind = np.repeat(
            np.array([_KC_RES, _KC_RES, _KC_ADJ, _KC_RM], np.int8),
            [n_res, n_died, n_sa, n_dd])
        out_round = np.concatenate([
            res_r, np.full(n_died, rnd, np.int64),
            np.zeros(n_sa + n_dd, np.int64)])
        bucket = np.concatenate([
            np.full(n_res + n_died + n_sa, b, np.int32),
            _bucket_of(dd_d).to_numpy()])
        return pa.table({
            "node": pa.array(out_node, pa.string()),
            "other": pa.array(out_other, pa.string()),
            "k": pa.array(out_kind, pa.int8()),
            "round": pa.array(out_round, pa.int64()),
            "bucket": pa.array(bucket, pa.int32()),
        })

    return state.groupby("bucket").map_groups(round_in_bucket,
                                              batch_format="pandas")


def kcore_quads(quads, k: int = KCORE_K, iters: int = KCORE_ITERS):
    """quad table → (node, peeled_round): the onion layer of every
    node of the undirected distinct IRI–IRI graph under ``iters``
    synchronous peeling rounds at threshold ``k`` — the 1-based round
    the node was peeled in, or 0 if it survived all rounds (the
    bounded-round k-core membership)."""
    state = _kcore_seed(quads)
    for t in range(iters):
        state = _kcore_round(state, k, rnd=t + 1,
                             last=(t == iters - 1))
    return state


def _kcore_oracle_sql(quads_sql: str) -> str:
    """Chained-CTE mirror of KCORE_ITERS peeling rounds."""
    ctes = [f"""
WITH q AS ({quads_sql}),
e0 AS (SELECT DISTINCT least(subj, obj_value) AS u,
                       greatest(subj, obj_value) AS v
       FROM q WHERE obj_kind = 'iri' AND subj <> obj_value),
ed0 AS (SELECT u AS a, v AS b FROM e0 UNION ALL SELECT v, u FROM e0),
a0 AS (SELECT DISTINCT a AS node FROM ed0)"""]
    for t in range(1, KCORE_ITERS + 1):
        ctes.append(f"""
d{t} AS (SELECT a AS node, count(*) AS deg
      FROM ed{t - 1} GROUP BY a),
a{t} AS (SELECT node FROM d{t} WHERE deg >= {KCORE_K}),
x{t} AS (SELECT node FROM a{t - 1} EXCEPT SELECT node FROM a{t}),
ed{t} AS (SELECT ed.a, ed.b FROM ed{t - 1} ed
       JOIN a{t} x ON ed.a = x.node
       JOIN a{t} y ON ed.b = y.node)""")
    deaths = " UNION ALL ".join(
        f"SELECT node, CAST({t} AS BIGINT) AS peeled_round FROM x{t}"
        for t in range(1, KCORE_ITERS + 1))
    return (",".join(ctes) + f"""
{deaths}
UNION ALL SELECT node, CAST(0 AS BIGINT) FROM a{KCORE_ITERS}""")


# --- bounded k-hop BFS reachability from entity seeds ---
# Synchronous min-dist propagation (Bellman-Ford supersteps) in the
# same fused message-passing shape as components_quads: after t
# rounds every node within t hops of a seed holds its exact min-hop
# distance (distances only decrease; each round folds own state and
# incoming messages with one min). Seeds are the mention-entity nodes
# (objects of conv#mentions quads) — the operator answers "which part
# of the KG is within H hops of an extracted entity", the pruning
# step a KG-construction pipeline runs before neighborhood export.
# Ref analogue: graph walks over the node map (jsonld.js flatten/
# frame traverse the same adjacency recursively, lib/frame.js).

REACH_HOPS = 3
REACH_SEED_PRED = f"{_CONV_VOCAB}mentions"
_REACH_INF = np.int64(2 ** 62)


def _reach_seed(quads):
    """quad table → the round-0 exchange rows: globally-distinct
    undirected adjacency (both directions, each copy keyed by the
    bucket of the node it is FOR) + dist-0 state rows for every seed.

    ONE pass over the quad stream emits both row kinds (seed rows ride
    the edge exchange with a NULL v) — two separate consumers of
    ``quads`` would re-execute the whole upstream KG pipeline per
    consumer (Ray Data plans have no common-subexpression
    elimination)."""
    def edge_and_seed_rows(batch: pa.Table) -> pa.Table:
        import pandas as pd

        t = batch.filter(pc.equal(batch["obj_kind"], "iri"))
        s = np.asarray(t["subj"].to_pylist(), dtype=str)
        o = np.asarray(t["obj_value"].to_pylist(), dtype=str)
        keep = s != o
        s, o = s[keep], o[keep]
        lo = s < o
        u = np.where(lo, s, o)
        v = np.where(lo, o, s)
        df = pd.DataFrame({"u": u, "v": v}).drop_duplicates()
        m = batch.filter(pc.equal(batch["pred"], REACH_SEED_PRED))
        ents = np.unique(np.asarray(m["obj_value"].to_pylist(),
                                    dtype=object))
        uu = np.concatenate([df["u"].to_numpy(object), ents])
        vv = np.concatenate([df["v"].to_numpy(object),
                             np.full(len(ents), None, object)])
        return pa.table({
            "u": pa.array(uu, pa.string()),
            "v": pa.array(vv, pa.string()),
            "bucket": _bucket_of(uu),
        })

    def seed_adj_in_bucket(g) -> pa.Table:
        is_seed = g["v"].isna().to_numpy()
        ents = np.unique(g["u"].to_numpy()[is_seed])
        df = g[~is_seed][["u", "v"]].drop_duplicates()
        u = df["u"].to_numpy(object)
        v = df["v"].to_numpy(object)
        n, k = len(u), len(ents)
        return pa.table({
            "node": pa.array(np.concatenate([u, v, ents]),
                             pa.string()),
            "dst": pa.array(np.concatenate(
                [v, u, np.full(k, None, object)]), pa.string()),
            "dist": pa.array(np.concatenate(
                [np.full(2 * n, None, object),
                 np.zeros(k, object)]), pa.int64()),
            "bucket": pa.array(np.concatenate([
                _bucket_of(u).to_numpy(), _bucket_of(v).to_numpy(),
                _bucket_of(ents).to_numpy()])),
        })

    return quads.map_batches(edge_and_seed_rows,
                             batch_format="pyarrow") \
        .groupby("bucket").map_groups(seed_adj_in_bucket,
                                      batch_format="pandas")


def _reach_round(state, t: int, last: bool):
    """One superstep: per node, new dist = min over its dist rows
    (own state + incoming messages); then (unless ``last``) re-emit
    adjacency + state in place and one message dist+1 per adjacency
    row whose source is on the FRONTIER (dist == ``t`` exactly — in
    unweighted BFS a node at distance d is first reached at superstep
    d, so each node emits messages in exactly one superstep; emitting
    from all reached nodes every round would re-ship the same
    messages hops× over), keyed by bucket(dst)."""
    def round_in_bucket(g) -> pa.Table:
        is_a = g["dst"].notna().to_numpy()
        node = g["node"].to_numpy()
        lab_nodes = node[~is_a]
        lab_dist = g["dist"].to_numpy()[~is_a].astype(np.int64)
        from .groupkit import run_starts
        order = np.lexsort((lab_dist, lab_nodes))
        ns, ds = lab_nodes[order], lab_dist[order]
        starts = run_starts(ns)
        nodes, dists = ns[starts], ds[starts]
        if last:
            return pa.table({
                "node": pa.array(nodes, pa.string()),
                "dist": pa.array(dists, pa.int64()),
            })
        a_src = node[is_a]
        a_dst = g["dst"].to_numpy()[is_a]
        idx = np.searchsorted(nodes, a_src)
        idx_ok = np.minimum(idx, max(len(nodes) - 1, 0))
        in_state = np.zeros(len(a_src), bool) if not len(nodes) else (
            (idx < len(nodes)) & (nodes[idx_ok] == a_src))
        is_front = in_state.copy()
        if len(nodes):
            is_front[in_state] = dists[idx_ok[in_state]] == t
        m_dst = a_dst[is_front]
        m_dist = np.full(len(m_dst), t + 1, np.int64)
        # a reached source has emitted (now, or at its own earlier
        # frontier superstep) — its adjacency rows are dead weight for
        # every later exchange; only unreached-source rows survive
        a_src, a_dst = a_src[~in_state], a_dst[~in_state]
        b = np.int32(g["bucket"].iloc[0])
        n_e, n_s, n_m = len(a_src), len(nodes), len(m_dst)
        out_node = np.concatenate([a_src, nodes, m_dst])
        out_dst = np.concatenate(
            [a_dst, np.full(n_s + n_m, None, object)])
        out_dist = np.concatenate([
            np.full(n_e, _REACH_INF, np.int64), dists, m_dist])
        # adjacency rows carry a sentinel dist (column must stay
        # int64-typed); re-null them via the dst mask
        dist_arr = pa.array(out_dist, pa.int64())
        dist_arr = pc.if_else(
            pa.array(np.concatenate([np.zeros(n_e, bool),
                                     np.ones(n_s + n_m, bool)])),
            dist_arr, pa.scalar(None, pa.int64()))
        bucket = np.concatenate([
            np.full(n_e + n_s, b, np.int32),
            _bucket_of(m_dst).to_numpy()])
        return pa.table({
            "node": pa.array(out_node, pa.string()),
            "dst": pa.array(out_dst, pa.string()),
            "dist": dist_arr,
            "bucket": pa.array(bucket, pa.int32()),
        })

    return state.groupby("bucket").map_groups(round_in_bucket,
                                              batch_format="pandas")


def reach_quads(quads, hops: int = REACH_HOPS):
    """quad table → (node, dist): exact min-hop distance (≤ ``hops``)
    from the nearest mention-entity seed over the undirected distinct
    IRI–IRI graph. 2 + ``hops`` bucketed exchanges total; unreached
    nodes are absent from the output."""
    state = _reach_seed(quads)
    for t in range(hops + 1):
        state = _reach_round(state, t, last=(t == hops))
    return state


def _reach_oracle_sql(quads_sql: str, hops: int = REACH_HOPS) -> str:
    """Chained-CTE mirror of ``hops`` min-dist rounds."""
    ctes = [f"""
WITH q AS ({quads_sql}),
e0 AS (SELECT DISTINCT least(subj, obj_value) AS u,
                       greatest(subj, obj_value) AS v
       FROM q WHERE obj_kind = 'iri' AND subj <> obj_value),
ed AS (SELECT u AS a, v AS b FROM e0 UNION ALL SELECT v, u FROM e0),
s0 AS (SELECT DISTINCT obj_value AS node, CAST(0 AS BIGINT) AS dist
       FROM q WHERE pred = '{REACH_SEED_PRED}')"""]
    for t in range(1, hops + 1):
        ctes.append(f"""
i{t} AS (SELECT ed.b AS node, min(s{t - 1}.dist) + 1 AS d
      FROM ed JOIN s{t - 1} ON s{t - 1}.node = ed.a
      GROUP BY ed.b),
s{t} AS (SELECT coalesce(s.node, i.node) AS node,
             least(coalesce(s.dist, {2 ** 62}),
                   coalesce(i.d, {2 ** 62})) AS dist
      FROM s{t - 1} s FULL OUTER JOIN i{t} i ON s.node = i.node)"""
                    )
    return (",".join(ctes)
            + f"\nSELECT node, CAST(dist AS BIGINT) AS dist"
              f" FROM s{hops}")


# --- common-neighbor link prediction (degree-capped wedge count) ---
# For every node pair (u, v) sharing at least one neighbor whose
# degree is within [2, CN_MAX_DEG], count those shared neighbors —
# the classic common-neighbours link-prediction score, the edge-
# induction step a KG-construction pipeline runs to propose missing
# links (e.g. entities co-mentioned by the same turn). The degree cap
# is part of the operator CONTRACT (mirrored in SQL): hub centers
# (a popular entity neighbouring every turn) would contribute
# O(deg²) pairs and, at 100 TB, a single skewed center would emit
# more wedges than the rest of the graph combined — capped centers
# bound per-center work at C(CN_MAX_DEG, 2) while keeping the output
# exactly reproducible. Three bucketed exchanges: edge dedup, center-
# keyed wedge generation (degree falls out of the same group), and
# the pair-keyed count reduction. (CN_MAX_DEG is defined at the top
# of the module, next to TRI_BUCKETS.)

# resource-allocation index fixed-point scale: each shared neighbor z
# contributes floor(RA_SCALE / deg(z)) — per-term integer floor keeps
# the sum order-free and the DuckDB mirror (integer //) hash-exact
RA_SCALE = 10 ** 6


def _wedge_scores(quads, max_deg: int, out_col: str,
                  scale: int | None, und=None):
    """Shared degree-capped wedge engine: for every pair (u, v)
    sharing a neighbor z with deg(z) in [2, ``max_deg``], sum a
    per-center weight over the shared neighbors — 1 (``scale`` None,
    common-neighbor count) or floor(scale / deg(z)) (resource
    allocation). Three bucketed exchanges: edge dedup
    (_undirected_edges), center-keyed wedge generation (degree = run
    length in the same group), pair-keyed sum reduction.
    ``und`` lets a caller that ALSO consumes the edge list (e.g.
    jaccard_neighbors' degree hop) pass a pinned one, so the upstream
    quad pipeline executes once instead of per consumer."""
    from .groupkit import (
        pair_run_starts,
        run_lengths,
        run_pair_indices,
        run_starts,
    )

    def both_ends(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        key = np.concatenate([u, v])
        nb = np.concatenate([v, u])
        return pa.table({
            "key": pa.array(key, pa.string()),
            "nb": pa.array(nb, pa.string()),
            "bucket": _bucket_of(key),
        })

    def wedges_in_bucket(g) -> pa.Table:
        keys = g["key"].to_numpy()
        nbs = g["nb"].to_numpy()
        order = np.lexsort((nbs, keys))
        k, n = keys[order], nbs[order]
        # center degree = run length (each incident distinct edge
        # contributes exactly one key-keyed row)
        starts = run_starts(k)
        lens = run_lengths(k, starts)
        keep_run = (lens >= 2) & (lens <= max_deg)
        row_keep = np.repeat(keep_run, lens)
        kk, nn = k[row_keep], n[row_keep]
        i, j = run_pair_indices(kk)
        # nb is sorted within each run and distinct ⇒ nn[i] < nn[j]
        pu, pv = nn[i], nn[j]
        if scale is None:
            pw = np.ones(len(pu), np.int64)
        else:
            # per-row center degree, surviving rows only; both pair
            # endpoints share the run, so w[i] is the wedge's weight
            row_deg = np.repeat(lens, lens)[row_keep]
            pw = np.int64(scale) // row_deg[i]
        # in-bucket partial sum per pair before the pair shuffle
        porder = np.lexsort((pv, pu))
        pu, pv, pw = pu[porder], pv[porder], pw[porder]
        pstarts = pair_run_starts(pu, pv)
        psums = (np.add.reduceat(pw, pstarts) if len(pstarts)
                 else np.zeros(0, np.int64))
        du, dv = pu[pstarts], pv[pstarts]
        return pa.table({
            "u": pa.array(du, pa.string()),
            "v": pa.array(dv, pa.string()),
            "cnt": pa.array(psums),
            "pbucket": pa.array(_pair_bucket_ids(du, dv, PR_BUCKETS)),
        })

    def total_in_bucket(g) -> pa.Table:
        u = g["u"].to_numpy()
        v = g["v"].to_numpy()
        cnt = g["cnt"].to_numpy().astype(np.int64)
        order = np.lexsort((v, u))
        u, v, cnt = u[order], v[order], cnt[order]
        starts = pair_run_starts(u, v)
        # reduceat accumulates in int64 — exact, matching the
        # integer-sum contract (groupkit.int_group_sums)
        sums = (np.add.reduceat(cnt, starts) if len(starts)
                else np.zeros(0, np.int64))
        return pa.table({
            "u": pa.array(u[starts], pa.string()),
            "v": pa.array(v[starts], pa.string()),
            out_col: pa.array(sums),
        })

    if und is None:
        und = _undirected_edges(quads)
    return und.map_batches(both_ends, batch_format="pyarrow") \
        .groupby("bucket").map_groups(wedges_in_bucket,
                                      batch_format="pandas") \
        .groupby("pbucket").map_groups(total_in_bucket,
                                       batch_format="pandas")


def common_neighbors(quads, max_deg: int = CN_MAX_DEG, und=None):
    """quad table → (u, v, common): number of shared neighbors with
    degree in [2, ``max_deg``], for u < v, over the undirected
    distinct IRI–IRI graph."""
    return _wedge_scores(quads, max_deg, "common", scale=None,
                         und=und)


def resource_allocation(quads, max_deg: int = CN_MAX_DEG,
                        scale: int = RA_SCALE, und=None):
    """quad table → (u, v, ra_score): resource-allocation link-
    prediction index Σ_z floor(scale / deg(z)) over shared neighbors
    z with deg(z) in [2, ``max_deg``], for u < v — the degree-weighted
    refinement of common_neighbors (shared hubs count less), in exact
    fixed-point so the SQL mirror is hash-exact."""
    return _wedge_scores(quads, max_deg, "ra_score", scale=scale,
                         und=und)


def _common_neighbors_oracle_sql(quads_sql: str,
                                 max_deg: int = CN_MAX_DEG) -> str:
    return f"""
WITH q AS ({quads_sql}),
e0 AS (SELECT DISTINCT least(subj, obj_value) AS u,
                       greatest(subj, obj_value) AS v
       FROM q WHERE obj_kind = 'iri' AND subj <> obj_value),
ed AS (SELECT u AS a, v AS b FROM e0 UNION ALL SELECT v, u FROM e0),
d AS (SELECT a AS node, count(*) AS deg FROM ed GROUP BY a),
c AS (SELECT ed.a AS ctr, ed.b AS nb FROM ed
      JOIN d ON d.node = ed.a WHERE d.deg BETWEEN 2 AND {max_deg})
SELECT x.nb AS u, y.nb AS v, CAST(count(*) AS BIGINT) AS common
FROM c x JOIN c y ON x.ctr = y.ctr AND x.nb < y.nb
GROUP BY x.nb, y.nb
"""


def _resource_allocation_oracle_sql(quads_sql: str,
                                    max_deg: int = CN_MAX_DEG,
                                    scale: int = RA_SCALE) -> str:
    return f"""
WITH q AS ({quads_sql}),
e0 AS (SELECT DISTINCT least(subj, obj_value) AS u,
                       greatest(subj, obj_value) AS v
       FROM q WHERE obj_kind = 'iri' AND subj <> obj_value),
ed AS (SELECT u AS a, v AS b FROM e0 UNION ALL SELECT v, u FROM e0),
d AS (SELECT a AS node, count(*) AS deg FROM ed GROUP BY a),
c AS (SELECT ed.a AS ctr, ed.b AS nb, {scale} // d.deg AS w FROM ed
      JOIN d ON d.node = ed.a WHERE d.deg BETWEEN 2 AND {max_deg})
SELECT x.nb AS u, y.nb AS v, CAST(sum(x.w) AS BIGINT) AS ra_score
FROM c x JOIN c y ON x.ctr = y.ctr AND x.nb < y.nb
GROUP BY x.nb, y.nb
"""


# --- label-propagation communities (synchronous mode-label LPA) ---
# The community-detection counterpart of components_quads: each round
# every node adopts the MODE of its neighbors' labels (ties broken by
# min label — the deterministic synchronous LPA variant), seeded with
# the node's own IRI. Unlike min-label propagation, mode is NOT
# monotone, so there is no delta shortcut: every node re-messages its
# neighbors each round (the components/reach delta optimizations
# explicitly do not apply). COMM_ITERS fused bucketed exchanges + the
# seed exchange, same message-passing shape as _lp_round. On the
# conversation KG the stable communities are the conversation stars.

COMM_ITERS = 3


def _comm_seed(quads):
    """quad table → adjacency rows + round-1 messages (each edge
    endpoint sends its OWN IRI — exactly s0 = identity labels)."""
    def seed_in_bucket(g) -> pa.Table:
        df = g[["u", "v"]].drop_duplicates()
        u = df["u"].to_numpy()
        v = df["v"].to_numpy()
        n = len(u)
        # the group IS bucket(u) — no need to rehash u
        bu = np.full(n, np.int32(g["bucket"].iloc[0]), np.int32)
        bv = _bucket_of(v).to_numpy()
        none = np.full(n, None, object)
        # adj u→v (bucket u), adj v→u (bucket v),
        # msg to u lab=v (bucket u), msg to v lab=u (bucket v);
        # dbucket = the static bucket of each adjacency row's dst,
        # carried so rounds never rehash the edge strings
        node = np.concatenate([u, v, u, v])
        dst = np.concatenate([v, u, none, none])
        lab = np.concatenate([none, none, v, u])
        bucket = np.concatenate([bu, bv, bu, bv])
        dbucket = np.concatenate([bv, bu, bu, bv])
        return pa.table({
            "node": pa.array(node, pa.string()),
            "dst": pa.array(dst, pa.string()),
            "lab": pa.array(lab, pa.string()),
            "bucket": pa.array(bucket, pa.int32()),
            "dbucket": pa.array(dbucket, pa.int32()),
        })

    return quads.map_batches(_canon_edge_rows, batch_format="pyarrow") \
        .groupby("bucket").map_groups(seed_in_bucket,
                                      batch_format="pandas")


def _mode_per_node(nodes: np.ndarray, labs: np.ndarray):
    """(unique node, mode label) — argmax count per node, ties by min
    label: one lexsort to count (node, lab) runs, one lexsort to rank
    (node, -count, lab)."""
    from .groupkit import pair_run_starts, run_lengths, run_starts

    order = np.lexsort((labs, nodes))
    ns, ls = nodes[order], labs[order]
    pstarts = pair_run_starts(ns, ls)
    counts = run_lengths(ns, pstarts)
    gn, gl = ns[pstarts], ls[pstarts]
    order2 = np.lexsort((gl, -counts, gn))
    gn, gl = gn[order2], gl[order2]
    starts = run_starts(gn)
    return gn[starts], gl[starts]


def _comm_round(state, last: bool):
    """One superstep: per node, new label = mode of incoming messages;
    then (unless ``last``) re-emit adjacency and one message per
    adjacency row carrying the source's new label."""
    def round_in_bucket(g) -> pa.Table:
        import pandas as pd

        dst_all = g["dst"].to_numpy()
        is_a = ~pd.isna(dst_all)
        node = g["node"].to_numpy()
        nodes, labs = _mode_per_node(node[~is_a],
                                     g["lab"].to_numpy()[~is_a])
        if last:
            return pa.table({
                "node": pa.array(nodes, pa.string()),
                "community": pa.array(labs, pa.string()),
            })
        a_src = node[is_a]
        a_dst = dst_all[is_a]
        idx = np.searchsorted(nodes, a_src)
        if len(a_src) and not ((idx < len(nodes)).all()
                               and (nodes[idx] == a_src).all()):
            raise AssertionError(
                "communities invariant broken: adjacency source "
                "with no message in its bucket")
        msg_lab = labs[idx]
        b = np.int32(g["bucket"].iloc[0])
        n_e = len(a_src)
        dbucket = g["dbucket"].to_numpy()[is_a].astype(np.int32)
        out_node = np.concatenate([a_src, a_dst])
        out_dst = np.concatenate([a_dst,
                                  np.full(n_e, None, object)])
        out_lab = np.concatenate([np.full(n_e, None, object),
                                  msg_lab])
        bucket = np.concatenate([np.full(n_e, b, np.int32), dbucket])
        return pa.table({
            "node": pa.array(out_node, pa.string()),
            "dst": pa.array(out_dst, pa.string()),
            "lab": pa.array(out_lab, pa.string()),
            "bucket": pa.array(bucket, pa.int32()),
            "dbucket": pa.array(
                np.concatenate([dbucket, np.zeros(n_e, np.int32)])),
        })

    return state.groupby("bucket").map_groups(round_in_bucket,
                                              batch_format="pandas")


def communities_quads(quads, iters: int = COMM_ITERS):
    """quad table → (node, community): synchronous mode-label LPA
    after ``iters`` rounds over the undirected distinct IRI–IRI
    graph (community = the label a plurality of neighbors held last
    round; ties to the lexicographically smallest label)."""
    if iters < 1:
        raise ValueError("communities_quads: iters must be >= 1")
    state = _comm_seed(quads)
    for t in range(iters):
        state = _comm_round(state, last=(t == iters - 1))
    return state


def _communities_oracle_sql(quads_sql: str,
                            iters: int = COMM_ITERS) -> str:
    """Chained-CTE mirror: per round, per node the (count DESC,
    label ASC) top neighbor label."""
    ctes = [f"""
WITH q AS ({quads_sql}),
e0 AS (SELECT DISTINCT least(subj, obj_value) AS u,
                       greatest(subj, obj_value) AS v
       FROM q WHERE obj_kind = 'iri' AND subj <> obj_value),
ed AS (SELECT u AS a, v AS b FROM e0 UNION ALL SELECT v, u FROM e0),
s0 AS (SELECT DISTINCT a AS node, a AS lab FROM ed)"""]
    for t in range(1, iters + 1):
        ctes.append(f"""
i{t} AS (SELECT ed.b AS node, s.lab, count(*) AS c
      FROM ed JOIN s{t - 1} s ON s.node = ed.a
      GROUP BY ed.b, s.lab),
s{t} AS (SELECT node, lab FROM (
        SELECT node, lab,
               row_number() OVER (PARTITION BY node
                                  ORDER BY c DESC, lab) AS rn
        FROM i{t}) WHERE rn = 1)""")
    return (",".join(ctes)
            + f"\nSELECT node, lab AS community FROM s{iters}")


# --- weighted PageRank over an explicit (src, dst, w) edge table ---
# The weighted-link-analysis variant: message mass splits by edge
# weight, msg = (score · w) // W(src), W = Σ outgoing weight — with
# w ≡ 1 this is bit-identical to pagerank_quads (the two share
# _pr_seed_rows and _pr_round). The flagship weighted input is the
# mention-count bipartite graph conv ↔ entity (w = n_mentions from
# the 2-hop BGP join), symmetrized so rank flows both ways.

def pagerank_weighted(edges):
    """(src, dst, w) edge Dataset → (node, pagerank): PR_ITERS rounds
    of the weighted integer damped update. Partial weights for the
    same (src, dst) are summed in the seed bucket (ship per-batch
    partials, not global edges)."""
    def keyed(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch["src"].to_pylist(), dtype=object)
        return batch.append_column("bucket", _bucket_of(src))

    def seed_in_bucket(g) -> pa.Table:
        agg = g.groupby(["src", "dst"], sort=False)["w"].sum() \
            .reset_index()
        return _pr_seed_rows(agg["src"].to_numpy(),
                             agg["dst"].to_numpy(),
                             agg["w"].to_numpy().astype(np.int64),
                             np.int32(g["bucket"].iloc[0]))

    return _pr_run(
        edges.map_batches(keyed, batch_format="pyarrow")
        .groupby("bucket").map_groups(seed_in_bucket,
                                      batch_format="pandas"))


def _pagerank_weighted_oracle_sql(ce_sql: str) -> str:
    """Chained-CTE mirror over the (conv, entity, n_mentions) BGP
    join output, symmetrized; shares the round builder with the
    unweighted oracle."""
    head = f"""
WITH ce AS ({ce_sql}),
e AS (SELECT conv AS src, entity AS dst,
             CAST(n_mentions AS BIGINT) AS w FROM ce
      UNION ALL
      SELECT entity, conv, CAST(n_mentions AS BIGINT) FROM ce),
d AS (SELECT src, CAST(sum(w) AS BIGINT) AS tw FROM e GROUP BY src),
n AS (SELECT src AS node FROM e UNION SELECT dst AS node FROM e)"""
    return _pr_oracle_rounds(head, "({s}.score * e.w) // d.tw")

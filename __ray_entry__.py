"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the DRIVER before this module is imported; nothing
here (or in jsonld_js_ray) calls ray.init()/ray.shutdown().

- ``entry()``        — flagship KG pipeline on sf0.001, returns the quad
                       Dataset.
- ``queries()``      — one callable per implemented operator/pipeline
                       (SURVEY.md §2); each takes ``sf_dir``.
- ``oracle_sql()``   — DuckDB-equivalent SQL per query (same column
                       names/value forms; the driver hash-compares).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship: events→transcripts→JSON-LD docs→expand→toRDF→URDNA2015
    canonical quads, on /root/testdata/sf0.001."""
    from jsonld_js_ray.pipelines.kg import build_quads

    return build_quads("/root/testdata/sf0.001")


def _q_transcripts(sf_dir: str):
    from jsonld_js_ray.sources.transcripts import read_transcripts

    return read_transcripts(sf_dir)


# --- shared graph artifacts (VERDICT r3 #6) -------------------------
# The driver/bench call each queries() key separately; every
# graph-analytics wrapper used to rebuild the same with-mentions quad
# table (2-6 s at sf0.1) and the triangle family additionally
# re-derived the same undirected/oriented edge tables. One PINNED copy
# per (Ray job, sf_dir) now serves them all. Keyed by the Ray job id
# so a fresh ray.init can never touch dead object refs; results are
# byte-identical (the cache only skips recomputation of a
# deterministic artifact).
_GRAPH_ARTIFACTS: dict = {}


def _shared_graph_artifacts(sf_dir: str, edges: bool = True):
    import ray

    from jsonld_js_ray.pipelines.kg import build_quads
    from jsonld_js_ray.stages.graph import (_oriented_edges, _pin,
                                            _undirected_edges)

    key = (ray.get_runtime_context().get_job_id(), sf_dir)
    ent = _GRAPH_ARTIFACTS.get(key)
    if ent is None:
        _GRAPH_ARTIFACTS.clear()        # one session+sf held at a time
        ent = {}
        _GRAPH_ARTIFACTS[key] = ent
    if "quads" not in ent:              # entry may hold only "ce"
        ent["quads"] = _pin(build_quads(sf_dir, entity_mapping={}))
    if edges and "und" not in ent:
        ent["und"] = _pin(_undirected_edges(ent["quads"]))
        ent["directed"] = _pin(_oriented_edges(ent["und"]))
    return ent["quads"], ent.get("und"), ent.get("directed")


def _shared_conv_entity_mentions(sf_dir: str):
    """Pinned (conv, entity, n_mentions) table — deterministic, reused
    by kg_pagerank_weighted (and anything else edge-weighted over the
    conv↔entity bipartite graph). Same job-id-keyed cache discipline
    as the quad artifacts."""
    import ray

    from jsonld_js_ray.pipelines.kg import conv_entity_mentions
    from jsonld_js_ray.stages.graph import _pin

    key = (ray.get_runtime_context().get_job_id(), sf_dir)
    ent = _GRAPH_ARTIFACTS.get(key)
    if ent is None:
        ent = {}
        _GRAPH_ARTIFACTS.clear()
        _GRAPH_ARTIFACTS[key] = ent
    if "ce" not in ent:
        ent["ce"] = _pin(conv_entity_mentions(sf_dir))
    return ent["ce"]


def _shared_quads(sf_dir: str):
    return _shared_graph_artifacts(sf_dir, edges=False)[0]


def _shared_node_degrees(sf_dir: str):
    """Pinned (node, deg) table over the shared undirected edges —
    reused by kg_jaccard_neighbors (degree attach) and
    kg_degree_hist. Same job-id-keyed cache as the other artifacts."""
    import ray

    from jsonld_js_ray.stages.graph import _pin, _tri_degrees

    _shared_graph_artifacts(sf_dir)     # ensures "und" exists
    key = (ray.get_runtime_context().get_job_id(), sf_dir)
    ent = _GRAPH_ARTIFACTS[key]
    if "deg" not in ent:
        ent["deg"] = _pin(_tri_degrees(ent["und"]))
    return ent["deg"]


def _q_kg_quads(sf_dir: str):
    from jsonld_js_ray.pipelines.kg import build_quads

    return build_quads(sf_dir)


# scratch dirs mkdtemp'd by the connector queries below, in creation
# order. Callers that fully consume the returned (lazy) datasets may
# rmtree exactly these (bench.py does) — deleting by /tmp glob could
# hit a CONCURRENT process's live scratch, and would miss dirs when
# TMPDIR points elsewhere (tempfile.mkdtemp honors TMPDIR).
SCRATCH_DIRS: list[str] = []


def _q_kg_quads_jsonl(sf_dir: str):
    """Flagship toRDF over the reference's NATIVE document format:
    assemble the per-conversation JSON-LD documents, write them as
    newline-delimited JSON-LD shards (plain documents, no envelope),
    read the shards back, and run the same ToRdf stage — output is
    byte-identical to kg_quads, so it carries the same oracle."""
    import tempfile

    from jsonld_js_ray.pipelines.kg import assemble_docs
    from jsonld_js_ray.sources.jsonld_lines import (
        build_quads_from_jsonld_lines,
        write_docs_jsonld_lines,
    )

    # unique dir per invocation: a fixed path keyed on sf_dir would
    # let a second call rmtree shards a previous call's still-lazy
    # read plan references (tiny at oracle scale, so no cleanup)
    out = tempfile.mkdtemp(prefix="jsonld_lines_")
    SCRATCH_DIRS.append(out)
    write_docs_jsonld_lines(assemble_docs(sf_dir), out)
    return build_quads_from_jsonld_lines(out)


def _q_kg_quads_nq_file(sf_dir: str):
    """Quad table → sharded .nq files → parsed back: puts the N-Quads
    file codec (sources/nquads_io.py) on the oracle gate. conv_id
    does not survive the wire format (N-Quads has no such column), so
    the oracle is the kg_quads SQL minus that column."""
    import tempfile

    from jsonld_js_ray.pipelines.kg import build_quads
    from jsonld_js_ray.sources.nquads_io import read_nquads, write_nquads

    out = tempfile.mkdtemp(prefix="nq_file_")
    SCRATCH_DIRS.append(out)
    # conv_id rides along unserialized (the codec writes only the
    # seven wire columns) — no drop pass needed
    write_nquads(build_quads(sf_dir), out)
    return read_nquads(out)


def _q_kg_quads_with_mentions(sf_dir: str):
    from jsonld_js_ray.pipelines.kg import build_quads

    return build_quads(sf_dir, entity_mapping={})


def _q_kg_quad_stats(sf_dir: str):
    from jsonld_js_ray.pipelines.kg import build_quads, quad_stats

    return quad_stats(build_quads(sf_dir))


def _q_kg_mentions(sf_dir: str):
    from jsonld_js_ray.sources.transcripts import read_transcripts
    from jsonld_js_ray.stages.linker import detect_mentions

    return detect_mentions(read_transcripts(sf_dir)).select_columns(
        ["conv_id", "turn_idx", "surface"])


def _q_kg_entities(sf_dir: str):
    from jsonld_js_ray.sources.transcripts import read_transcripts
    from jsonld_js_ray.stages.entity_merge import surface_stats
    from jsonld_js_ray.stages.linker import detect_mentions

    return surface_stats(detect_mentions(read_transcripts(sf_dir)))


def _q_kg_entities_canonical(sf_dir: str):
    from jsonld_js_ray.sources.transcripts import read_transcripts
    from jsonld_js_ray.stages.entity_merge import canonicalize_entities
    from jsonld_js_ray.stages.linker import detect_mentions

    return canonicalize_entities(detect_mentions(read_transcripts(sf_dir)))


def _q_kg_entities_canonical_planted(sf_dir: str):
    from jsonld_js_ray.sources.transcripts import read_transcripts
    from jsonld_js_ray.stages.entity_merge import (
        canonicalize_entities_planted,
    )
    from jsonld_js_ray.stages.linker import detect_mentions

    return canonicalize_entities_planted(
        detect_mentions(read_transcripts(sf_dir)))


def _q_kg_conv_entity_mentions(sf_dir: str):
    from jsonld_js_ray.pipelines.kg import conv_entity_mentions

    return conv_entity_mentions(sf_dir)


def _q_kg_pagerank(sf_dir: str):
    from jsonld_js_ray.stages.graph import pagerank_quads

    return pagerank_quads(_shared_quads(sf_dir))


def _q_kg_pagerank_weighted(sf_dir: str):
    import pyarrow as pa

    from jsonld_js_ray.stages.graph import pagerank_weighted

    ce = _shared_conv_entity_mentions(sf_dir)

    def both_dirs(batch: pa.Table) -> pa.Table:
        w = batch["n_mentions"].cast(pa.int64())
        fwd = pa.table({"src": batch["conv"],
                        "dst": batch["entity"], "w": w})
        rev = pa.table({"src": batch["entity"],
                        "dst": batch["conv"], "w": w})
        return pa.concat_tables([fwd, rev]).combine_chunks()

    edges = ce.map_batches(both_dirs, batch_format="pyarrow")
    return pagerank_weighted(edges)


def _pagerank_weighted_oracle() -> str:
    from jsonld_js_ray.pipelines.oracle import (
        CONV_ENTITY_MENTIONS_ORACLE_SQL,
    )
    from jsonld_js_ray.stages.graph import (
        _pagerank_weighted_oracle_sql,
    )

    return _pagerank_weighted_oracle_sql(
        CONV_ENTITY_MENTIONS_ORACLE_SQL)


def _q_kg_quads_roundtrip(sf_dir: str):
    from jsonld_js_ray.pipelines.kg import roundtrip_quads

    return roundtrip_quads(sf_dir)


def _q_kg_compact_roundtrip(sf_dir: str):
    from jsonld_js_ray.pipelines.kg import compact_roundtrip_turn_counts

    return compact_roundtrip_turn_counts(sf_dir)


def _q_kg_flatten_counts(sf_dir: str):
    from jsonld_js_ray.pipelines.kg import flatten_doc_node_counts

    return flatten_doc_node_counts(sf_dir)


def _q_kg_merged_node_props(sf_dir: str):
    from jsonld_js_ray.pipelines.kg import distributed_merge_node_props

    return distributed_merge_node_props(sf_dir)


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # KG construction (flagship)
        "transcripts": _q_transcripts,
        "kg_quads": _q_kg_quads,
        "kg_quads_jsonl": _q_kg_quads_jsonl,
        "kg_quads_nq_file": _q_kg_quads_nq_file,
        "kg_quads_with_mentions": _q_kg_quads_with_mentions,
        "kg_quad_stats": _q_kg_quad_stats,
        "kg_mentions": _q_kg_mentions,
        "kg_entities": _q_kg_entities,
        "kg_entities_canonical": _q_kg_entities_canonical,
        "kg_entities_canonical_planted": _q_kg_entities_canonical_planted,
        "kg_conv_entity_mentions": _q_kg_conv_entity_mentions,
        "kg_pagerank": _q_kg_pagerank,
        "kg_pagerank_weighted": _q_kg_pagerank_weighted,
        "kg_triangles": _q_kg_triangles,
        "kg_components": _q_kg_components,
        "kg_communities": _q_kg_communities,
        "kg_kcore": _q_kg_kcore,
        "kg_reach": _q_kg_reach,
        "kg_common_neighbors": _q_kg_common_neighbors,
        "kg_property_table": _q_kg_property_table,
        "kg_property_unpivot": _q_kg_property_unpivot,
        "kg_degree_hist": _q_kg_degree_hist,
        "kg_clustering": _q_kg_clustering,
        "kg_truss_support": _q_kg_truss_support,
        "kg_jaccard_neighbors": _q_kg_jaccard_neighbors,
        "kg_assortativity": _q_kg_assortativity,
        "kg_neighbor_sample": _q_kg_neighbor_sample,
        "kg_random_walks": _q_kg_random_walks,
        "kg_quads_roundtrip": _q_kg_quads_roundtrip,
        "kg_compact_roundtrip": _q_kg_compact_roundtrip,
        "kg_flatten_counts": _q_kg_flatten_counts,
        "kg_merged_node_props": _q_kg_merged_node_props,
        "kg_resource_allocation": _q_kg_resource_allocation,
        "kg_entity_lift": _q_kg_entity_lift,
    }


def _q_kg_assortativity(sf_dir: str):
    from jsonld_js_ray.stages.graph import assortativity_moments_quads

    quads, und, _ = _shared_graph_artifacts(sf_dir)
    return assortativity_moments_quads(quads, und=und)


def _assortativity_oracle() -> str:
    from jsonld_js_ray.pipelines.oracle import (
        KG_QUADS_WITH_MENTIONS_ORACLE_SQL,
    )
    from jsonld_js_ray.stages.graph import _assortativity_oracle_sql

    return _assortativity_oracle_sql(KG_QUADS_WITH_MENTIONS_ORACLE_SQL)


def _q_kg_neighbor_sample(sf_dir: str):
    from jsonld_js_ray.stages.graph import neighbor_sample_quads

    quads, und, _ = _shared_graph_artifacts(sf_dir)
    return neighbor_sample_quads(quads, und=und)


def _neighbor_sample_oracle() -> str:
    from jsonld_js_ray.pipelines.oracle import (
        KG_QUADS_WITH_MENTIONS_ORACLE_SQL,
    )
    from jsonld_js_ray.stages.graph import _neighbor_sample_oracle_sql

    return _neighbor_sample_oracle_sql(
        KG_QUADS_WITH_MENTIONS_ORACLE_SQL)


def _q_kg_random_walks(sf_dir: str):
    from jsonld_js_ray.stages.graph import random_walks_quads

    quads, und, _ = _shared_graph_artifacts(sf_dir)
    return random_walks_quads(quads, und=und)


def _random_walks_oracle() -> str:
    from jsonld_js_ray.pipelines.oracle import (
        KG_QUADS_WITH_MENTIONS_ORACLE_SQL,
    )
    from jsonld_js_ray.stages.graph import _random_walks_oracle_sql

    return _random_walks_oracle_sql(KG_QUADS_WITH_MENTIONS_ORACLE_SQL)


def _q_kg_clustering(sf_dir: str):
    from jsonld_js_ray.stages.graph import clustering_quads

    quads, und, directed = _shared_graph_artifacts(sf_dir)
    return clustering_quads(quads, und=und, directed=directed,
                            deg=_shared_node_degrees(sf_dir))


def _clustering_oracle() -> str:
    from jsonld_js_ray.pipelines.oracle import (
        KG_QUADS_WITH_MENTIONS_ORACLE_SQL,
    )
    from jsonld_js_ray.stages.graph import _clustering_oracle_sql

    return _clustering_oracle_sql(KG_QUADS_WITH_MENTIONS_ORACLE_SQL)


def _q_kg_truss_support(sf_dir: str):
    from jsonld_js_ray.stages.graph import truss_support_quads

    quads, und, directed = _shared_graph_artifacts(sf_dir)
    return truss_support_quads(quads, und=und, directed=directed)


def _truss_support_oracle() -> str:
    from jsonld_js_ray.pipelines.oracle import (
        KG_QUADS_WITH_MENTIONS_ORACLE_SQL,
    )
    from jsonld_js_ray.stages.graph import _truss_support_oracle_sql

    return _truss_support_oracle_sql(KG_QUADS_WITH_MENTIONS_ORACLE_SQL)


def _q_kg_jaccard_neighbors(sf_dir: str):
    from jsonld_js_ray.stages.graph import jaccard_neighbors

    quads, und, _ = _shared_graph_artifacts(sf_dir)
    return jaccard_neighbors(quads, und=und,
                             deg=_shared_node_degrees(sf_dir))


def _jaccard_neighbors_oracle() -> str:
    from jsonld_js_ray.pipelines.oracle import (
        KG_QUADS_WITH_MENTIONS_ORACLE_SQL,
    )
    from jsonld_js_ray.stages.graph import (
        _jaccard_neighbors_oracle_sql,
    )

    return _jaccard_neighbors_oracle_sql(
        KG_QUADS_WITH_MENTIONS_ORACLE_SQL)


def _q_kg_entity_lift(sf_dir: str):
    from jsonld_js_ray.pipelines.kg import entity_lift

    return entity_lift(sf_dir, ce=_shared_conv_entity_mentions(sf_dir))


def _entity_lift_oracle() -> str:
    from jsonld_js_ray.pipelines.kg import LIFT_SCALE
    from jsonld_js_ray.pipelines.oracle import (
        KG_QUADS_WITH_MENTIONS_ORACLE_SQL as QSQL,
    )
    from jsonld_js_ray.stages.assemble import CONV_VOCAB

    return f"""
WITH q AS ({QSQL}),
h AS (SELECT subj AS conv, obj_value AS turn FROM q
      WHERE pred = '{CONV_VOCAB}hasTurn'),
m AS (SELECT subj AS turn, obj_value AS entity FROM q
      WHERE pred = '{CONV_VOCAB}mentions'),
ce AS (SELECT DISTINCT h.conv, m.entity
       FROM h JOIN m ON h.turn = m.turn),
n1 AS (SELECT entity, CAST(count(*) AS BIGINT) AS c
       FROM ce GROUP BY entity),
nn AS (SELECT CAST(count(DISTINCT conv) AS BIGINT) AS n FROM ce),
p AS (SELECT a.entity AS e1, b.entity AS e2,
             CAST(count(*) AS BIGINT) AS n12
      FROM ce a JOIN ce b ON a.conv = b.conv AND a.entity < b.entity
      GROUP BY a.entity, b.entity)
SELECT p.e1, p.e2, p.n12 AS n_both,
       CAST((nn.n * p.n12 * {LIFT_SCALE}) // (x.c * y.c) AS BIGINT)
           AS lift
FROM p JOIN n1 x ON x.entity = p.e1
       JOIN n1 y ON y.entity = p.e2
       CROSS JOIN nn
"""


def _q_kg_resource_allocation(sf_dir: str):
    from jsonld_js_ray.stages.graph import resource_allocation

    quads, und, _ = _shared_graph_artifacts(sf_dir)
    return resource_allocation(quads, und=und)


def _resource_allocation_oracle() -> str:
    from jsonld_js_ray.pipelines.oracle import (
        KG_QUADS_WITH_MENTIONS_ORACLE_SQL,
    )
    from jsonld_js_ray.stages.graph import (
        _resource_allocation_oracle_sql,
    )

    return _resource_allocation_oracle_sql(
        KG_QUADS_WITH_MENTIONS_ORACLE_SQL)


def _pagerank_oracle() -> str:
    from jsonld_js_ray.pipelines.oracle import (
        KG_QUADS_WITH_MENTIONS_ORACLE_SQL,
    )
    from jsonld_js_ray.stages.graph import _pagerank_oracle_sql

    return _pagerank_oracle_sql(KG_QUADS_WITH_MENTIONS_ORACLE_SQL)


def _q_kg_triangles(sf_dir: str):
    import ray.data as rd

    from jsonld_js_ray.stages.graph import triangle_stats

    # every queries() entry returns a Dataset (registry contract)
    quads, und, directed = _shared_graph_artifacts(sf_dir)
    return rd.from_arrow(
        triangle_stats(quads, und=und, directed=directed,
                       deg=_shared_node_degrees(sf_dir)))


def _q_kg_components(sf_dir: str):
    from jsonld_js_ray.stages.graph import components_quads

    return components_quads(_shared_quads(sf_dir))


def _q_kg_communities(sf_dir: str):
    from jsonld_js_ray.stages.graph import communities_quads

    return communities_quads(_shared_quads(sf_dir))


def _communities_oracle() -> str:
    from jsonld_js_ray.pipelines.oracle import (
        KG_QUADS_WITH_MENTIONS_ORACLE_SQL,
    )
    from jsonld_js_ray.stages.graph import _communities_oracle_sql

    return _communities_oracle_sql(KG_QUADS_WITH_MENTIONS_ORACLE_SQL)


def _q_kg_kcore(sf_dir: str):
    from jsonld_js_ray.stages.graph import kcore_quads

    return kcore_quads(_shared_quads(sf_dir))


def _q_kg_reach(sf_dir: str):
    from jsonld_js_ray.stages.graph import reach_quads

    return reach_quads(_shared_quads(sf_dir))


def _q_kg_property_table(sf_dir: str):
    from jsonld_js_ray.stages.pivot import property_table

    return property_table(_shared_quads(sf_dir))


def _property_table_oracle() -> str:
    from jsonld_js_ray.pipelines.oracle import (
        KG_QUADS_WITH_MENTIONS_ORACLE_SQL,
    )
    from jsonld_js_ray.stages.pivot import property_table_sql

    return property_table_sql(KG_QUADS_WITH_MENTIONS_ORACLE_SQL)


def _q_kg_property_unpivot(sf_dir: str):
    from jsonld_js_ray.stages.pivot import property_unpivot

    return property_unpivot(_shared_quads(sf_dir))


def _property_unpivot_oracle() -> str:
    from jsonld_js_ray.pipelines.oracle import (
        KG_QUADS_WITH_MENTIONS_ORACLE_SQL,
    )
    from jsonld_js_ray.stages.pivot import property_unpivot_sql

    return property_unpivot_sql(KG_QUADS_WITH_MENTIONS_ORACLE_SQL)


def _q_kg_common_neighbors(sf_dir: str):
    from jsonld_js_ray.stages.graph import common_neighbors

    quads, und, _ = _shared_graph_artifacts(sf_dir)
    return common_neighbors(quads, und=und)


def _common_neighbors_oracle() -> str:
    from jsonld_js_ray.pipelines.oracle import (
        KG_QUADS_WITH_MENTIONS_ORACLE_SQL,
    )
    from jsonld_js_ray.stages.graph import _common_neighbors_oracle_sql

    return _common_neighbors_oracle_sql(KG_QUADS_WITH_MENTIONS_ORACLE_SQL)


def _reach_oracle() -> str:
    from jsonld_js_ray.pipelines.oracle import (
        KG_QUADS_WITH_MENTIONS_ORACLE_SQL,
    )
    from jsonld_js_ray.stages.graph import _reach_oracle_sql

    return _reach_oracle_sql(KG_QUADS_WITH_MENTIONS_ORACLE_SQL)


def _kcore_oracle() -> str:
    from jsonld_js_ray.pipelines.oracle import (
        KG_QUADS_WITH_MENTIONS_ORACLE_SQL,
    )
    from jsonld_js_ray.stages.graph import _kcore_oracle_sql

    return _kcore_oracle_sql(KG_QUADS_WITH_MENTIONS_ORACLE_SQL)


def _components_oracle() -> str:
    from jsonld_js_ray.pipelines.oracle import (
        KG_QUADS_WITH_MENTIONS_ORACLE_SQL,
    )
    from jsonld_js_ray.stages.graph import _components_oracle_sql

    return _components_oracle_sql(KG_QUADS_WITH_MENTIONS_ORACLE_SQL)


def _q_kg_degree_hist(sf_dir: str):
    from jsonld_js_ray.stages.graph import degree_histogram

    quads, und, _ = _shared_graph_artifacts(sf_dir)
    return degree_histogram(quads, und=und,
                            deg=_shared_node_degrees(sf_dir))


def _degree_hist_oracle() -> str:
    from jsonld_js_ray.pipelines.oracle import (
        KG_QUADS_WITH_MENTIONS_ORACLE_SQL,
    )
    from jsonld_js_ray.stages.graph import _degree_hist_oracle_sql

    return _degree_hist_oracle_sql(KG_QUADS_WITH_MENTIONS_ORACLE_SQL)


def _triangles_oracle() -> str:
    from jsonld_js_ray.pipelines.oracle import (
        KG_QUADS_WITH_MENTIONS_ORACLE_SQL,
    )
    from jsonld_js_ray.stages.graph import _triangle_oracle_sql

    return _triangle_oracle_sql(KG_QUADS_WITH_MENTIONS_ORACLE_SQL)


def oracle_sql() -> dict[str, str]:
    from jsonld_js_ray.pipelines.oracle import (
        CONV_ENTITY_MENTIONS_ORACLE_SQL,
        ENTITIES_ORACLE_SQL,
        KG_QUADS_ORACLE_SQL,
        KG_QUADS_WITH_MENTIONS_ORACLE_SQL,
        TRANSCRIPTS_ORACLE_SQL,
        TRIPLE_STATS_ORACLE_SQL,
    )
    from jsonld_js_ray.stages.linker import MENTIONS_SQL
    from jsonld_js_ray.stages.entity_merge import (
        _entities_canonical_planted_sql,
        _entities_canonical_sql,
    )

    return {
        "transcripts": TRANSCRIPTS_ORACLE_SQL,
        # construction-based: real vocab has pairwise Jaccard 0 →
        # identity mapping; planted variant has known clusters
        "kg_entities_canonical": _entities_canonical_sql(),
        "kg_entities_canonical_planted": _entities_canonical_planted_sql(),
        "kg_quads": KG_QUADS_ORACLE_SQL,
        # the jsonl round trip re-emits the kg_quads table exactly —
        # same documents, same ToRdf stage, identity preserved by the
        # connector (sources/jsonld_lines.py)
        "kg_quads_jsonl": KG_QUADS_ORACLE_SQL,
        # file round trip drops conv_id (not part of the N-Quads wire
        # format); everything else must parse back byte-exact
        "kg_quads_nq_file": (
            "SELECT subj, pred, obj_kind, obj_value, obj_datatype, "
            "obj_lang, graph FROM (" + KG_QUADS_ORACLE_SQL + ")"),
        "kg_quads_with_mentions": KG_QUADS_WITH_MENTIONS_ORACLE_SQL,
        "kg_quad_stats": TRIPLE_STATS_ORACLE_SQL,
        "kg_mentions": MENTIONS_SQL,
        "kg_entities": ENTITIES_ORACLE_SQL,
        # 2-hop SPARQL-style BGP join over the quad table
        "kg_conv_entity_mentions": CONV_ENTITY_MENTIONS_ORACLE_SQL,
        # integer damped PageRank over the quad graph (3 fixed rounds;
        # every op order-independent so the hash compare is exact)
        "kg_pagerank": _pagerank_oracle(),
        # mention-weighted bipartite PageRank (weight-split messages)
        "kg_pagerank_weighted": _pagerank_weighted_oracle(),
        # degree-oriented wedge-join triangle count vs 3-way self-join
        "kg_triangles": _triangles_oracle(),
        # R-round min-label propagation vs chained-CTE mirror
        "kg_components": _components_oracle(),
        # R-round synchronous k-core peeling vs chained-CTE mirror
        "kg_kcore": _kcore_oracle(),
        # synchronous mode-label LPA vs row_number()-argmax CTE mirror
        "kg_communities": _communities_oracle(),
        "kg_reach": _reach_oracle(),
        "kg_common_neighbors": _common_neighbors_oracle(),
        # quad pivot -> wide node property table (KG entity export)
        "kg_property_table": _property_table_oracle(),
        # UNPIVOT/melt back to long triples (the pivot inverse)
        "kg_property_unpivot": _property_unpivot_oracle(),
        # undirected degree distribution (deg values bounded)
        "kg_degree_hist": _degree_hist_oracle(),
        # per-node local clustering coefficient as exact integer
        # numerator/denominator (triangle corners vs 3-way join)
        "kg_clustering": _clustering_oracle(),
        # per-edge triangle support (the k-truss base quantity)
        "kg_truss_support": _truss_support_oracle(),
        # neighborhood Jaccard as exact integer common/union counts
        "kg_jaccard_neighbors": _jaccard_neighbors_oracle(),
        # degree-assortativity moments (m, Σdu·dv, Σdu+dv, Σdu²+dv²)
        "kg_assortativity": _assortativity_oracle(),
        # GraphSAGE-style deterministic 2-hop neighbor sample
        # (md5-rank top-k per node, row_number mirror)
        "kg_neighbor_sample": _neighbor_sample_oracle(),
        # DeepWalk-style deterministic walk corpus (step-salted md5
        # argmin successors, chained-join mirror)
        "kg_random_walks": _random_walks_oracle(),
        # lossless distributed fromRDF∘toRDF round-trip → same quad table
        "kg_quads_roundtrip": KG_QUADS_ORACLE_SQL,
        "kg_compact_roundtrip": (
            "WITH transcripts AS (" + TRANSCRIPTS_ORACLE_SQL + ") "
            "SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turns "
            "FROM transcripts GROUP BY conv_id"),
        "kg_merged_node_props": (
            "WITH transcripts AS (" + TRANSCRIPTS_ORACLE_SQL + "), "
            "t AS (SELECT *, 'https://w3id.org/conv/id/' || conv_id "
            "      || '/t/' || CAST(turn_idx AS VARCHAR) AS t_iri, "
            "      'https://w3id.org/conv/id/' || conv_id AS c_iri "
            "      FROM transcripts) "
            "SELECT t_iri AS subj, "
            "       CAST(6 + CASE WHEN tool IS NULL THEN 0 ELSE 1 END "
            "            + CASE WHEN text IS NULL THEN -1 ELSE 0 END "
            "            + CASE WHEN ts IS NULL THEN -1 ELSE 0 END "
            "            AS BIGINT) AS n_props, "
            "       CAST(6 + CASE WHEN tool IS NULL THEN 0 ELSE 1 END "
            "            + CASE WHEN text IS NULL THEN -1 ELSE 0 END "
            "            + CASE WHEN ts IS NULL THEN -1 ELSE 0 END "
            "            AS BIGINT) AS n_values "
            "FROM t "
            "UNION ALL "
            "SELECT c_iri, CAST(3 AS BIGINT), "
            "       CAST(2 + count(*) AS BIGINT) "
            "FROM t GROUP BY c_iri"),
        "kg_flatten_counts": (
            "WITH transcripts AS (" + TRANSCRIPTS_ORACLE_SQL + ") "
            "SELECT conv_id, CAST(count(*) + 1 AS BIGINT) AS n_nodes "
            "FROM transcripts GROUP BY conv_id"),
        # degree-weighted link prediction (exact fixed-point Σ 1/deg)
        "kg_resource_allocation": _resource_allocation_oracle(),
        # conversation-level co-mention lift (statistical link proposal)
        "kg_entity_lift": _entity_lift_oracle(),
    }

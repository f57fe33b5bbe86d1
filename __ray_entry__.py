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
    from jsonld_js_ray.stages.entity_merge import surface_stats
    from jsonld_js_ray.stages.linker import event_mentions

    return surface_stats(event_mentions(sf_dir))

def _q_kg_entities_canonical(sf_dir: str):
    from jsonld_js_ray.stages.entity_merge import canonicalize_entities
    from jsonld_js_ray.stages.linker import event_mentions

    return canonicalize_entities(event_mentions(sf_dir))

def _q_kg_entities_canonical_planted(sf_dir: str):
    from jsonld_js_ray.stages.entity_merge import (
        canonicalize_entities_planted,
    )
    from jsonld_js_ray.stages.linker import event_mentions

    return canonicalize_entities_planted(event_mentions(sf_dir))

def _q_kg_conv_entity_mentions(sf_dir: str):
    from jsonld_js_ray.pipelines.kg import conv_entity_mentions

    return conv_entity_mentions(sf_dir)

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
        "kg_quads_roundtrip": _q_kg_quads_roundtrip,
        "kg_compact_roundtrip": _q_kg_compact_roundtrip,
        "kg_flatten_counts": _q_kg_flatten_counts,
        "kg_merged_node_props": _q_kg_merged_node_props,
    }

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
    }

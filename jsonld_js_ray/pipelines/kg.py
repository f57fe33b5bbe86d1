"""Flagship KG-construction pipeline: transcripts → JSON-LD → RDF quads.

Stages (all lazy Ray Data; the streaming executor pipelines them):

  read_parquet(events)                      — column-pruned read
    → groupby(user_id).map_groups(          — THE one shuffle: turn
        derive_and_assemble_events_group)     derivation + doc assembly
    → map_batches(ToRdfActor, actors)       — expand + nodeMap + toRDF +
                                              URDNA2015 per conversation
    → quad table (Arrow)                    — FIXTURES.md §2 schema

``run_kg_pipeline`` adds the resumable partitioned sink with lineage.
Never calls ray.init (driver owns the session).
"""

from __future__ import annotations

import glob
import os
import time
from typing import Any

from ..stages.assemble import derive_and_assemble_events_group
from ..stages.to_rdf_stage import QUAD_SCHEMA, ToRdfActor  # noqa: F401
from ..state import checkpoint as ckpt


def _event_files(sf_dir: str) -> list[str]:
    files = sorted(glob.glob(f"{sf_dir}/events.parquet")
                   or glob.glob(f"{sf_dir}/events/*.parquet"))
    if not files:
        raise FileNotFoundError(f"no events parquet under {sf_dir}")
    return files


from ..rayutil import strip_meta as _strip_meta  # noqa: E402


def assemble_docs(sf_dir: str, files: list[str] | None = None):
    """events parquet → (conv_id, n_turns, doc_json) Dataset."""
    import ray.data as rd

    paths = files or _event_files(sf_dir)
    events = rd.read_parquet(
        paths, columns=["event_id", "ts", "user_id", "event_type", "props"]
    ).map_batches(_strip_meta, batch_format="pyarrow",
                  zero_copy_batch=True)
    return events.groupby("user_id").map_groups(
        derive_and_assemble_events_group, batch_format="pyarrow")


def build_quads(sf_dir: str, files: list[str] | None = None,
                concurrency: int | tuple | None = None,
                batch_size: int = 256,
                canonicalize: bool = True,
                compute: str = "tasks",
                skip_errors: bool = False):
    """Full lazy pipeline: events → docs → canonical quad Dataset.

    ``compute='tasks'`` (default) runs the ToRdf stage as elastic tasks
    with a per-worker-process singleton holding the context caches —
    measured 2-3x faster than an autoscaling actor pool at this state
    size (see stages/to_rdf_stage.to_rdf_task_fn). ``compute='actors'``
    uses an explicit pool (for expensive per-worker state); NEVER size a
    fixed pool to the whole cluster — it starves the upstream shuffle.

    ``batch_size`` counts CONVERSATIONS per batch (one row each after
    assembly) — moderate so a giant conversation cannot stall a block
    (SURVEY.md §4.3 stragglers row).
    """
    import functools

    from ..stages.to_rdf_stage import to_rdf_task_fn

    docs = assemble_docs(sf_dir, files)
    if compute == "actors":
        kwargs: dict[str, Any] = {
            "batch_format": "pyarrow",
            "batch_size": batch_size,
            "fn_constructor_kwargs": {"canonicalize": canonicalize,
                                      "skip_errors": skip_errors},
            "concurrency": concurrency if concurrency else (1, 8),
        }
        return docs.map_batches(ToRdfActor, **kwargs)
    fn = functools.partial(to_rdf_task_fn, canonicalize=canonicalize,
                           skip_errors=skip_errors)
    task_kwargs: dict[str, Any] = {"batch_format": "pyarrow",
                                   "batch_size": batch_size}
    if concurrency is not None:
        task_kwargs["concurrency"] = concurrency
    return docs.map_batches(fn, **task_kwargs)


def _derive_link_assemble(group, mapping_ref=None):
    """Fused map_groups fn: one user's events → turns → mention detection
    + entity linking (canonical mapping broadcast via ray.put) → doc with
    ``mentions`` IRIs. Duplicate mentions per turn collapse in the node
    map (addValue allowDuplicate=False), like the reference."""
    import re

    import ray

    from ..sources.transcripts import derive_turns_from_events
    from ..stages.assemble import ENTITY_NS, assemble_group
    from ..stages.linker import MENTION_PATTERN

    mapping = ray.get(mapping_ref) if mapping_ref is not None else {}
    pattern = re.compile(MENTION_PATTERN)

    turns = derive_turns_from_events(group)
    mentions_by_turn: dict[int, list[str]] = {}
    for turn_idx, text in zip(turns["turn_idx"].to_pylist(),
                              turns["text"].to_pylist()):
        iris = []
        seen = set()
        for token in pattern.findall(text or ""):
            surface = token.lower()
            canonical = mapping.get(surface, surface)
            if canonical not in seen:
                seen.add(canonical)
                iris.append(ENTITY_NS + canonical)
        if iris:
            mentions_by_turn[turn_idx] = iris

    return assemble_group_with_mentions(turns, mentions_by_turn)


def assemble_group_with_mentions(turns, mentions_by_turn):
    import pyarrow.compute as pc

    from ..stages.assemble import assembled_doc_rows

    g = turns.take(pc.sort_indices(turns,
                                   sort_keys=[("turn_idx", "ascending")]))
    conv_id = g["conv_id"][0].as_py()
    cols = g.to_pydict()
    turn_rows = [
        {"turn_idx": cols["turn_idx"][i], "role": cols["role"][i],
         "text": cols["text"][i], "tool": cols["tool"][i],
         "ts": cols["ts"][i]}
        for i in range(g.num_rows)
    ]
    return assembled_doc_rows(conv_id, turn_rows, mentions_by_turn)


def build_quads_with_mentions(sf_dir: str,
                              canonical_mapping: dict | None = None,
                              concurrency: int | None = None,
                              batch_size: int = 256,
                              files: list[str] | None = None,
                              skip_errors: bool = False):
    """Flagship + entity linking: mention IRIs embedded per turn.

    ``canonical_mapping`` (surface → canonical surface, from the min-hash
    merge) is broadcast once with ray.put and read per task — never
    re-shipped per batch.
    """
    import functools

    import ray
    import ray.data as rd

    events = rd.read_parquet(
        files or _event_files(sf_dir),
        columns=["event_id", "ts", "user_id", "event_type", "props"]
    ).map_batches(_strip_meta, batch_format="pyarrow",
                  zero_copy_batch=True)
    from ..stages.to_rdf_stage import to_rdf_task_fn

    mapping_ref = ray.put(canonical_mapping) if canonical_mapping else None
    fn = functools.partial(_derive_link_assemble, mapping_ref=mapping_ref)
    docs = events.groupby("user_id").map_groups(fn, batch_format="pyarrow")
    if concurrency is not None:
        return docs.map_batches(
            ToRdfActor, batch_format="pyarrow", batch_size=batch_size,
            concurrency=concurrency,
            fn_constructor_kwargs={"skip_errors": skip_errors})
    return docs.map_batches(
        functools.partial(to_rdf_task_fn, skip_errors=skip_errors),
        batch_format="pyarrow", batch_size=batch_size)




def _write_shard(quads, out_dir: str, shard_id: int, path: str,
                 fp: str) -> "ckpt.ShardRecord":
    """Write one shard's quad Dataset atomically with part_id provenance
    and a lineage record (shared by both pipeline runners)."""
    t0 = time.perf_counter()
    rec = ckpt.ShardRecord(
        shard_id=shard_id, inputs=[path], input_fingerprint=fp,
        rows=0, quads=0, wall_ms=0)

    def write(tmp_dir: str) -> None:
        import pyarrow as pa

        def add_part(batch: pa.Table, _pid=shard_id) -> pa.Table:
            # FIXTURES.md §2 provenance column
            return batch.append_column(
                "part_id", pa.array([_pid] * batch.num_rows, pa.int32()))

        quads.map_batches(add_part, batch_format="pyarrow",
                          zero_copy_batch=True).write_parquet(tmp_dir)
        import pyarrow.parquet as pq
        n = 0
        for f in glob.glob(os.path.join(tmp_dir, "*.parquet")):
            n += pq.ParquetFile(f).metadata.num_rows
        rec.quads = n
        rec.rows = n
        rec.wall_ms = int((time.perf_counter() - t0) * 1000)

    ckpt.write_shard_atomic(out_dir, shard_id, write, rec)
    return rec


def run_kg_pipeline(sf_dir: str, out_dir: str,
                    concurrency: int | None = None,
                    batch_size: int = 256,
                    resume: bool = True) -> dict:
    """Execute the flagship pipeline with a resumable partitioned sink.

    Shard = one input events file (resume unit; 100 TB inputs are many
    files). Output: ``out_dir/shard=N/part-*.parquet`` + per-shard
    lineage JSON. Returns run metrics.
    """
    files = _event_files(sf_dir)

    os.makedirs(out_dir, exist_ok=True)
    ckpt.reconcile_shards(out_dir, len(files))
    metrics = {"shards_total": len(files), "shards_skipped": 0,
               "quads": 0, "wall_ms": 0}

    for shard_id, path in enumerate(files):
        fp = ckpt.fingerprint_inputs([path])
        if resume and ckpt.is_shard_done(out_dir, shard_id, fp):
            metrics["shards_skipped"] += 1
            continue
        quads = build_quads(sf_dir, files=[path], concurrency=concurrency,
                            batch_size=batch_size, skip_errors=True)
        rec = _write_shard(quads, out_dir, shard_id, path, fp)
        metrics["quads"] += rec.quads
        metrics["wall_ms"] += rec.wall_ms
    return metrics


def roundtrip_quads(sf_dir: str):
    """fromRDF∘toRDF round-trip, distributed: quad table →
    groupby(conv_id) → per-conversation fromRDF (list reassembly needs
    the whole graph in one group, SURVEY.md §2.1 fromRDF row) → toRDF →
    quad table again. Oracle: identical to kg_quads (lossless round
    trip on the flagship corpus)."""
    import pyarrow as pa

    from ..core.from_rdf import from_rdf as core_from_rdf
    from ..core.to_rdf import to_rdf as core_to_rdf
    from ..sources.nquads_io import rows_to_terms, terms_to_rows

    quads = build_quads(sf_dir)

    def per_conv(group: pa.Table) -> pa.Table:
        conv_id = group["conv_id"][0].as_py()
        terms = rows_to_terms(group)
        expanded = core_from_rdf(terms, {})
        quads2 = core_to_rdf(expanded, {})
        return terms_to_rows(quads2, conv_id)

    return quads.groupby("conv_id").map_groups(per_conv,
                                               batch_format="pyarrow")


def compact_roundtrip_turn_counts(sf_dir: str):
    """Distributed compact∘expand round-trip over the assembled docs:
    each doc is compacted against the transcript context, re-expanded,
    and its hasTurn count emitted. Oracle: turns per conversation from
    the transcripts CTE."""
    import json

    import pyarrow as pa

    from .. import api as _api
    from ..stages.assemble import TRANSCRIPT_CONTEXT

    docs = assemble_docs(sf_dir)

    def per_batch(batch: pa.Table) -> pa.Table:
        conv_ids = batch["conv_id"].to_pylist()
        out_n = []
        for doc_json in batch["doc_json"].to_pylist():
            doc = json.loads(doc_json)
            expanded = _api.expand(doc)
            compacted = _api.compact(expanded, TRANSCRIPT_CONTEXT)
            re_expanded = _api.expand(compacted)
            turns = re_expanded[0].get(
                "https://w3id.org/conv#hasTurn", [])
            out_n.append(len(turns))
        return pa.table({
            "conv_id": pa.array(conv_ids, pa.string()),
            "n_turns": pa.array(out_n, pa.int64()),
        })

    from ray.data.aggregate import Sum

    per_chunk = docs.map_batches(per_batch, batch_format="pyarrow",
                                 batch_size=256)
    # chunked giant conversations emit one row per chunk; the oracle is
    # per conversation — sum of chunk turn counts == total
    return per_chunk.groupby("conv_id").aggregate(
        Sum("n_turns", alias_name="n_turns"))


def build_entity_mapping(sf_dir: str, threshold: float = 0.6) -> dict:
    """Phase 1 of the full pipeline: mention stream → salted surface
    stats → min-hash near-dup merge → surface→canonical dict (the
    broadcast small side for phase 2).

    Phase 2 consumes the mapping as ONE ``ray.put`` dict, so the vocab
    must fit on the driver here by design. Everything heavier stays
    distributed: banding + in-bucket Jaccard verification run in
    ``entity_merge.verified_edges`` (map_batches + band groupby); the
    driver sees only the vocab keys and the dup-density-bounded verified
    EDGE list, then runs an O(|edges|) union-find (exact transitive
    closure — unlike the round-capped label propagation in
    ``canonicalize_entities``, which warns if a chain exceeds
    MAX_ROUNDS hops; the two paths agree whenever propagation
    converges)."""
    from ..sources.transcripts import read_transcripts
    from ..stages.entity_merge import surface_stats, verified_edges
    from ..stages.linker import detect_mentions

    mentions = detect_mentions(read_transcripts(sf_dir))
    stats = surface_stats(mentions).materialize()
    edges = verified_edges(stats, threshold).to_pandas()
    surfaces = stats.select_columns(["surface"]).to_pandas()["surface"]

    from ..stages.dedup import _UnionFind

    uf = _UnionFind()
    for s in surfaces:
        uf.find(s)                       # register singletons
    for a, b in zip(edges.get("src", []), edges.get("dst", [])):
        uf.union(a, b)
    return uf.cluster_map()


def run_full_kg_pipeline(sf_dir: str, out_dir: str,
                         batch_size: int = 256,
                         resume: bool = True,
                         threshold: float = 0.6) -> dict:
    """The complete north-star flow, resumable:

    phase 1  entity canonicalization (min-hash + exact merge, salted) —
             its mapping is itself checkpointed to out_dir;
    phase 2  per input shard: derive turns → mention detection + linking
             against the broadcast mapping → JSON-LD docs → expand →
             toRDF → URDNA2015 → partitioned Parquet quads + lineage.

    Returns metrics incl. triples/sec per shard.
    """
    import json as _json

    files = _event_files(sf_dir)
    os.makedirs(out_dir, exist_ok=True)

    # phase 1 (checkpointed: reuse when inputs unchanged)
    all_fp = ckpt.fingerprint_inputs(files)
    map_path = os.path.join(out_dir, "_entity_mapping.json")
    mapping: dict | None = None
    if resume and os.path.exists(map_path):
        try:
            with open(map_path) as f:
                rec = _json.load(f)
            if rec.get("input_fingerprint") == all_fp:
                mapping = rec["mapping"]
        except (OSError, _json.JSONDecodeError):
            mapping = None
    if mapping is None:
        mapping = build_entity_mapping(sf_dir, threshold)
        tmp = map_path + ".tmp"
        with open(tmp, "w") as f:
            _json.dump({"input_fingerprint": all_fp, "mapping": mapping}, f)
        os.rename(tmp, map_path)

    ckpt.reconcile_shards(out_dir, len(files))
    metrics = {"shards_total": len(files), "shards_skipped": 0,
               "quads": 0, "wall_ms": 0, "entities": len(mapping),
               "canonical_entities": len(set(mapping.values()))}

    for shard_id, path in enumerate(files):
        fp = ckpt.fingerprint_inputs([path])
        if resume and ckpt.is_shard_done(out_dir, shard_id, fp):
            metrics["shards_skipped"] += 1
            continue
        quads = build_quads_with_mentions(
            sf_dir, canonical_mapping=mapping, batch_size=batch_size,
            files=[path], skip_errors=True)
        rec = _write_shard(quads, out_dir, shard_id, path, fp)
        metrics["quads"] += rec.quads
        metrics["wall_ms"] += rec.wall_ms
    if metrics["wall_ms"]:
        metrics["triples_per_sec"] = round(
            metrics["quads"] / (metrics["wall_ms"] / 1000), 1)
    return metrics


def flatten_doc_node_counts(sf_dir: str):
    """Distributed flatten over the assembled docs: each conversation doc
    flattens to 1 conversation node + n_turns message nodes (+ entity
    reference nodes when mentions are linked). Oracle: turns-per-conv + 1."""
    import json

    import pyarrow as pa

    from .. import api as _api

    docs = assemble_docs(sf_dir)

    def per_batch(batch: pa.Table) -> pa.Table:
        conv_ids = batch["conv_id"].to_pylist()
        out = []
        for doc_json in batch["doc_json"].to_pylist():
            flattened = _api.flatten(json.loads(doc_json))
            out.append(len(flattened))
        return pa.table({
            "conv_id": pa.array(conv_ids, pa.string()),
            "n_nodes": pa.array(out, pa.int64()),
            "n_chunks": pa.array([1] * len(out), pa.int64()),
        })

    from ray.data.aggregate import Sum

    per_chunk = docs.map_batches(per_batch, batch_format="pyarrow",
                                 batch_size=256)
    # each chunk's flatten includes the conversation node, so the
    # per-conversation total is sum(n_nodes) - (n_chunks - 1)
    agg = per_chunk.groupby("conv_id").aggregate(
        Sum("n_nodes", alias_name="sum_nodes"),
        Sum("n_chunks", alias_name="n_chunks"))

    def finalize(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        n = pc.add(pc.subtract(batch["sum_nodes"], batch["n_chunks"]),
                   pa.scalar(1, pa.int64()))
        return pa.table({"conv_id": batch["conv_id"],
                         "n_nodes": n.cast(pa.int64())})

    return agg.map_batches(finalize, batch_format="pyarrow")


def distributed_merge_node_props(sf_dir: str):
    """jsonld.merge at cluster scale (SURVEY §2.1 merge row: "groupby
    (subject_iri) union-merge"): expand every conversation doc to flat
    (subject, property, value-json) rows, hash-shuffle on the subject
    IRI, union-merge each subject's values with addValue dedup (the
    reference's merge semantics, lib/jsonld.js:803-830), and emit
    (subj, n_props, n_values) per merged node."""
    import json

    import pandas as pd
    import pyarrow as pa

    from .. import api as _api
    from ..core.types import is_keyword
    from ..core.util import ValueIndex

    docs = assemble_docs(sf_dir)

    def explode(batch: pa.Table) -> pa.Table:
        subjects, props, values = [], [], []
        for doc_json in batch["doc_json"].to_pylist():
            expanded = _api.expand(json.loads(doc_json))
            from ..core.nodemap import create_node_map
            from ..core.util import IdentifierIssuer
            graphs: dict = {"@default": {}}
            create_node_map(expanded, graphs, "@default",
                            IdentifierIssuer("_:b"))
            for subj, node in graphs["@default"].items():
                for prop, vals in node.items():
                    if prop == "@id":
                        continue
                    for v in (vals if isinstance(vals, list) else [vals]):
                        subjects.append(subj)
                        props.append(prop)
                        values.append(json.dumps(v, sort_keys=True))
        return pa.table({
            "subj": pa.array(subjects, pa.string()),
            "prop": pa.array(props, pa.string()),
            "value_json": pa.array(values, pa.large_string()),
        })

    rows = docs.map_batches(explode, batch_format="pyarrow",
                            batch_size=256)

    def merge_subject(g: pd.DataFrame) -> pd.DataFrame:
        node: dict = {}
        index = ValueIndex()
        for prop, vj in zip(g["prop"], g["value_json"]):
            index.add(node, prop, json.loads(vj))
        n_values = sum(len(v) for v in node.values())
        return pd.DataFrame({
            "subj": [g["subj"].iloc[0]],
            "n_props": [len(node)],
            "n_values": [n_values],
        })

    return rows.groupby("subj").map_groups(merge_subject,
                                           batch_format="pandas")


def quad_stats(quads):
    """quads Dataset → (pred, n, n_subj) — per-predicate quad count and
    distinct-subject count.

    Skew-proof two-phase aggregation (pred has ~9 values, so a naive
    ``groupby("pred").map_groups`` would funnel billions of rows into one
    pandas frame at scale):

      phase A  per-batch ``pyarrow`` group_by (pred, subj) → partial
               counts — the batch-local combiner;
      phase B  ``groupby([pred, subj])`` over partials (high-cardinality
               key: no skew) → one row per distinct (pred, subj);
      phase C  per-batch group_by pred (n += sum, n_subj += rows), then a
               tiny ``groupby(pred)`` over ≤ |preds|·n_blocks rows.
    """
    import pyarrow as pa
    from ray.data.aggregate import Sum

    def partial_pair_counts(batch: pa.Table) -> pa.Table:
        g = batch.select(["pred", "subj"]) \
            .group_by(["pred", "subj"]) \
            .aggregate([([], "count_all")])
        return pa.table({
            "pred": g["pred"],
            "subj": g["subj"],
            "n_part": g["count_all"].cast(pa.int64()),
        })

    pair_totals = quads.map_batches(
        partial_pair_counts, batch_format="pyarrow", batch_size=65536
    ).groupby(["pred", "subj"]).aggregate(
        Sum("n_part", alias_name="n_part"))

    def partial_pred_stats(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["pred"]).aggregate(
            [("n_part", "sum"), ([], "count_all")])
        return pa.table({
            "pred": g["pred"],
            "n": g["n_part_sum"].cast(pa.int64()),
            "n_subj": g["count_all"].cast(pa.int64()),
        })

    return pair_totals.map_batches(
        partial_pred_stats, batch_format="pyarrow", batch_size=65536
    ).groupby("pred").aggregate(
        Sum("n", alias_name="n"),
        Sum("n_subj", alias_name="n_subj"))


# --- SPARQL-style basic-graph-pattern join over the quad table ---
# ?conv :hasTurn ?turn . ?turn :mentions ?entity  →  per-(conv, entity)
# mention counts. This is the canonical 2-hop triple-pattern join a KG
# query layer needs; it deliberately joins on the turn IRI VALUE (a
# bucketed hash join over the quad stream) rather than parsing the IRI
# structure, so it works for any quad table.

BGP_JOIN_BUCKETS = 128


def conv_entity_mentions(sf_dir: str):
    """quads-with-mentions → (conv, entity, n_mentions): the number of
    turns of each conversation that mention each entity IRI.

    Shape: one filtered pass tags the two triple patterns and buckets
    them by the shared join variable's hash (every turn's rows
    co-locate); each bucket does one vectorized pandas merge + partial
    (conv, entity) count; a final small groupby sums partials.
    Reference query surface: jsonld.js users run this class of query
    via RDF stores after toRDF (lib/jsonld.js toRDF + downstream
    SPARQL); the engine makes it a native dataset operator."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from ..stages.assemble import CONV_VOCAB

    has_turn = CONV_VOCAB + "hasTurn"
    mentions = CONV_VOCAB + "mentions"
    quads = build_quads_with_mentions(sf_dir)

    def edges(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(batch["pred"],
                        value_set=pa.array([has_turn, mentions]))
        t = batch.filter(keep)
        is_h = pc.equal(t["pred"], has_turn).to_numpy(
            zero_copy_only=False)
        subj = t["subj"].to_numpy(zero_copy_only=False)
        obj = t["obj_value"].to_numpy(zero_copy_only=False)
        key = np.where(is_h, obj, subj)           # the turn IRI
        val = np.where(is_h, subj, obj)           # conv | entity
        bucket = (pd.util.hash_array(key.astype(object))
                  % BGP_JOIN_BUCKETS).astype(np.int32)
        return pa.table({
            "key": pa.array(key, pa.string()),
            "val": pa.array(val, pa.string()),
            "side": pa.array(is_h.astype(np.int8)),
            "bucket": pa.array(bucket),
        })

    def join_in_bucket(g: "pd.DataFrame") -> pa.Table:
        h = g[g["side"] == 1][["key", "val"]].rename(
            columns={"val": "conv"})
        m = g[g["side"] == 0][["key", "val"]].rename(
            columns={"val": "entity"})
        merged = h.merge(m, on="key")
        part = merged.groupby(["conv", "entity"], sort=False) \
            .size().reset_index(name="n_part")
        return pa.table({
            "conv": pa.array(part["conv"], pa.string()),
            "entity": pa.array(part["entity"], pa.string()),
            "n_part": pa.array(part["n_part"].to_numpy()
                               .astype(np.int64)),
        })

    parts = quads.map_batches(edges, batch_format="pyarrow") \
        .groupby("bucket").map_groups(join_in_bucket,
                                      batch_format="pandas")
    return parts.groupby(["conv", "entity"]).aggregate(
        Sum("n_part", alias_name="n_mentions"))



# co-mention lift: the statistical link-proposal twin of the graph
# ops in stages/graph.py (common_neighbors scores structure; lift
# scores association strength). lift(e1, e2) =
# (N · n12 · 10^6) // (n1 · n2) — all integers (N = convs with ≥1
# mention, n1/n2 = convs mentioning each entity, n12 = convs
# mentioning both), so the DuckDB mirror is hash-exact; > 10^6 means
# the pair co-occurs more often than independence predicts.
LIFT_SCALE = 10 ** 6
LIFT_BUCKETS = 64


def entity_lift(sf_dir: str, scale: int = LIFT_SCALE, ce=None):
    """quads-with-mentions → (e1, e2, n_both, lift): conversation-level
    co-mention lift per entity pair (e1 < e2), exact fixed-point.
    ``ce`` lets the caller pass the pinned (conv, entity, n_mentions)
    artifact shared with pagerank_weighted so the upstream mention
    pipeline runs once per session, not per consumer."""
    ce = (ce if ce is not None else conv_entity_mentions(sf_dir)) \
        .select_columns(["conv", "entity"])
    return _lift_over_ce(ce, scale)


def _lift_over_ce(ce, scale: int = LIFT_SCALE):
    """Core lift pipeline over a distinct (conv, entity) Dataset.

    Shape: the relation is materialized ONCE (three consumers — pair
    generation, per-entity counts, the conv-count scalar — would
    re-run the upstream per consumer otherwise; six exchanges total);
    pairs are generated conv-bucketed with in-bucket partial counts;
    the two per-entity count attachments are bucketed hash joins on
    the entity's hash (the entity vocabulary is never broadcast or
    collected — the only driver-side value is the N scalar). Join
    rows ride an explicit int8 flag with 0-filled (never NULL) int
    columns so counts stay int64 end-to-end (a NULL-padded union
    would route them through pandas float64 and silently round past
    2^53)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Count, Sum

    from ..stages.groupkit import run_pair_indices

    ce = ce.materialize()
    n_convs = int(ce.groupby("conv")
                  .aggregate(Count(alias_name="n")).count())
    # materialized: both _attach calls consume it (a lazy shared
    # subplan re-executes once per consumer)
    n1 = ce.groupby("entity").aggregate(
        Count(alias_name="n1")).materialize()

    def conv_bucket(batch: pa.Table) -> pa.Table:
        convs = batch["conv"].to_numpy(zero_copy_only=False)
        h = pd.util.hash_array(convs.astype(object))
        return batch.append_column(
            "bucket", pa.array((h % LIFT_BUCKETS).astype(np.int32)))

    def pairs_in_bucket(g: "pd.DataFrame") -> pa.Table:
        convs = g["conv"].to_numpy()
        ents = g["entity"].to_numpy()
        order = np.lexsort((ents, convs))
        cs, es = convs[order], ents[order]
        i, j = run_pair_indices(cs)
        # entities sorted within each conv run ⇒ es[i] < es[j]
        e1, e2 = es[i], es[j]
        df = pd.DataFrame({"e1": e1, "e2": e2})
        part = df.groupby(["e1", "e2"], sort=False) \
            .size().reset_index(name="n_part")
        return pa.table({
            "e1": pa.array(part["e1"], pa.string()),
            "e2": pa.array(part["e2"], pa.string()),
            "n_part": pa.array(
                part["n_part"].to_numpy().astype(np.int64)),
        })

    pairs = ce.map_batches(conv_bucket, batch_format="pyarrow") \
        .groupby("bucket").map_groups(pairs_in_bucket,
                                      batch_format="pandas") \
        .groupby(["e1", "e2"]).aggregate(Sum("n_part",
                                             alias_name="n_both"))

    def _attach(pairs_ds, pair_cols: list, key_col: str,
                out_col: str):
        """Bucketed hash join: pair rows and (entity, n1) rows
        co-locate by hash(entity); the merge never leaves the bucket.
        ``pair_cols`` is the STATIC schema of pairs_ds — probing
        pairs_ds.schema() here (or worse, inside a worker UDF) would
        execute the whole lazy upstream plan once per probe."""
        def tag_pairs(batch: pa.Table) -> pa.Table:
            keys = batch[key_col].to_numpy(zero_copy_only=False)
            h = pd.util.hash_array(keys.astype(object))
            batch = batch.append_column(
                "cnt", pa.array(np.zeros(len(batch), np.int64)))
            batch = batch.append_column(
                "isc", pa.array(np.zeros(len(batch), np.int8)))
            return batch.append_column(
                "jbucket",
                pa.array((h % LIFT_BUCKETS).astype(np.int32)))

        def tag_counts(batch: pa.Table) -> pa.Table:
            keys = batch["entity"].to_numpy(zero_copy_only=False)
            h = pd.util.hash_array(keys.astype(object))
            k = len(batch)
            zeros = pa.array(np.zeros(k, np.int64))
            cols = {}
            for c in pair_cols:
                if c == key_col:
                    cols[c] = batch["entity"]
                elif c in ("e1", "e2"):
                    cols[c] = pa.array([""] * k, pa.string())
                else:
                    cols[c] = zeros
            cols["cnt"] = batch["n1"].cast(pa.int64())
            cols["isc"] = pa.array(np.ones(k, np.int8))
            cols["jbucket"] = pa.array(
                (h % LIFT_BUCKETS).astype(np.int32))
            return pa.table(cols)

        def join_in_bucket(g: "pd.DataFrame") -> pa.Table:
            is_c = (g["isc"] == 1).to_numpy()
            p = g[~is_c][pair_cols]
            c = g[is_c][[key_col, "cnt"]]
            m = p.merge(c, on=key_col)
            out = {}
            for col in pair_cols:
                out[col] = pa.array(
                    m[col], pa.string() if col in ("e1", "e2")
                    else pa.int64())
            out[out_col] = pa.array(m["cnt"], pa.int64())
            return pa.table(out)

        tagged = pairs_ds.map_batches(tag_pairs,
                                      batch_format="pyarrow")
        order = pair_cols + ["cnt", "isc", "jbucket"]
        counts = n1.map_batches(tag_counts, batch_format="pyarrow") \
            .select_columns(order)
        return tagged.select_columns(order).union(counts) \
            .groupby("jbucket").map_groups(join_in_bucket,
                                           batch_format="pandas")

    with1 = _attach(pairs, ["e1", "e2", "n_both"], "e1", "c1")
    both = _attach(with1, ["e1", "e2", "n_both", "c1"], "e2", "c2")

    def score(batch: pa.Table, _n=n_convs, _scale=scale) -> pa.Table:
        n12 = batch["n_both"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        c1 = batch["c1"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        c2 = batch["c2"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if len(n12) and (
                int(n12.max()) * _n > (2 ** 63 - 1) // _scale
                or int(c1.max()) * int(c2.max()) > 2 ** 63 - 1):
            raise OverflowError(
                "entity_lift: N*n12*scale or c1*c2 exceeds the "
                "integer contract bound; use a log-domain variant "
                "at this scale")
        return pa.table({
            "e1": batch["e1"],
            "e2": batch["e2"],
            "n_both": pa.array(n12),
            "lift": pa.array((_n * n12 * _scale) // (c1 * c2)),
        })

    return both.map_batches(score, batch_format="pyarrow")

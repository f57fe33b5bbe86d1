"""Flagship KG-construction pipeline: transcripts → JSON-LD → RDF quads.

Stages (all lazy Ray Data; the streaming executor pipelines them):

  read_parquet(events)                    — column-pruned read
    → sort(user_id)                       — THE one shuffle: every
                                            user's events in one block
    → map_batches(_quads_block,           — per BLOCK: one Arrow sort,
        batch_size=None)                    vectorised turn derivation
                                            (+ entity linking), then
                                            one document at a time
                                            (≤ MAX_TURNS_PER_DOC turns)
                                            built and streamed through
                                            expand + nodeMap + toRDF +
                                            URDNA2015
    → quad table (Arrow)                  — FIXTURES.md §2 schema

This is the shape ``groupby(...).map_groups`` runs under the hood (a
sort, then whole-block batches), without one Python call per user and
without a ``json.dumps`` → ``json.loads`` hop between assembly and
ToRdf (``stages/assemble.assemble_events_block``, a generator). The
block's working set is one small document, not the block's documents:
a document tree that lives long enough to be promoted makes CPython's
cyclic collector re-scan it in full collections (BASELINE.md, "Bounded
working set"). ``assemble_docs`` runs the same kernel and serialises
the documents for the ``doc_json`` consumers.

Every other grouping query here runs the same idiom
(``rayutil.per_block``: sort on the key, then one named block function
per whole block): the compact and flatten counts and the node
properties merge over the kernel's documents (``user_id``, then
``subj`` for the merge), the fromRDF round trip (``conv_id``),
``quad_stats`` (``subj``) and the BGP join (the turn IRI).

The resumable sink runs the same stages with the shard id as an extra
leading sort key (``part_id``, from the read's file path) and ends in
one ``write_parquet(partition_cols=["shard"])``.

There is one path. ``build_quads(..., entity_mapping=None)`` is the
flagship; an ``entity_mapping`` dict (surface → canonical surface, from
the min-hash merge in ``build_entity_mapping``) adds one ``mentions``
triple per turn and linked entity. ``run_kg_pipeline`` and
``run_full_kg_pipeline`` (entity mapping first) write either through
the same resumable partitioned sink with lineage (``_run_shards``): ONE
Ray execution over every pending events file per run, then one commit
per shard (``state/checkpoint.py``).
Never calls ray.init (driver owns the session).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc

from .. import api as _api
from ..core.from_rdf import from_rdf
from ..core.nodemap import create_node_map
from ..core.to_rdf import to_rdf
from ..core.util import IdentifierIssuer, ValueIndex
from ..rayutil import (
    event_files as _event_files, per_block as _per_block,
    read_events as _read_events, run_starts, strip_meta as _strip_meta,
)
from ..sources.nquads_io import rows_to_terms, terms_to_rows
from ..stages.assemble import (
    CONV_VOCAB, TRANSCRIPT_CONTEXT, assemble_events_block, doc_rows,
)
from ..stages.to_rdf_stage import QUAD_SCHEMA, rows_from_parsed_task_fn
from ..state import checkpoint as ckpt

# conversations per ToRdf call and per output table: moderate, so a
# giant block streams out in pieces (SURVEY.md §4.3 stragglers row)
DOCS_PER_BATCH = 256


def _put(entity_mapping: dict | None):
    """Broadcast the mapping once with ray.put; each block reads it."""
    if entity_mapping is None:
        return None
    import ray

    return ray.put(entity_mapping)


def _get(mapping_ref) -> dict | None:
    if mapping_ref is None:
        return None
    import ray

    return ray.get(mapping_ref)


def _docs_block(block: pa.Table, mapping_ref) -> pa.Table:
    return doc_rows(assemble_events_block(block, _get(mapping_ref)))


def _quads_block(block: pa.Table, *, batch_size: int, skip_errors: bool,
                 mapping_ref):
    """One sorted block of events → quad tables of at most
    ``batch_size`` documents and one ``part_id`` each. Documents stream:
    each is built as ToRdf asks for it and dropped once converted, so
    the block's working set is one document plus the quad columns. With
    a ``part_id`` (the sink) every quad keeps its doc's ``part_id`` and
    gets the ``shard`` partition key (the zero-padded name
    ``ckpt.shard_data_dir`` uses)."""
    docs = assemble_events_block(block, _get(mapping_ref))
    for pid, run in itertools.groupby(docs, key=lambda d: d[0]):
        for first in run:
            batch = itertools.chain(
                [first], itertools.islice(run, batch_size - 1))
            quads = rows_from_parsed_task_fn(
                ((d[1], d[3]) for d in batch), skip_errors)
            if pid is not None:
                n = quads.num_rows
                quads = quads.append_column(
                    "part_id", pa.repeat(pa.scalar(pid, pa.int32()), n)
                ).append_column("shard", pa.repeat(pa.scalar(f"{pid:05d}"),
                                                   n))
            yield quads


def assemble_docs(sf_dir: str, files: list[str] | None = None,
                  entity_mapping: dict | None = None):
    """events parquet → (conv_id, n_turns, doc_json) Dataset."""
    events = _read_events(files or _event_files(sf_dir))
    return _per_block(events, "user_id", functools.partial(
        _docs_block, mapping_ref=_put(entity_mapping)))


def build_quads(sf_dir: str, files: list[str] | None = None,
                skip_errors: bool = False,
                entity_mapping: dict | None = None):
    """Full lazy pipeline: events → docs → canonical quad Dataset.

    ``entity_mapping`` None emits no mention triples. A dict (possibly
    empty) maps surface → canonical surface and links every mention of
    every turn to its canonical entity IRI; unmapped surfaces link to
    themselves.

    The block UDF runs as elastic tasks with a per-worker-process
    ToRdf singleton holding the context caches — measured 2-3x faster
    than an autoscaling actor pool at this state size (see
    stages/to_rdf_stage.rows_from_parsed_task_fn).
    """
    events = _read_events(files or _event_files(sf_dir))
    return _per_block(events, "user_id", functools.partial(
        _quads_block, batch_size=DOCS_PER_BATCH, skip_errors=skip_errors,
        mapping_ref=_put(entity_mapping)))


# --- the resumable sink: one execution, per-shard commits -------------

def _tag_parts(t: pa.Table, part_of: dict[str, int]) -> pa.Table:
    """Replace the read's ``path`` column by the file's int32 shard id
    (``part_id``, the FIXTURES.md §2 provenance column)."""
    paths = t["path"].combine_chunks().dictionary_encode()
    ids = pa.array([part_of[os.path.abspath(p)]
                    for p in paths.dictionary.to_pylist()], pa.int32())
    return _strip_meta(t.drop_columns(["path"]).append_column(
        "part_id", ids.take(paths.indices)))


def _shard_quads(pending: dict[int, tuple[str, str]],
                 entity_mapping: dict | None):
    """One lazy Dataset over every pending events file: read with paths →
    sort on (part_id, user_id) → the block kernel. Keying on the shard
    too keeps each file's output what a per-file run gives: a user whose
    events span two files yields one doc (same ``conv_id``) per file."""
    part_of = {os.path.abspath(path): sid
               for sid, (path, _fp) in pending.items()}
    events = _read_events(list(part_of),
                          functools.partial(_tag_parts, part_of=part_of),
                          include_paths=True)
    return _per_block(events, ["part_id", "user_id"], functools.partial(
        _quads_block, batch_size=DOCS_PER_BATCH, skip_errors=True,
        mapping_ref=_put(entity_mapping)))


def _move_parts(src: str, rec: "ckpt.ShardRecord", tmp_dir: str) -> None:
    """Commit step of one shard: move its parts from the run's output
    into ``tmp_dir``; record each part and count the quads from the
    Parquet footers."""
    import pyarrow.parquet as pq

    names = sorted(os.listdir(src)) if os.path.isdir(src) else []
    for name in names:
        dst = os.path.join(tmp_dir, name)
        os.rename(os.path.join(src, name), dst)
        rows = pq.read_metadata(dst).num_rows
        rec.parts.append((name, rows, os.path.getsize(dst)))
    rec.quads = rec.rows = sum(p[1] for p in rec.parts)


def _run_shards(sf_dir: str, out_dir: str, files: list[str], *,
                resume: bool, entity_mapping: dict | None = None) -> dict:
    """The sink both runners share. Shard = one input events file
    (resume unit; 100 TB inputs are many files), written to
    ``out_dir/shard=N/*.parquet`` with per-shard lineage JSON.

    A shard is skipped on resume only when its manifest fingerprint
    matches and its recorded parts are intact. With an
    ``entity_mapping`` the fingerprint also covers a digest of the
    mapping, so outputs with and without mention quads (or from
    different mappings) never satisfy each other; the flagship
    fingerprint is the bare input fingerprint.

    Every pending shard is computed by ONE Ray execution
    (``_shard_quads`` → ``write_parquet(partition_cols=["shard"])`` into
    a run temp dir); then each shard is committed through
    ``ckpt.write_shard_atomic``. ``wall_ms`` (of the metrics and of
    each committed record) is that execution's wall."""
    os.makedirs(out_dir, exist_ok=True)
    ckpt.reconcile_shards(out_dir, len(files))
    metrics = {"shards_total": len(files), "shards_skipped": 0,
               "quads": 0, "wall_ms": 0}
    mapping_digest = None if entity_mapping is None else \
        hashlib.sha256(json.dumps(entity_mapping, sort_keys=True)
                       .encode()).hexdigest()

    pending: dict[int, tuple[str, str]] = {}
    for shard_id, path in enumerate(files):
        fp = ckpt.fingerprint_inputs([path])
        if mapping_digest is not None:
            fp = hashlib.sha256(
                f"{fp}|{mapping_digest}".encode()).hexdigest()[:16]
        if resume and ckpt.is_shard_done(out_dir, shard_id, fp):
            metrics["shards_skipped"] += 1
        else:
            pending[shard_id] = (path, fp)
    if not pending:
        return metrics

    run_tmp = ckpt.temp_dir(out_dir, "run")
    try:
        t0 = time.perf_counter()
        _shard_quads(pending, entity_mapping).write_parquet(
            run_tmp, partition_cols=["shard"])
        metrics["wall_ms"] = int((time.perf_counter() - t0) * 1000)
        for shard_id, (path, fp) in pending.items():
            rec = ckpt.ShardRecord(
                shard_id=shard_id, inputs=[path], input_fingerprint=fp,
                rows=0, quads=0, wall_ms=metrics["wall_ms"])
            ckpt.write_shard_atomic(
                out_dir, shard_id,
                functools.partial(_move_parts,
                                  ckpt.shard_data_dir(run_tmp, shard_id),
                                  rec),
                rec)
            metrics["quads"] += rec.quads
    finally:
        shutil.rmtree(run_tmp, ignore_errors=True)
    return metrics


def run_kg_pipeline(sf_dir: str, out_dir: str, resume: bool = True) -> dict:
    """Execute the flagship pipeline with a resumable partitioned sink
    (``_run_shards``). Returns run metrics."""
    return _run_shards(sf_dir, out_dir, _event_files(sf_dir), resume=resume)


def _roundtrip_block(quads: pa.Table) -> pa.Table:
    """Quads sorted on ``conv_id`` → the same quads through fromRDF and
    toRDF again, once per conversation (list reassembly needs the whole
    graph, SURVEY.md §2.1 fromRDF row)."""
    starts = run_starts(quads, ["conv_id"])
    conv = quads["conv_id"]
    return pa.concat_tables([
        terms_to_rows(to_rdf(from_rdf(rows_to_terms(quads.slice(a, b - a)),
                                      {}), {}), conv[a].as_py())
        for a, b in zip(starts, starts[1:])] or [QUAD_SCHEMA.empty_table()])


def roundtrip_quads(sf_dir: str):
    """fromRDF∘toRDF round-trip, distributed: the quad table through
    ``_per_block`` on ``conv_id`` and ``_roundtrip_block``. Oracle:
    identical to kg_quads (lossless round trip on the flagship
    corpus)."""
    return _per_block(build_quads(sf_dir), "conv_id", _roundtrip_block)


def _conv_counts(events: pa.Table, column: str, count_doc,
                 per_chunk: int = 0) -> pa.Table:
    """Events of whole users → one ``(conv_id, column)`` row per
    conversation: ``count_doc`` summed over its documents, each chunk
    after the first less ``per_chunk`` (what every chunk repeats)."""
    totals: dict[str, int] = {}
    for _pid, conv_id, _n, doc in assemble_events_block(events):
        totals[conv_id] = totals.get(conv_id, per_chunk) \
            + count_doc(doc) - per_chunk
    return pa.table({"conv_id": pa.array(list(totals), pa.string()),
                     column: pa.array(list(totals.values()), pa.int64())})


def _compacted_turns(doc: dict) -> int:
    compacted = _api.compact(_api.expand(doc), TRANSCRIPT_CONTEXT)
    return len(_api.expand(compacted)[0].get(CONV_VOCAB + "hasTurn", []))


def _compact_counts_block(events: pa.Table) -> pa.Table:
    """Per conversation: hasTurn values after compact∘expand."""
    return _conv_counts(events, "n_turns", _compacted_turns)


def _flatten_counts_block(events: pa.Table) -> pa.Table:
    """Per conversation: flattened nodes; every chunk's flatten repeats
    the conversation node."""
    return _conv_counts(events, "n_nodes", lambda d: len(_api.flatten(d)),
                        per_chunk=1)


def compact_roundtrip_turn_counts(sf_dir: str):
    """Distributed compact∘expand round-trip: each conversation's
    documents are compacted against the transcript context, re-expanded,
    and their hasTurn values counted (``_compact_counts_block``). Oracle:
    turns per conversation from the transcripts CTE."""
    return _per_block(_read_events(_event_files(sf_dir)), "user_id",
                      _compact_counts_block)


def build_entity_mapping(sf_dir: str, threshold: float = 0.6) -> dict:
    """Phase 1 of the full pipeline: mention stream (one map over the
    events, no shuffle) → salted surface stats → min-hash near-dup
    merge → surface→canonical dict (the broadcast small side for phase
    2; see ``entity_merge.build_canonical_mapping``)."""
    from ..stages.entity_merge import build_canonical_mapping, surface_stats
    from ..stages.linker import event_mentions

    return build_canonical_mapping(surface_stats(event_mentions(sf_dir)),
                                   threshold)


def run_full_kg_pipeline(sf_dir: str, out_dir: str,
                         resume: bool = True,
                         threshold: float = 0.6) -> dict:
    """The complete north-star flow, resumable:

    phase 1  entity canonicalization (min-hash + exact merge, salted) —
             its mapping is itself checkpointed to out_dir, and reused
             only for the same inputs and ``threshold``;
    phase 2  the flagship sink (``_run_shards``) with
             ``entity_mapping=mapping``: derive turns → mention linking
             against the broadcast mapping → JSON-LD docs → expand →
             toRDF → URDNA2015 → partitioned Parquet quads + lineage.

    Returns the sink's metrics plus entity counts and
    ``triples_per_sec`` over the run's one execution.
    """
    files = _event_files(sf_dir)
    os.makedirs(out_dir, exist_ok=True)

    # phase 1 (checkpointed: reuse when inputs and threshold unchanged)
    all_fp = ckpt.fingerprint_inputs(files)
    map_path = os.path.join(out_dir, "_entity_mapping.json")
    mapping: dict | None = None
    if resume and os.path.exists(map_path):
        try:
            with open(map_path) as f:
                rec = json.load(f)
            if rec.get("input_fingerprint") == all_fp \
                    and rec.get("threshold") == threshold:
                mapping = rec["mapping"]
        except (OSError, json.JSONDecodeError):
            mapping = None
    if mapping is None:
        mapping = build_entity_mapping(sf_dir, threshold)
        tmp = map_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"input_fingerprint": all_fp, "threshold": threshold,
                       "mapping": mapping}, f)
        os.rename(tmp, map_path)

    metrics = _run_shards(sf_dir, out_dir, files, resume=resume,
                          entity_mapping=mapping)
    metrics["entities"] = len(mapping)
    metrics["canonical_entities"] = len(set(mapping.values()))
    if metrics["wall_ms"]:
        metrics["triples_per_sec"] = round(
            metrics["quads"] / (metrics["wall_ms"] / 1000), 1)
    return metrics


def flatten_doc_node_counts(sf_dir: str):
    """Distributed flatten: each conversation flattens to 1 conversation
    node + n_turns message nodes (``_flatten_counts_block``). Oracle:
    turns-per-conv + 1."""
    return _per_block(_read_events(_event_files(sf_dir)), "user_id",
                      _flatten_counts_block)


def _node_rows_block(events: pa.Table) -> pa.Table:
    """Events of whole users → one (subj, prop, value_json) row per value
    of every node of every expanded document."""
    subjects, props, values = [], [], []
    for _pid, _conv_id, _n, doc in assemble_events_block(events):
        graphs: dict = {"@default": {}}
        create_node_map(_api.expand(doc), graphs, "@default",
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


def _merge_block(rows: pa.Table) -> pa.Table:
    """Rows sorted on ``subj`` → (subj, n_props, n_values) per subject,
    its values union-merged with addValue dedup."""
    starts = run_starts(rows, ["subj"])
    props = rows["prop"].to_pylist()
    values = rows["value_json"].to_pylist()
    n_props, n_values = [], []
    for a, b in zip(starts, starts[1:]):
        node: dict = {}
        index = ValueIndex()
        for i in range(a, b):
            index.add(node, props[i], json.loads(values[i]))
        n_props.append(len(node))
        n_values.append(sum(len(v) for v in node.values()))
    return pa.table({
        "subj": rows["subj"].take(pa.array(starts[:-1], pa.int64())),
        "n_props": pa.array(n_props, pa.int64()),
        "n_values": pa.array(n_values, pa.int64()),
    })


def distributed_merge_node_props(sf_dir: str):
    """jsonld.merge at cluster scale (SURVEY §2.1 merge row: "groupby
    (subject_iri) union-merge"): expand every conversation document to
    flat (subject, property, value-json) rows, shuffle on the subject
    IRI (a chunked conversation's node spans documents), union-merge
    each subject's values with addValue dedup (the reference's merge
    semantics, lib/jsonld.js:803-830), and emit (subj, n_props,
    n_values) per merged node."""
    rows = _per_block(_read_events(_event_files(sf_dir)), "user_id",
                      _node_rows_block)
    return _per_block(rows, "subj", _merge_block)


def _quad_stats_block(quads: pa.Table) -> pa.Table:
    """Quads whose subjects are all in this block → partial (pred, n,
    n_subj) rows that never count a subject twice."""
    pairs = quads.group_by(["pred", "subj"]).aggregate([([], "count_all")])
    g = pairs.group_by("pred").aggregate(
        [("count_all", "sum"), ([], "count_all")])
    return pa.table({
        "pred": g["pred"],
        "n": g["count_all_sum"].cast(pa.int64()),
        "n_subj": g["count_all"].cast(pa.int64()),
    })


def quad_stats(quads):
    """quads Dataset → (pred, n, n_subj) — per-predicate quad count and
    distinct-subject count.

    ``_per_block`` on ``subj`` puts every subject's quads in one block;
    ``_quad_stats_block``'s Arrow ``group_by(pred, subj)`` →
    ``group_by(pred)`` gives partials, and a tiny ``groupby(pred)`` over
    ≤ |preds|·n_blocks rows sums them. No hash exchange of every (pred,
    subj) pair, and no skew from ``pred`` (~9 values) since the sort
    key is the subject.
    """
    from ray.data.aggregate import Sum

    return _per_block(
        quads.select_columns(["pred", "subj"]), "subj", _quad_stats_block
    ).groupby("pred").aggregate(
        Sum("n", alias_name="n"),
        Sum("n_subj", alias_name="n_subj"))


# --- SPARQL-style basic-graph-pattern join over the quad table ---
# ?conv :hasTurn ?turn . ?turn :mentions ?entity  →  per-(conv, entity)
# mention counts. This is the canonical 2-hop triple-pattern join a KG
# query layer needs; it deliberately joins on the turn IRI VALUE (a
# sort-partitioned join over the quad stream) rather than parsing the
# IRI structure, so it works for any quad table.

_HAS_TURN = CONV_VOCAB + "hasTurn"
_MENTIONS = CONV_VOCAB + "mentions"


def _bgp_edges(quads: pa.Table) -> pa.Table:
    """Quads → the rows of the two triple patterns keyed on the join
    variable: (turn, conv, True) per hasTurn, (turn, entity, False) per
    mentions."""
    t = quads.filter(pc.is_in(quads["pred"],
                              value_set=pa.array([_HAS_TURN, _MENTIONS])))
    is_turn = pc.equal(t["pred"], _HAS_TURN)
    obj = t["obj_value"].cast(pa.string())
    return pa.table({"key": pc.if_else(is_turn, obj, t["subj"]),
                     "val": pc.if_else(is_turn, t["subj"], obj),
                     "is_turn": is_turn})


def _join_block(edges: pa.Table) -> pa.Table:
    """Edges whose turns are all in this block → partial (conv, entity,
    n_part) counts: one inner join of the two patterns on the turn, one
    group-by."""
    convs = edges.filter(edges["is_turn"]).select(["key", "val"]) \
        .rename_columns(["key", "conv"])
    ents = edges.filter(pc.invert(edges["is_turn"])) \
        .select(["key", "val"]).rename_columns(["key", "entity"])
    g = convs.join(ents, "key", join_type="inner") \
        .group_by(["conv", "entity"]).aggregate([([], "count_all")])
    return pa.table({"conv": g["conv"], "entity": g["entity"],
                     "n_part": g["count_all"].cast(pa.int64())})


def conv_entity_mentions(sf_dir: str):
    """quads-with-mentions → (conv, entity, n_mentions): the number of
    turns of each conversation that mention each entity IRI.

    Shape: one filtered pass keys the two triple patterns on the shared
    join variable (``_bgp_edges``), ``_per_block`` on it puts every
    turn's rows in one block, each block joins and counts
    (``_join_block``), and a final small groupby sums the partials.
    Reference query surface: jsonld.js users run this class of query
    via RDF stores after toRDF (lib/jsonld.js toRDF + downstream
    SPARQL); the engine makes it a native dataset operator."""
    from ray.data.aggregate import Sum

    edges = build_quads(sf_dir, entity_mapping={}).map_batches(
        _bgp_edges, batch_format="pyarrow")
    return _per_block(edges, "key", _join_block).groupby(
        ["conv", "entity"]).aggregate(Sum("n_part", alias_name="n_mentions"))

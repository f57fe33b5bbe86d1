"""Per-conversation JSON-LD document assembly.

Transcript rows → one JSON-LD document per conversation, with stable turn
ordering (in-group sort by turn_idx — the north-star per-row invariant).
Runs inside ``groupby(conv_id).map_groups`` (SURVEY.md §7.1); for the
events-derived flagship the turn derivation and assembly FUSE into a
single ``groupby(user_id)`` so the pipeline has exactly one shuffle.

The fixed transcript @context maps role/text/tool/ts/position terms to
IRIs under the ``https://w3id.org/conv#`` vocabulary; role values are
IRIs (tiny cardinality — the designated skew source for entity merge).
"""

from __future__ import annotations

import json
from datetime import datetime
from typing import Any

import pyarrow as pa

CONV_VOCAB = "https://w3id.org/conv#"
CONV_ID_NS = "https://w3id.org/conv/id/"
ROLE_NS = "https://w3id.org/conv/role/"
ENTITY_NS = "https://w3id.org/conv/entity/"
XSD = "http://www.w3.org/2001/XMLSchema#"

TRANSCRIPT_CONTEXT: dict[str, Any] = {
    "@version": 1.1,
    "@vocab": CONV_VOCAB,
    "xsd": XSD,
    "role": {"@type": "@id"},
    "ts": {"@type": "xsd:dateTime"},
    "hasTurn": {"@type": "@id"},
    "partOf": {"@type": "@id"},
    "mentions": {"@type": "@id"},
}


def conv_iri(conv_id: str) -> str:
    return f"{CONV_ID_NS}{conv_id}"


def turn_iri(conv_id: str, turn_idx: int) -> str:
    return f"{CONV_ID_NS}{conv_id}/t/{turn_idx}"


def format_ts(ts: Any) -> str:
    """xsd:dateTime lexical form with microseconds; matches DuckDB
    ``strftime(ts, '%Y-%m-%dT%H:%M:%S.%f')``."""
    if isinstance(ts, datetime):
        return ts.strftime("%Y-%m-%dT%H:%M:%S.%f")
    return str(ts)


MAX_TURNS_PER_DOC = 4096


def assemble_conversation(
    conv_id: str,
    turns: list[dict[str, Any]],
    mentions_by_turn: dict[int, list[str]] | None = None,
    turn_count: int | None = None,
    include_conv_meta: bool = True,
) -> dict[str, Any]:
    """Turn rows (already sorted by turn_idx) → JSON-LD document.

    ``mentions_by_turn`` optionally maps turn_idx → canonical entity IRIs
    (output of the entity-linking stage). For chunked giant conversations
    (SURVEY.md §7.4.6), later chunks pass ``include_conv_meta=False`` so
    the conversation-level triples (@type, turnCount) are emitted exactly
    once; the union of chunk triple sets equals the unchunked set.
    """
    c_iri = conv_iri(conv_id)
    turn_nodes = []
    for t in turns:
        node: dict[str, Any] = {
            "@id": turn_iri(conv_id, t["turn_idx"]),
            "@type": "Message",
            "position": t["turn_idx"],
            "role": ROLE_NS + t["role"],
            "partOf": c_iri,
        }
        # null columns emit no triple (JSON-LD drops nulls; matches the
        # SQL oracle's IS NOT NULL guards)
        if t.get("text") is not None:
            node["text"] = t["text"]
        if t.get("ts") is not None:
            node["ts"] = format_ts(t["ts"])
        if t.get("tool") is not None:
            node["tool"] = t["tool"]
        if mentions_by_turn:
            ents = mentions_by_turn.get(t["turn_idx"])
            if ents:
                node["mentions"] = ents
        turn_nodes.append(node)
    doc: dict[str, Any] = {
        "@context": TRANSCRIPT_CONTEXT,
        "@id": c_iri,
    }
    if include_conv_meta:
        doc["@type"] = "Conversation"
        doc["turnCount"] = turn_count if turn_count is not None \
            else len(turns)
    doc["hasTurn"] = turn_nodes
    return doc


def assembled_doc_rows(
    conv_id: str,
    turn_rows: list[dict[str, Any]],
    mentions_by_turn: dict[int, list[str]] | None = None,
    max_turns_per_doc: int = MAX_TURNS_PER_DOC,
) -> pa.Table:
    """Sorted turn rows → one or more (conv_id, n_turns, doc_json) rows.

    Conversations above ``max_turns_per_doc`` are chunked so one
    pathological conversation cannot exceed a worker's heap; the union
    of the chunks' triple sets equals the unchunked set (conversation
    metadata only in chunk 0)."""
    total = len(turn_rows)
    chunks = [turn_rows[i:i + max_turns_per_doc]
              for i in range(0, total, max_turns_per_doc)] or [[]]
    out_docs = []
    for i, chunk in enumerate(chunks):
        doc = assemble_conversation(
            conv_id, chunk, mentions_by_turn,
            turn_count=total, include_conv_meta=(i == 0))
        out_docs.append(json.dumps(doc, ensure_ascii=False, default=str))
    return pa.table({
        "conv_id": pa.array([conv_id] * len(out_docs), pa.string()),
        "n_turns": pa.array(
            [len(c) for c in chunks], pa.int32()),
        "doc_json": pa.array(out_docs, pa.large_string()),
    })


def assemble_group(turns: pa.Table,
                   mentions_by_turn: dict[int, list[str]] | None = None
                   ) -> pa.Table:
    """map_groups fn: one conversation's transcript rows → one
    (conv_id, n_turns, doc_json) row per chunk. Sorts by turn_idx
    in-group. ``mentions_by_turn`` (turn_idx → entity IRIs) adds each
    turn's ``mentions``."""
    import pyarrow.compute as pc

    g = turns.take(pc.sort_indices(turns, sort_keys=[("turn_idx",
                                                      "ascending")]))
    conv_id = g["conv_id"][0].as_py()
    cols = g.to_pydict()
    turn_rows = [
        {"turn_idx": cols["turn_idx"][i], "role": cols["role"][i],
         "text": cols["text"][i], "tool": cols["tool"][i],
         "ts": cols["ts"][i]}
        for i in range(g.num_rows)
    ]
    return assembled_doc_rows(conv_id, turn_rows, mentions_by_turn)


def derive_and_assemble_events_group(group: pa.Table,
                                     mapping_ref=None) -> pa.Table:
    """Fused stage for the events-derived flagship: one user's events →
    transcript turns (sorted ts, event_id) → assembled doc row.

    ``mapping_ref`` (a ``ray.put`` surface → canonical surface dict)
    adds entity linking: each turn's mentions become ``mentions`` IRIs
    (``linker.link_turn_mentions``). One groupby(user_id) shuffle total
    for read→doc (SURVEY.md §7.3).
    """
    from ..sources.transcripts import derive_turns_from_events

    turns = derive_turns_from_events(group)
    if mapping_ref is None:
        return assemble_group(turns)
    import ray

    from .linker import link_turn_mentions

    return assemble_group(turns,
                          link_turn_mentions(turns, ray.get(mapping_ref)))

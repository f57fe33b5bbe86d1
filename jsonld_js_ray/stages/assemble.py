"""Per-conversation JSON-LD document assembly.

Events → one JSON-LD document per conversation (user), turns in stable
``(ts, event_id)`` order (the north-star per-row invariant). The
flagship runs ``assemble_events_block`` once per block of a dataset
sorted on the user key: one Arrow sort, turn derivation and mention
linking vectorised over the block, then ``assemble_conversation`` per
chunk of at most ``MAX_TURNS_PER_DOC`` turns of one user's run. The
kernel is a generator: each document is built only when the consumer
asks for it, so ToRdf holds one document's object tree at a time and
that tree stays small enough to die young instead of being promoted
and re-scanned by the cyclic collector. ``doc_rows`` materialises and
serialises the documents only for the ``doc_json`` consumers. No
per-user Python call through Ray.

The fixed transcript @context maps role/text/tool/ts/position terms to
IRIs under the ``https://w3id.org/conv#`` vocabulary; role values are
IRIs (tiny cardinality — the designated skew source for entity merge).
"""

from __future__ import annotations

import json
from datetime import datetime
from typing import Any, Iterable, Iterator

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


# Turns per document. Past this a conversation is cut into chunks: the
# knee of the per-quad kernel cost measured inside a Ray worker
# (BASELINE.md, "Bounded working set"), where a document's expand and
# toRDF intermediates start to outlive the collector's young
# generations.
MAX_TURNS_PER_DOC = 128


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
    once; the union of chunk triple sets equals the unchunked set. All
    chunks of one conversation share one blank-node namespace (ToRdf
    prefixes labels with the conversation's fingerprint and URDNA2015
    numbers them from 0 in every document), so chunking stays exact
    only while a document carries no blank node, as none does today.
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


def conversation_docs(
    conv_id: str,
    turns: list[dict[str, Any]],
    mentions_by_turn: dict[int, list[str]] | None = None,
    max_turns_per_doc: int | None = None,
) -> Iterator[tuple[int, dict[str, Any]]]:
    """One conversation's sorted turns → (n_turns, doc) per chunk, each
    chunk's document built only when the consumer asks for it.

    Conversations above ``max_turns_per_doc`` (default
    ``MAX_TURNS_PER_DOC``, read at call time) are chunked so no document
    grows past the kernel's bounded working set; the union of the
    chunks' triple sets equals the unchunked set (conversation metadata
    only in chunk 0)."""
    cap = max_turns_per_doc or MAX_TURNS_PER_DOC
    total = len(turns)
    for lo in range(0, total or 1, cap):
        chunk = turns[lo:lo + cap]
        yield len(chunk), assemble_conversation(
            conv_id, chunk, mentions_by_turn, turn_count=total,
            include_conv_meta=(lo == 0))


def _ts_strings(ts: pa.ChunkedArray) -> list[str | None]:
    """``format_ts`` of every value: one Arrow ``strftime`` for a
    timestamp[us] column (its ``%S`` carries the microseconds), except
    for years below 1000, which Arrow zero-pads and Python does not."""
    import pyarrow.compute as pc

    if ts.type == pa.timestamp("us"):
        lo = pc.min(ts).as_py()
        if lo is None or lo.year >= 1000:
            return pc.strftime(ts, format="%Y-%m-%dT%H:%M:%S").to_pylist()
    return [None if v is None else format_ts(v) for v in ts.to_pylist()]


def assemble_events_block(events: pa.Table,
                          mapping: dict[str, str] | None = None
                          ) -> Iterator[tuple[int | None, str, int, dict]]:
    """The block kernel: events of any number of users → one
    ``(part_id, conv_id, n_turns, doc)`` per document, yielded as each
    document is built.

    One sort on ``(part_id, user_id, ts, event_id)`` (``part_id``, the
    sink's shard id, only when the table has it; else ``part_id`` is
    None), turn derivation vectorised over the whole block with the
    transcript rules (``sources.transcripts``), then one conversation
    per run of equal ``(part_id, user_id)``: turns numbered from 0 in
    ``(ts, event_id)`` order, cut and built lazily by
    ``conversation_docs``.
    ``mapping`` (surface → canonical surface) links every turn's
    mentions (``linker.link_mentions``, one call per block); None
    links none. Documents come in key order."""
    from ..sources.transcripts import sort_turns, turn_roles, turn_text
    from .linker import link_mentions

    keys = [k for k in ("part_id", "user_id") if k in events.column_names]
    t, starts = sort_turns(events, keys)
    firsts = pa.array(starts[:-1], pa.int64())
    users = t["user_id"].take(firsts).to_pylist()
    parts = t["part_id"].take(firsts).to_pylist() if "part_id" in keys \
        else [None] * len(users)
    tool = t["event_type"].to_pylist()
    role = turn_roles(tool)
    text_col = turn_text(t["event_type"], t["props"])
    text = text_col.to_pylist()
    ts = _ts_strings(t["ts"])
    links = None if mapping is None else link_mentions(text_col, mapping)

    for pid, user, a, b in zip(parts, users, starts, starts[1:]):
        conv_id = f"conv-{user}"
        turns = [{"turn_idx": i, "role": role[r], "text": text[r],
                  "tool": tool[r], "ts": ts[r]}
                 for i, r in enumerate(range(a, b))]
        mentions = None if links is None else \
            {i: links[r] for i, r in enumerate(range(a, b)) if links[r]}
        for n, doc in conversation_docs(conv_id, turns, mentions):
            yield pid, conv_id, n, doc


def doc_rows(docs: Iterable[tuple[int | None, str, int, dict]]
             ) -> pa.Table:
    """Kernel documents → the ``(conv_id, n_turns, doc_json)`` table the
    JSON connectors and per-document queries read (all of the block's
    documents at once)."""
    docs = list(docs)
    return pa.table({
        "conv_id": pa.array([d[1] for d in docs], pa.string()),
        "n_turns": pa.array([d[2] for d in docs], pa.int32()),
        "doc_json": pa.array(
            [json.dumps(d[3], ensure_ascii=False, default=str)
             for d in docs], pa.large_string()),
    })


def derive_and_assemble_events_group(group: pa.Table,
                                     mapping_ref=None) -> pa.Table:
    """One user's events → (conv_id, n_turns, doc_json) rows: the block
    kernel over a one-user block. ``mapping_ref`` (a ``ray.put``
    surface → canonical surface dict) adds entity linking."""
    mapping = None
    if mapping_ref is not None:
        import ray

        mapping = ray.get(mapping_ref)
    return doc_rows(assemble_events_block(group, mapping))

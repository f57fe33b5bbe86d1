"""The events → documents block kernel (``assemble_events_block``):
one sort per block, turn derivation and mention linking vectorised,
one conversation per run of one (part_id, user_id); and the block
functions built on it or on its turn sort (transcripts, the compact
and flatten counts). No Ray needed."""

from __future__ import annotations

import json
from datetime import datetime

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from jsonld_js_ray.stages import assemble
from jsonld_js_ray.stages.assemble import (
    ENTITY_NS, ROLE_NS, assemble_events_block,
    derive_and_assemble_events_group, turn_iri,
)
from jsonld_js_ray.stages.to_rdf_stage import ToRdfActor

EVENT_SCHEMA = pa.schema([
    ("event_id", pa.int64()), ("ts", pa.timestamp("us")),
    ("user_id", pa.int64()), ("event_type", pa.string()),
    ("props", pa.string()),
])


def _events(rows: list[tuple], part_ids: list[int] | None = None
            ) -> pa.Table:
    """rows of (event_id, ts, user_id, event_type, props)."""
    t = pa.Table.from_pylist(
        [dict(zip(EVENT_SCHEMA.names, r)) for r in rows],
        schema=EVENT_SCHEMA)
    if part_ids is not None:
        t = t.append_column("part_id", pa.array(part_ids, pa.int32()))
    return t


def _ts(minute: int) -> datetime:
    return datetime(2024, 1, 1, 0, minute, 0, 250)


def _by_conv(docs) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for _pid, conv_id, _n, doc in docs:
        out.setdefault(conv_id, []).append(doc)
    return out


def test_ts_ties_broken_by_event_id():
    docs = list(assemble_events_block(_events([
        (9, _ts(1), 7, "view", "b"),
        (3, _ts(1), 7, "click", "a"),      # same ts, lower event_id
        (1, _ts(2), 7, "error", "c"),
        (2, _ts(0), 5, "view", "x"),
    ])))
    assert [(d[1], d[2]) for d in docs] == [("conv-5", 1), ("conv-7", 3)]
    turns = _by_conv(docs)["conv-7"][0]["hasTurn"]
    assert [t["text"] for t in turns] == ["click a", "view b", "error c"]
    assert [t["@id"] for t in turns] == [turn_iri("conv-7", i)
                                          for i in range(3)]
    assert turns[0]["ts"] == "2024-01-01T00:01:00.000250"


def test_null_event_type_props_and_ts():
    docs = list(assemble_events_block(_events([
        (1, None, 4, "click", "p"),         # null ts sorts last
        (2, _ts(0), 4, None, "p"),
        (3, _ts(1), 4, "purchase", None),
    ])))
    (doc,) = _by_conv(docs)["conv-4"]
    t0, t1, t2 = doc["hasTurn"]
    # null event_type: role 'other', no text, no tool
    assert t0["role"] == ROLE_NS + "other"
    assert "text" not in t0 and "tool" not in t0
    # null props: no text, but the tool and role stay
    assert t1["role"] == ROLE_NS + "assistant" and t1["tool"] == "purchase"
    assert "text" not in t1
    # null ts: last, no ts triple
    assert t2["text"] == "click p" and "ts" not in t2


def test_chunking_inside_a_block_with_other_users(monkeypatch):
    rows = [(i, _ts(i), 1, "view", f"v{i}") for i in range(7)] + \
        [(100 + i, _ts(i), 2, "click", f"c{i}") for i in range(2)] + \
        [(200, _ts(0), 0, "error", "e")]
    whole = list(assemble_events_block(_events(rows)))
    monkeypatch.setattr(assemble, "MAX_TURNS_PER_DOC", 3)
    docs = list(assemble_events_block(_events(rows)))
    assert [(d[1], d[2]) for d in docs] == [
        ("conv-0", 1), ("conv-1", 3), ("conv-1", 3), ("conv-1", 1),
        ("conv-2", 2)]
    chunks = _by_conv(docs)["conv-1"]
    assert [d.get("turnCount") for d in chunks] == [7, None, None]
    assert [t["position"] for d in chunks for t in d["hasTurn"]] == \
        list(range(7))

    actor = ToRdfActor()

    def quads(ds):
        return {q for d in ds for q in actor.doc_to_quads(d, "conv-1")}

    assert quads(chunks) == quads(_by_conv(whole)["conv-1"])
    assert _by_conv(docs)["conv-2"] == _by_conv(whole)["conv-2"]


def test_user_split_over_parts_yields_one_doc_per_part():
    docs = list(assemble_events_block(_events([
        (1, _ts(0), 3, "view", "a"),
        (2, _ts(1), 3, "view", "b"),
        (3, _ts(2), 3, "view", "c"),
        (4, _ts(0), 8, "view", "d"),
    ], part_ids=[1, 0, 1, 0])))
    assert [(d[0], d[1], d[2]) for d in docs] == [
        (0, "conv-3", 1), (0, "conv-8", 1), (1, "conv-3", 2)]
    # each part numbers its turns from 0, as a per-file run does
    assert [t["text"] for t in docs[2][3]["hasTurn"]] == ["view a",
                                                          "view c"]
    assert docs[2][3]["hasTurn"][0]["position"] == 0


def test_group_wrapper_equals_kernel_per_user(sf_dir):
    events = pq.read_table(f"{sf_dir}/events.parquet", columns=[
        "event_id", "ts", "user_id", "event_type", "props"])
    kernel = _by_conv(assemble_events_block(events))
    users = sorted(set(events["user_id"].to_pylist()))
    assert len(kernel) == len(users) > 1
    for user in users:
        group = events.filter(pc.equal(events["user_id"], user))
        rows = derive_and_assemble_events_group(group)
        assert rows["conv_id"].to_pylist() == [f"conv-{user}"]
        assert rows["n_turns"].to_pylist() == [group.num_rows]
        assert [json.loads(d) for d in rows["doc_json"].to_pylist()] == \
            kernel[f"conv-{user}"]


def test_block_linking_one_iri_per_canonical_surface():
    mapping = {"clicks": "click", "zap": "click", "boom": "bang"}
    docs = list(assemble_events_block(_events([
        (1, _ts(0), 1, "click", "Clicks ZAP boom bang ok"),
        (2, _ts(1), 1, "view", None),
        (3, _ts(0), 2, "error", "bang"),
    ]), mapping))
    by = _by_conv(docs)
    t0, t1 = by["conv-1"][0]["hasTurn"]
    assert t0["mentions"] == [ENTITY_NS + "click", ENTITY_NS + "bang"]
    assert "mentions" not in t1
    assert by["conv-2"][0]["hasTurn"][0]["mentions"] == [
        ENTITY_NS + "error", ENTITY_NS + "bang"]
    # without a mapping nothing is linked
    plain = list(assemble_events_block(
        _events([(1, _ts(0), 1, "click", "x")])))
    assert "mentions" not in plain[0][3]["hasTurn"][0]


def test_quads_block_batches_per_part():
    """The sink's block UDF: ToRdf batches of at most ``batch_size``
    documents, never mixing two parts, each quad tagged with its part
    and shard."""
    from jsonld_js_ray.pipelines.kg import _quads_block

    block = _events([
        (1, _ts(0), 1, "view", "a"), (2, _ts(0), 2, "view", "b"),
        (3, _ts(0), 3, "view", "c"), (4, _ts(1), 1, "click", "d"),
    ], part_ids=[4, 4, 4, 7])
    tables = list(_quads_block(block, batch_size=2, skip_errors=False,
                               mapping_ref=None))
    convs = [sorted(set(t["conv_id"].to_pylist())) for t in tables]
    assert convs == [["conv-1", "conv-2"], ["conv-3"], ["conv-1"]]
    assert [set(zip(t["part_id"].to_pylist(), t["shard"].to_pylist()))
            for t in tables] == [{(4, "00004")}] * 2 + [{(7, "00007")}]
    # without part_id (build_quads) the tables carry the quad schema only
    plain = list(_quads_block(block.drop_columns(["part_id"]),
                              batch_size=256, skip_errors=False,
                              mapping_ref=None))
    assert len(plain) == 1 and "part_id" not in plain[0].column_names


def test_transcripts_block_matches_sql(sf_dir):
    """Every user of a block at once, as ``TRANSCRIPTS_SQL`` derives
    them: ``turn_idx`` restarts at 0 for each user."""
    import duckdb

    from jsonld_js_ray.sources.transcripts import (
        TRANSCRIPT_SCHEMA, TRANSCRIPTS_SQL, transcripts_block,
    )

    # DuckDB's replacement scan reads ``events`` from this frame
    events = pq.read_table(f"{sf_dir}/events.parquet", columns=[
        "event_id", "ts", "user_id", "event_type", "props"])
    got = transcripts_block(events)
    assert got.schema.equals(TRANSCRIPT_SCHEMA)
    exp = duckdb.sql(TRANSCRIPTS_SQL).arrow().cast(TRANSCRIPT_SCHEMA)
    keys = [(c, "ascending") for c in ("conv_id", "turn_idx")]
    assert got.sort_by(keys).equals(exp.sort_by(keys))
    assert transcripts_block(events.slice(0, 0)).schema.equals(
        TRANSCRIPT_SCHEMA)


@pytest.mark.parametrize("fn_name, column, per_conv", [
    ("_compact_counts_block", "n_turns", 0),
    ("_flatten_counts_block", "n_nodes", 1),
])
def test_doc_counts_sum_chunks_per_conversation(monkeypatch, fn_name,
                                                column, per_conv):
    """One row per conversation however it is chunked: hasTurn values
    after compact∘expand (the turn count), flattened nodes (turns + the
    conversation node)."""
    from jsonld_js_ray.pipelines import kg

    fn = getattr(kg, fn_name)
    rows = [(i, _ts(i), 1, "view", f"v{i}") for i in range(7)] + \
        [(100 + i, _ts(i), 2, "click", f"c{i}") for i in range(2)] + \
        [(200, _ts(0), 0, "error", "e")]
    expected = {"conv-0": 1 + per_conv, "conv-1": 7 + per_conv,
                "conv-2": 2 + per_conv}

    def counts(t):
        assert t.column_names == ["conv_id", column]
        assert t[column].type == pa.int64()
        return dict(zip(t["conv_id"].to_pylist(), t[column].to_pylist()))

    assert counts(fn(_events(rows))) == expected
    monkeypatch.setattr(assemble, "MAX_TURNS_PER_DOC", 3)
    assert len(list(assemble_events_block(_events(rows)))) == 5
    assert counts(fn(_events(rows))) == expected


def _long_conversation(n: int) -> pa.Table:
    return _events([(i, _ts(i % 60), 1, ("view", "click")[i % 2], f"p{i}")
                    for i in range(n)])


def test_chunked_conversation_same_quad_multiset_as_one_document():
    """A conversation of ``2·cap + 1`` turns, cut by the kernel, gives
    exactly the quads of one uncut document; only chunk 0 carries the
    conversation's ``@type`` and ``turnCount`` (the total)."""
    from collections import Counter

    from jsonld_js_ray.sources.transcripts import transcripts_block

    cap = assemble.MAX_TURNS_PER_DOC
    events = _long_conversation(2 * cap + 1)
    docs = list(assemble_events_block(events))
    assert [d[2] for d in docs] == [cap, cap, 1]
    assert [("@type" in d[3], d[3].get("turnCount")) for d in docs] == [
        (True, 2 * cap + 1), (False, None), (False, None)]

    turns = transcripts_block(events).to_pylist()
    ((_n, whole),) = assemble.conversation_docs(
        "conv-1", turns, max_turns_per_doc=10**9)
    actor = ToRdfActor()
    assert Counter(q for d in docs
                   for q in actor.doc_to_quads(d[3], "conv-1")) == \
        Counter(actor.doc_to_quads(whole, "conv-1"))


def test_kernel_yields_each_document_as_it_is_built(monkeypatch):
    built = []
    real = assemble.assemble_conversation

    def counting(*args, **kwargs):
        built.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(assemble, "assemble_conversation", counting)
    monkeypatch.setattr(assemble, "MAX_TURNS_PER_DOC", 3)
    docs = assemble_events_block(_events(
        [(i, _ts(i), 1, "view", f"v{i}") for i in range(7)]
        + [(100, _ts(0), 2, "click", "c")]))
    assert iter(docs) is docs and built == []
    assert next(docs)[1] == "conv-1" and built == ["conv-1"]
    assert [d[2] for d in docs] == [3, 1, 1]
    assert built == ["conv-1"] * 3 + ["conv-2"]


@pytest.mark.parametrize("mapping", [None, {"view": "look"}])
def test_chunked_conversation_has_no_blank_node(monkeypatch, mapping):
    """Chunks of one conversation share one blank-node namespace (the
    conversation's fingerprint, ``c14n`` numbered from 0 per document),
    so cutting stays exact only while the documents carry no blank
    node."""
    monkeypatch.setattr(assemble, "MAX_TURNS_PER_DOC", 3)
    docs = assemble_events_block(_long_conversation(10), mapping)
    quads = ToRdfActor().rows_from_pairs((d[1], d[3]) for d in docs)
    assert quads.num_rows > 0
    assert (ENTITY_NS + "look" in quads["obj_value"].to_pylist()) == \
        (mapping is not None)
    for col in ("subj", "obj_value", "graph"):
        assert not any(v.startswith("_:") for v in quads[col].to_pylist())

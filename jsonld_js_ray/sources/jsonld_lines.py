"""Newline-delimited JSON-LD document source/sink.

The reference's native input is a parsed JSON-LD document
(``lib/jsonld.js`` expand/toRDF take a JSON object or a URL); at
corpus scale the standard on-disk container for that is
newline-delimited JSON — one complete document per line, sharded
files. This connector writes a (conv_id, doc_json) document Dataset
to ``.jsonl`` shards whose lines are PLAIN JSON-LD documents (no
envelope — the files are directly consumable by the reference or any
other processor) and reads such shards back into the document Dataset
that feeds the engine's ToRdf stage, so a user with a directory of
JSON-LD lines runs the flagship pipeline unchanged.

Document identity on read: the engine's conversation documents carry
their id as the node ``@id`` under ``CONV_ID_NS``
(stages/assemble.py:41); the reader re-derives ``conv_id`` by
stripping that prefix — for THOSE documents identity (and therefore
blank-node namespacing, to_rdf_stage.conv_fingerprint) round-trips
exactly. A FOREIGN document (no ``CONV_ID_NS`` ``@id``) gets a
deterministic sha1 fingerprint of its line instead: a user-assigned
conv_id that is not encoded in the ``@id`` does NOT survive the
round trip (the on-disk format is the plain document, by design),
and byte-identical foreign lines share one identity. Callers who
need a foreign identity preserved must encode it in the document.
"""

from __future__ import annotations

import hashlib
import json

import pyarrow as pa

from ..stages.assemble import CONV_ID_NS


def docs_to_lines(batch: pa.Table) -> pa.Table:
    """(conv_id, doc_json, ...) rows → one raw JSON-LD line per doc.

    ``doc_json`` comes from ``json.dumps`` (assemble stage), which
    escapes embedded newlines — every document is one physical line
    by construction; the guard keeps a foreign multi-line value from
    silently corrupting the shard. The newline scan is a vectorized
    Arrow kernel; only the (normally zero) offending rows pay a
    Python re-dump."""
    import pyarrow.compute as pc

    col = batch["doc_json"]
    bad = pc.or_(pc.match_substring(col, "\n"),
                 pc.match_substring(col, "\r"))
    if not pc.any(bad).as_py():
        return pa.table({"line": col.cast(pa.large_string())})
    lines = col.to_pylist()
    for i, is_bad in enumerate(bad.to_pylist()):
        if is_bad:
            lines[i] = json.dumps(json.loads(lines[i]),
                                  separators=(",", ":"))
    return pa.table({"line": pa.array(lines, pa.large_string())})


def write_docs_jsonld_lines(docs_ds, out_dir: str,
                            inputs: list[str] | None = None):
    """Document Dataset → directory of ``part-*.jsonl`` files via the
    shared tmp+rename shard writer (sources/lineio.py); returns the
    manifest (path, docs) as an Arrow table. Pass ``inputs=`` (the
    source files the docs derive from) to make the write resumable: a
    completed prior write of the same input fingerprint is skipped
    (lineio lineage contract)."""
    from .lineio import write_line_shards

    lines = docs_ds.map_batches(docs_to_lines, batch_format="pyarrow",
                                batch_size=4096)
    return write_line_shards(lines, out_dir, "jsonl", "docs", inputs=inputs)


def _conv_id_of(doc, line: str) -> str:
    # a top-level JSON-LD document may be an array (or, degenerately,
    # a scalar) — those have no @id and take the fingerprint fallback
    node_id = doc.get("@id") if isinstance(doc, dict) else None
    if isinstance(node_id, str) and node_id.startswith(CONV_ID_NS):
        return node_id[len(CONV_ID_NS):]
    return "doc-" + hashlib.sha1(line.encode("utf-8")).hexdigest()[:16]


def _scan_lines(lines):
    """Raw lines → (conv_id, parsed doc, line) triples; blank lines
    dropped. ONE json.loads per line — every consumer derives both
    identity and content from the same parse."""
    for line in lines:
        if line is None or not line.strip():
            continue
        doc = json.loads(line)
        yield _conv_id_of(doc, line), doc, line


def _read_lines(paths, file_extensions):
    import ray.data as rd

    return rd.read_text(
        paths,
        file_extensions=(list(file_extensions)
                         if file_extensions is not None else None))


def read_docs_jsonld_lines(paths, file_extensions=("jsonl", "ndjson",
                                                   "json")):
    """Files of raw JSON-LD lines → (conv_id, doc_json) Dataset (the
    ToRdf stage's input schema). By default the conventional
    newline-JSON extensions are read and everything else — in
    particular an orphaned ``.tmp`` shard from a crashed write task —
    is skipped; pass ``file_extensions=None`` to ingest arbitrary
    file names (only safe for inputs this engine did not write)."""
    def to_rows(batch: pa.Table) -> pa.Table:
        ids, docs = [], []
        for cid, _doc, line in _scan_lines(batch["text"].to_pylist()):
            ids.append(cid)
            docs.append(line)
        return pa.table({
            "conv_id": pa.array(ids, pa.string()),
            "doc_json": pa.array(docs, pa.large_string()),
        })

    # batch_size 256 mirrors the ToRdf stage: Ray sizes fused map TASKS
    # by the requested batch rows, and a large value here would bundle
    # a whole shard's lines into one task (measured 7x wall on the
    # flagship jsonl pipeline — parallelism collapse, not parse cost)
    return _read_lines(paths, file_extensions).map_batches(
        to_rows, batch_format="pyarrow", batch_size=256)


def build_quads_from_jsonld_lines(paths, batch_size: int = 256,
                                  skip_errors: bool = False,
                                  file_extensions=("jsonl", "ndjson",
                                                   "json")):
    """JSON-LD line shards → canonical quad Dataset — the flagship
    toRDF pipeline over the reference's native document format
    instead of the events parquet.

    FUSED single-parse path: one map_batches does line→doc parse,
    conv_id derivation AND ToRdf, so each document's JSON is parsed
    once (the unfused read_docs→to_rdf chain parses twice and, worse,
    bundles per the reader's batch size — see read_docs_jsonld_lines).
    A malformed JSON line raises regardless of ``skip_errors`` (parity
    with the unfused reader, where the identity parse precedes the
    ToRdf try-block); ``skip_errors`` quarantines JSON-LD-level
    failures exactly as in the KG pipeline's ToRdf."""
    from ..stages.to_rdf_stage import rows_from_parsed_task_fn

    def fused(batch: pa.Table, _s=skip_errors) -> pa.Table:
        return rows_from_parsed_task_fn(
            [(cid, doc) for cid, doc, _line
             in _scan_lines(batch["text"].to_pylist())], skip_errors=_s)

    return _read_lines(paths, file_extensions).map_batches(
        fused, batch_format="pyarrow", batch_size=batch_size)

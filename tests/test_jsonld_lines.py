"""Newline-delimited JSON-LD connector: write→read round trip,
identity derivation, and the single-line guard."""

import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from jsonld_js_ray.sources.jsonld_lines import (
    _conv_id_of,
    build_quads_from_jsonld_lines,
    docs_to_lines,
    read_docs_jsonld_lines,
    write_docs_jsonld_lines,
)
from jsonld_js_ray.stages.assemble import CONV_ID_NS

SF_DIR = "/root/testdata/sf0.001"
OUT = "/tmp/test_jsonld_lines"


@pytest.fixture(scope="module")
def roundtrip(ray_session):
    from jsonld_js_ray.pipelines.kg import assemble_docs

    shutil.rmtree(OUT, ignore_errors=True)
    docs = assemble_docs(SF_DIR).materialize()
    manifest = write_docs_jsonld_lines(docs, OUT)
    return docs, manifest


def test_write_manifest_counts(roundtrip):
    docs, manifest = roundtrip
    assert pc.sum(manifest["docs"]).as_py() == docs.count()
    for p in manifest["path"].to_pylist():
        assert os.path.exists(p) and p.endswith(".jsonl")
    # no stray tmp files left behind
    assert not [f for f in os.listdir(OUT) if f.endswith(".tmp")]


def test_lines_are_plain_jsonld(roundtrip):
    _, manifest = roundtrip
    with open(manifest["path"][0].as_py(), encoding="utf-8") as f:
        line = f.readline().rstrip("\n")
    doc = json.loads(line)
    # a PLAIN document — context + node, no envelope keys
    assert "@context" in doc and doc["@id"].startswith(CONV_ID_NS)


def test_read_recovers_documents_exactly(roundtrip):
    docs, _ = roundtrip
    back = read_docs_jsonld_lines(OUT).to_pandas()
    orig = docs.to_pandas()
    assert sorted(back["conv_id"]) == sorted(orig["conv_id"])
    by_id = dict(zip(back["conv_id"], back["doc_json"]))
    for cid, dj in zip(orig["conv_id"], orig["doc_json"]):
        assert json.loads(by_id[cid]) == json.loads(dj)


def test_quads_match_parquet_path(roundtrip, ray_session):
    from jsonld_js_ray.pipelines.kg import build_quads

    via_jsonl = build_quads_from_jsonld_lines(OUT).to_pandas()
    via_parquet = build_quads(SF_DIR).to_pandas()
    cols = sorted(via_jsonl.columns)
    assert cols == sorted(via_parquet.columns)
    a = via_jsonl[cols].sort_values(cols).reset_index(drop=True)
    b = via_parquet[cols].sort_values(cols).reset_index(drop=True)
    assert a.equals(b)


def test_foreign_doc_fallback_id():
    doc = {"@context": {"name": "http://schema.org/name"},
           "@id": "http://other.example/x", "name": "a"}
    line = json.dumps(doc)
    cid = _conv_id_of(doc, line)
    assert cid.startswith("doc-") and len(cid) == 20
    # deterministic
    assert cid == _conv_id_of(doc, line)


def test_top_level_array_line(ray_session, tmp_path):
    # a standard JSON-LD document whose top level is an ARRAY (or a
    # scalar) has no @id: the reader must take the sha1 fallback, not
    # crash the read task on doc.get
    arr_doc = [{"@id": "http://e/x", "http://e/p": [{"@value": "v"}]}]
    line = json.dumps(arr_doc, separators=(",", ":"))
    p = tmp_path / "part-000000-0000.jsonl"
    p.write_text(line + "\n" + json.dumps({"@id": "http://e/y"}) + "\n")
    out = read_docs_jsonld_lines(str(tmp_path)).to_pandas() \
        .sort_values("conv_id").reset_index(drop=True)
    assert len(out) == 2
    fallback = [c for c in out["conv_id"] if c.startswith("doc-")]
    assert len(fallback) == 2 and all(len(c) == 20 for c in fallback)
    # deterministic: same line → same id
    assert _conv_id_of(arr_doc, line) == _conv_id_of(arr_doc, line)
    assert _conv_id_of("scalar", '"scalar"').startswith("doc-")


def test_multiline_doc_json_guard():
    # a foreign doc_json value with a literal newline must still land
    # on one physical line
    raw = "{\n  \"@id\": \"http://e/x\"\n}"
    out = docs_to_lines(pa.table({"doc_json": pa.array([raw])}))
    line = out["line"][0].as_py()
    assert "\n" not in line and json.loads(line) == json.loads(raw)


def _sf_quads() -> pa.Table:
    """The sf0.001 quad table in block order. Empty blocks are left out:
    the sort can hand ``_quads_block`` an empty block, which comes back
    as a table without columns that ``concat_tables`` rejects."""
    import ray

    from jsonld_js_ray.pipelines.kg import build_quads

    return pa.concat_tables([t for t in ray.get(
        build_quads(SF_DIR).to_arrow_refs()) if t.num_rows])


def test_nq_serialize_vectorized_matches_rows(roundtrip, ray_session):
    """The Arrow N-Quads serializer must be byte-equal to the per-quad
    term codec on the real quad table (incl. literals with datatypes,
    langs, bnodes, named graphs)."""
    from jsonld_js_ray.sources.nquads_io import (
        serialize_batch,
        serialize_batch_rows,
    )

    full = _sf_quads()
    fast = serialize_batch(full)["line"].to_pylist()
    slow = serialize_batch_rows(full)["line"].to_pylist()
    assert fast == slow and len(fast) == full.num_rows


def test_nq_serialize_vectorized_escapes():
    import pyarrow as _pa

    from jsonld_js_ray.sources.nquads_io import (
        serialize_batch,
        serialize_batch_rows,
    )

    t = _pa.table({
        "subj": ["_:b0", "http://e/s", "http://e/s"],
        "pred": ["http://e/p"] * 3,
        "obj_kind": ["literal", "literal", "literal"],
        "obj_value": ['he said "hi"\\\n', "x", "plain"],
        "obj_datatype": [None, "http://www.w3.org/2001/XMLSchema#string",
                         "http://e/dt"],
        "obj_lang": [None, None, None],
        "graph": ["@default", "_:g0", "http://e/g"],
    })
    assert serialize_batch(t)["line"].to_pylist() == \
        serialize_batch_rows(t)["line"].to_pylist()


def _parse(lines):
    from jsonld_js_ray.sources.nquads_io import parse_batch

    t = pa.table({"text": pa.array(lines, pa.string())})
    return parse_batch(t).to_pandas()


def test_nq_parse_edges():
    lines = [
        '<http://e/s> <http://e/p> "" .',            # empty literal
        '<> <http://e/p> <> .',                       # empty IRIs
        '# a comment',
        '   ',
        '<http://e/s> <http://e/p> "x"@en-US <http://e/g> .',
        '_:b0 <http://e/p> _:b1 _:g2 .',
        '<http://e/s> <http://e/p> "y"^^<http://e/dt> .',
        '<http://e/s> <http://e/p> "y"^^<http://e/dt> .',  # dup quad
        '\t<http://e/s>\t<http://e/p>\t"z" . ',       # tabs / spacing
    ]
    a = _parse(lines)
    assert len(a) == 6
    assert a.iloc[1].to_dict() == {
        "subj": "", "pred": "http://e/p", "obj_kind": "iri",
        "obj_value": "", "obj_datatype": None, "obj_lang": None,
        "graph": "@default"}
    assert a.iloc[2].to_dict() == {
        "subj": "http://e/s", "pred": "http://e/p", "obj_kind": "literal",
        "obj_value": "x",
        "obj_datatype": "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString",
        "obj_lang": "en-US", "graph": "http://e/g"}
    assert a.iloc[3].to_dict() == {
        "subj": "_:b0", "pred": "http://e/p", "obj_kind": "bnode",
        "obj_value": "_:b1", "obj_datatype": None, "obj_lang": None,
        "graph": "_:g2"}


def test_nq_parse_escape_and_comment_fall_back():
    # backslash escapes and a trailing comment on a quad line
    lines = [
        '<http://e/s> <http://e/p> "a\\nb\\"c" .',
        '<http://e/s2> <http://e/p> "plain" . # trailing',
    ]
    a = _parse(lines)
    assert len(a) == 2
    assert a["obj_value"].iloc[0] == 'a\nb"c'


def test_nq_parse_literal_escapes():
    lines = ['<http://e/s> <http://e/p> "caf\\u00e9 \\U0001F600\\tend" .']
    assert list(_parse(lines)["obj_value"]) == ["caf\u00e9 \U0001F600\tend"]


def test_nq_parse_backslash_in_iri_names_its_line():
    from jsonld_js_ray.core.errors import JsonLdError

    lines = ['<http://e/s> <http://e/p> "ok" .',
             '# a comment',
             '<http://e/s\\u0041> <http://e/p> "x" .']
    with pytest.raises(JsonLdError) as ei:
        _parse(lines)
    assert "line 3" in str(ei.value)


def _dir_bytes(d):
    return {f: open(os.path.join(d, f), "rb").read()
            for f in os.listdir(d) if f.endswith(".jsonl")}


def test_line_sink_lineage_resume(roundtrip, ray_session, tmp_path):
    """The lineio lineage contract: same-input re-run SKIPS the write;
    a write killed mid-run (manifest gone, parts torn) re-runs to
    byte-identical shards with no dup/stale/tmp parts; an input
    change rewrites."""
    from jsonld_js_ray.sources.lineio import read_write_manifest

    docs, _ = roundtrip
    d = str(tmp_path / "out")
    src = tmp_path / "src.txt"
    src.write_text("source-rev-1")
    inputs = [str(src)]

    m1 = write_docs_jsonld_lines(docs, d, inputs=inputs)
    bytes1 = _dir_bytes(d)
    rec = read_write_manifest(d)
    assert rec is not None and len(rec["parts"]) == len(m1)
    assert rec["rows"] == pc.sum(m1["docs"]).as_py()
    mtimes1 = {f: os.stat(os.path.join(d, f)).st_mtime_ns
               for f in bytes1}

    # 1. same inputs, intact parts → the write is skipped entirely
    m2 = write_docs_jsonld_lines(docs, d, inputs=inputs)
    assert sorted(m2["path"].to_pylist()) == sorted(m1["path"].to_pylist())
    assert {f: os.stat(os.path.join(d, f)).st_mtime_ns
            for f in bytes1} == mtimes1          # untouched

    # 2. kill mid-write: the manifest is deleted FIRST (on_write_start
    # order), so the torn state is parts-without-manifest + a stray tmp
    some_part = next(iter(bytes1))
    os.remove(os.path.join(d, "_manifest", "write.manifest"))
    os.remove(os.path.join(d, some_part))
    with open(os.path.join(d, some_part + ".999.tmp"), "w") as f:
        f.write("torn")
    m3 = write_docs_jsonld_lines(docs, d, inputs=inputs)
    assert _dir_bytes(d) == bytes1               # byte-identical
    assert not [f for f in os.listdir(d) if f.endswith(".tmp")]
    assert len(m3) == len(m1)

    # 3. input fingerprint change → full rewrite (manifest refreshed)
    src.write_text("source-rev-2-with-different-size")
    write_docs_jsonld_lines(docs, d, inputs=inputs)
    rec3 = read_write_manifest(d)
    assert rec3["input_fingerprint"] != rec["input_fingerprint"]
    assert _dir_bytes(d) == bytes1               # same content either way

    # 4. a torn part at its recorded SIZE but newer fingerprint logic:
    # intactness is size-based, so same-size corruption within a part
    # is out of scope (documented); missing/short parts are caught
    os.truncate(os.path.join(d, some_part), 1)
    m5 = write_docs_jsonld_lines(docs, d, inputs=inputs)
    assert _dir_bytes(d) == bytes1
    assert len(m5) == len(m1)


def test_fused_reader_error_semantics(ray_session, tmp_path):
    # malformed JSON raises regardless of skip_errors (identity parse
    # precedes the ToRdf try-block, as in the unfused reader); a
    # JSON-LD-level failure is quarantined under skip_errors=True
    bad_jsonld = json.dumps({"@id": "http://e/x", "@context": 5})
    good = json.dumps({"@id": "http://e/y",
                       "http://e/p": [{"@value": "v"}]})
    p = tmp_path / "part-000000-0000.jsonl"
    p.write_text(good + "\n" + bad_jsonld + "\n")
    out = build_quads_from_jsonld_lines(
        str(tmp_path), skip_errors=True).to_pandas()
    assert set(out["subj"]) == {"http://e/y"}
    with pytest.raises(Exception):
        build_quads_from_jsonld_lines(
            str(tmp_path), skip_errors=False).to_pandas()
    p.write_text(good + "\n" + "{not json\n")
    with pytest.raises(Exception):
        build_quads_from_jsonld_lines(
            str(tmp_path), skip_errors=True).to_pandas()


def test_nq_parse_escaped_error_reports_real_line():
    # a malformed escaped line: the error carries its position in the
    # batch, not "line 1"
    from jsonld_js_ray.core.errors import JsonLdError
    from jsonld_js_ray.sources.nquads_io import parse_batch

    lines = ['<http://e/s> <http://e/p> "ok" .',
             '<http://e/s> <http://e/p> "a\\" junk']
    with pytest.raises(JsonLdError) as ei:
        parse_batch(pa.table({"text": pa.array(lines)}))
    assert "line 2" in str(ei.value)


def test_line_sink_clears_orphan_tmp(tmp_path):
    # a .tmp orphan from a task killed mid-write must be removed by the
    # next write into the same directory, not accrete forever
    from jsonld_js_ray.sources.lineio import _LineShardDatasink

    d = str(tmp_path)
    orphan = os.path.join(d, "part-000099-0000.jsonl.1234.tmp")
    stale = os.path.join(d, "part-000001-0000.jsonl")
    for p in (orphan, stale):
        with open(p, "w") as f:
            f.write("old")
    sink = _LineShardDatasink(d, "jsonl")
    sink.on_write_start()
    assert not os.path.exists(orphan) and not os.path.exists(stale)


def test_nq_corpus_round_trip(roundtrip, ray_session):
    from jsonld_js_ray.sources.nquads_io import parse_batch, serialize_batch

    full = _sf_quads()
    lines = serialize_batch(full).rename_columns(["text"])
    back = parse_batch(lines)
    wire = full.drop_columns(["conv_id"])
    assert back.num_rows == full.num_rows
    assert back.equals(wire)


def test_nq_parse_sparse_escape_splice():
    # keep-first dedup over escaped and plain lines follows the
    # original line order
    lines = [
        '<http://e/s> <http://e/p> "first" .',
        '<http://e/s> <http://e/p> "with \\"quote\\"" .',   # escaped
        '<http://e/s> <http://e/p> "second" .',
        '<http://e/s> <http://e/p> "with \\"quote\\"" .',   # dup escaped
        '<http://e/s> <http://e/p> "first" .',              # dup plain
    ]
    a = _parse(lines)
    assert len(a) == 3
    assert list(a["obj_value"]) == ['first', 'with "quote"', 'second']

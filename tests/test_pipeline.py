"""End-to-end Ray pipeline tests at sf0.001 + synthetic transcripts.

Includes the north-star per-row invariant: per-turn text equality under
stable turn ordering (BASELINE.json input_hint), verified by joining the
emitted conv:text quads back to the derived transcript rows on the turn
IRI.
"""

from __future__ import annotations

import glob
import json
import os
from collections import Counter

import pyarrow as pa
import pytest

from jsonld_js_ray.stages.assemble import (
    CONV_ID_NS, CONV_VOCAB, assemble_conversation, turn_iri,
)
from jsonld_js_ray.stages.to_rdf_stage import ToRdfActor


@pytest.fixture(scope="module")
def quads_df(ray_session, sf_dir):
    from jsonld_js_ray.pipelines.kg import build_quads

    return build_quads(sf_dir).to_pandas()


@pytest.fixture(scope="module")
def transcripts_df(ray_session, sf_dir):
    from jsonld_js_ray.sources.transcripts import read_transcripts

    return read_transcripts(sf_dir).to_pandas()


def test_quads_match_duckdb_oracle(quads_df, sf_dir):
    import duckdb

    from jsonld_js_ray.pipelines.oracle import KG_QUADS_ORACLE_SQL

    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM "
            f"'{sf_dir}/events.parquet'")
    oracle = con.sql(KG_QUADS_ORACLE_SQL).df()
    cols = sorted(quads_df.columns)
    assert sorted(oracle.columns) == cols
    a = quads_df[cols].sort_values(cols).reset_index(drop=True)
    b = oracle[cols].sort_values(cols).reset_index(drop=True)
    assert len(a) == len(b)
    assert a.equals(b.astype(a.dtypes.to_dict()))


def test_per_turn_text_equality_under_stable_ordering(
        quads_df, transcripts_df):
    """North-star invariant: every turn's text survives the doc-assembly →
    expansion → toRDF path byte-for-byte, addressable by its stable
    (conv_id, turn_idx) ordering."""
    text_quads = quads_df[quads_df["pred"] == CONV_VOCAB + "text"]
    emitted = dict(zip(text_quads["subj"], text_quads["obj_value"]))
    assert len(transcripts_df) == len(text_quads)
    for row in transcripts_df.itertuples():
        iri = turn_iri(row.conv_id, row.turn_idx)
        assert emitted[iri] == row.text
    # stable ordering: position literals equal turn_idx parsed from IRI
    pos = quads_df[quads_df["pred"] == CONV_VOCAB + "position"]
    for subj, val in zip(pos["subj"], pos["obj_value"]):
        assert subj.rsplit("/t/", 1)[1] == val


def test_turn_ordering_is_dense_and_sorted(transcripts_df):
    for _, g in transcripts_df.groupby("conv_id"):
        idx = sorted(g["turn_idx"])
        assert idx == list(range(len(idx)))
        # ts non-decreasing along turn order
        ordered = g.sort_values("turn_idx")["ts"].tolist()
        assert ordered == sorted(ordered)


def test_quad_and_transcript_tables_match_their_schemas(ray_session,
                                                        sf_dir):
    """Every non-empty block of the flagship's quads and of the derived
    transcripts carries exactly the declared column types."""
    import ray

    from jsonld_js_ray.pipelines.kg import build_quads
    from jsonld_js_ray.sources.transcripts import (TRANSCRIPT_SCHEMA,
                                                   read_transcripts)
    from jsonld_js_ray.stages.to_rdf_stage import QUAD_SCHEMA

    for ds, schema in ((build_quads(sf_dir), QUAD_SCHEMA),
                       (read_transcripts(sf_dir), TRANSCRIPT_SCHEMA)):
        blocks = [b for b in ray.get(ds.materialize().to_arrow_refs())
                  if b.num_rows]
        assert blocks
        for b in blocks:
            assert b.schema.equals(schema), (b.schema, schema)


def test_resume_skips_completed_shards(ray_session, sf_dir, tmp_path):
    from jsonld_js_ray.pipelines.kg import run_kg_pipeline
    from jsonld_js_ray.state.checkpoint import read_manifest

    out = str(tmp_path / "kg-out")
    m1 = run_kg_pipeline(sf_dir, out)
    assert m1["shards_skipped"] == 0 and m1["quads"] > 0
    manifest = read_manifest(out)
    assert len(manifest) == m1["shards_total"]
    assert all(set(rec) == {"shard_id", "inputs", "input_fingerprint",
                            "rows", "quads", "wall_ms", "parts"}
               for rec in manifest)
    assert all(rec["quads"] > 0 and rec["input_fingerprint"]
               for rec in manifest)
    assert m1["quads"] == sum(rec["quads"] for rec in manifest)
    for rec in manifest:
        shard = os.path.join(out, f"shard={rec['shard_id']:05d}")
        assert rec["parts"]
        assert rec["quads"] == sum(rows for _n, rows, _b in rec["parts"])
        for name, _rows, nbytes in rec["parts"]:
            assert os.path.getsize(os.path.join(shard, name)) == nbytes
    m2 = run_kg_pipeline(sf_dir, out)
    assert m2["shards_skipped"] == m2["shards_total"]
    assert m2["quads"] == 0


QUAD_COLS = ["subj", "pred", "obj_kind", "obj_value", "obj_datatype",
             "obj_lang", "graph", "conv_id"]


def _quad_multiset(tables) -> Counter:
    got: Counter = Counter()
    for t in tables:
        got.update(zip(*(t[c].to_pylist() for c in QUAD_COLS)))
    return got


def _sink_multiset(out_dir: str) -> Counter:
    import pyarrow.parquet as pq

    return _quad_multiset(
        pq.read_table(f)
        for f in glob.glob(os.path.join(out_dir, "shard=*", "*.parquet")))


@pytest.fixture(scope="module")
def split_sf_dir(tmp_path_factory, sf_dir) -> str:
    """sf0.001's events cut into three files by row range, so some
    users' events span two files."""
    import pyarrow.parquet as pq

    events = pq.read_table(os.path.join(sf_dir, "events.parquet"))
    root = tmp_path_factory.mktemp("split")
    os.makedirs(root / "events")
    cuts = [0, events.num_rows // 3, 2 * events.num_rows // 3,
            events.num_rows]
    for i, (a, b) in enumerate(zip(cuts, cuts[1:])):
        pq.write_table(events.slice(a, b - a),
                       str(root / "events" / f"part-{i}.parquet"))
    return str(root)


@pytest.fixture(scope="module")
def split_expected(ray_session, split_sf_dir) -> Counter:
    """Union of the per-file flagship quads: what the sink must hold."""
    from jsonld_js_ray.pipelines.kg import _event_files, build_quads

    return _quad_multiset(
        pa.concat_tables(build_quads(split_sf_dir, files=[f]).iter_batches(
            batch_format="pyarrow", batch_size=None))
        for f in _event_files(split_sf_dir))


def test_user_split_over_files_yields_one_doc_per_file(
        ray_session, split_sf_dir, split_expected, tmp_path):
    """The sink groups on (shard, user_id): a user whose events span two
    files gets one document per file, both with the user's conv_id, and
    the output is the union of per-file runs quad for quad."""
    import pyarrow.parquet as pq

    from jsonld_js_ray.pipelines.kg import _event_files, run_kg_pipeline

    users = [set(pq.read_table(f, columns=["user_id"])["user_id"]
                 .to_pylist()) for f in _event_files(split_sf_dir)]
    assert users[0] & users[1]          # the fixture splits a user
    out = str(tmp_path / "split")
    m = run_kg_pipeline(split_sf_dir, out)
    assert m["shards_total"] == 3 and m["shards_skipped"] == 0
    got = _sink_multiset(out)
    assert got == split_expected and m["quads"] == sum(got.values())

    conv_parts = pq.read_table(
        glob.glob(os.path.join(out, "shard=*", "*.parquet")),
        columns=["pred", "conv_id", "part_id"]).to_pandas()
    docs = conv_parts[conv_parts["pred"] == CONV_VOCAB + "hasTurn"] \
        .groupby("conv_id")["part_id"].nunique()
    assert (docs > 1).any()             # one conv_id, one doc per file


def test_read_transcripts_over_split_files(ray_session, sf_dir,
                                           split_sf_dir):
    """The ``events/`` directory layout derives the same transcript rows
    as the one file: per ``TRANSCRIPTS_SQL``, a user whose events span
    two files is one conversation."""
    from jsonld_js_ray.sources.transcripts import read_transcripts

    def rows(d: str) -> Counter:
        return Counter(tuple(sorted(r.items()))
                       for r in read_transcripts(d).take_all())

    whole = rows(sf_dir)
    assert rows(split_sf_dir) == whole and sum(whole.values()) > 0


def test_lost_part_redoes_exactly_its_shard(
        ray_session, split_sf_dir, split_expected, tmp_path):
    """A done shard whose part file was deleted is rewritten on the next
    run; the other shards are skipped."""
    from jsonld_js_ray.pipelines.kg import run_kg_pipeline
    from jsonld_js_ray.state import checkpoint as ckpt

    out = str(tmp_path / "lost")
    run_kg_pipeline(split_sf_dir, out)
    shard = ckpt.shard_data_dir(out, 1)
    os.remove(os.path.join(shard, sorted(os.listdir(shard))[0]))
    lost = sum(rec["quads"] for rec in ckpt.read_manifest(out)
               if rec["shard_id"] == 1)
    m = run_kg_pipeline(split_sf_dir, out)
    assert m["shards_skipped"] == 2 and m["quads"] == lost
    assert _sink_multiset(out) == split_expected


def test_crash_between_shard_commits_resumes_the_rest(
        ray_session, split_sf_dir, split_expected, tmp_path, monkeypatch):
    """The commit of the second pending shard fails: the rerun skips the
    committed shard, writes only the others, and leaves no temp dir."""
    from jsonld_js_ray.pipelines.kg import run_kg_pipeline
    from jsonld_js_ray.state import checkpoint as ckpt

    out = str(tmp_path / "crash")
    commit = ckpt.write_shard_atomic
    calls = []

    def flaky(out_dir, shard_id, write_fn, record):
        calls.append(shard_id)
        if len(calls) == 2:
            raise RuntimeError("killed between commits")
        return commit(out_dir, shard_id, write_fn, record)

    monkeypatch.setattr(ckpt, "write_shard_atomic", flaky)
    with pytest.raises(RuntimeError, match="between commits"):
        run_kg_pipeline(split_sf_dir, out)
    monkeypatch.setattr(ckpt, "write_shard_atomic", commit)
    assert [r["shard_id"] for r in ckpt.read_manifest(out)] == [calls[0]]
    # a hard-killed run's temp dir is cleared by the next run
    os.makedirs(os.path.join(out, ".tmp-run-0-0", "shard=00002"))

    m = run_kg_pipeline(split_sf_dir, out)
    assert m["shards_skipped"] == 1
    assert len(ckpt.read_manifest(out)) == 3
    assert _sink_multiset(out) == split_expected
    assert m["quads"] == sum(split_expected.values()) - \
        ckpt.read_manifest(out)[calls[0]]["quads"]
    assert not glob.glob(os.path.join(out, "**", ".tmp-*"),
                         recursive=True)


def test_bnode_labels_conv_scoped_and_canonical():
    """Docs with blank nodes get URDNA2015 labels namespaced per conv —
    globally unique, deterministic, order-insensitive."""
    actor = ToRdfActor()
    doc = {"@context": {"ex": "http://e/"},
           "@id": "http://e/s",
           "ex:p": [{"ex:name": "A"}, {"ex:name": "B"}]}
    q1 = actor.doc_to_quads(doc, "conv-1")
    q2 = actor.doc_to_quads(doc, "conv-2")
    labels1 = {t[1] for q in q1 for t in q if t[0] == "BlankNode"}
    labels2 = {t[1] for q in q2 for t in q if t[0] == "BlankNode"}
    assert labels1 and labels2 and not (labels1 & labels2)
    assert all("-c14n" in l for l in labels1 | labels2)
    # canonical: same labels regardless of sibling order in the input
    doc_rev = dict(doc)
    doc_rev["ex:p"] = list(reversed(doc["ex:p"]))
    assert sorted(actor.doc_to_quads(doc_rev, "conv-1")) == sorted(q1)


def test_assemble_conversation_doc_shape():
    doc = assemble_conversation("c1", [
        {"turn_idx": 0, "role": "user", "text": "hi", "tool": None,
         "ts": "2024-01-01T00:00:00.000000"},
        {"turn_idx": 1, "role": "assistant", "text": "hello", "tool": "x",
         "ts": "2024-01-01T00:01:00.000000"},
    ], {1: ["https://w3id.org/conv/entity/hello"]})
    assert doc["@id"] == CONV_ID_NS + "c1"
    assert doc["turnCount"] == 2
    assert "tool" not in doc["hasTurn"][0]
    assert doc["hasTurn"][1]["tool"] == "x"
    assert doc["hasTurn"][1]["mentions"] == [
        "https://w3id.org/conv/entity/hello"]
    # assembled doc is valid JSON-LD that round-trips through expansion
    import jsonld_js_ray as jl
    expanded = jl.expand(json.loads(json.dumps(doc)))
    assert expanded[0]["@type"] == [CONV_VOCAB + "Conversation"]


def test_mention_detector_kernel():
    """The Arrow mention kernel, without Ray: null text yields nothing,
    2-letter tokens drop, case folds, any non-ASCII character splits a
    token, and long surfaces cap the link score at 1.0."""
    from jsonld_js_ray.stages.assemble import ENTITY_NS
    from jsonld_js_ray.stages.linker import mention_rows

    tbl = pa.table({
        "conv_id": pa.array(["c1", "c1", "c2"], pa.string()),
        "turn_idx": pa.array([0, 1, 0], pa.int32()),
        "text": pa.array([
            None,
            "Go to BeRLin",
            "ok—Zürich·ANTIDISESTABLISHMENTARIANISM",
        ], pa.string()),
    })
    out = mention_rows(tbl).to_pydict()
    surfaces = ["berlin", "rich", "antidisestablishmentarianism"]
    assert out["surface"] == surfaces
    assert out["conv_id"] == ["c1", "c2", "c2"]
    assert out["turn_idx"] == [1, 0, 0]
    assert out["score"] == [round(min(1.0, 0.5 + len(s) / 20), 3)
                            for s in surfaces]
    assert out["score"][-1] == 1.0
    assert out["entity_iri"] == [ENTITY_NS + s for s in surfaces]


def test_mentions_and_entity_canonicalization(ray_session):
    import ray.data as rd

    from jsonld_js_ray.stages.entity_merge import (
        build_canonical_mapping, canonicalize_entities, jaccard,
        surface_stats,
    )
    from jsonld_js_ray.stages.linker import detect_mentions

    tbl = pa.table({
        "conv_id": pa.array(["c1", "c1", "c2"], pa.string()),
        "turn_idx": pa.array([0, 1, 0], pa.int32()),
        "text": pa.array(["Click the click button", "errors happened",
                          "error in clicks"], pa.large_string()),
    })
    mentions = detect_mentions(rd.from_arrow(tbl))
    out = canonicalize_entities(mentions).to_pandas()
    by_surface = dict(zip(out["surface"], out["canonical"]))
    # near-dup merge: plural folds onto singular (3-gram jaccard >= 0.6)
    assert jaccard("click", "clicks") >= 0.6
    assert by_surface["clicks"] == "click"
    assert by_surface["errors"] == "error"
    assert by_surface["click"] == "click"
    # counts survived the salted two-phase aggregation
    assert int(out[out["surface"] == "click"]["n_mentions"].iloc[0]) == 2
    # the broadcast mapping the pipeline links against agrees
    m = build_canonical_mapping(surface_stats(mentions))
    assert m == {s: by_surface[s] for s in m}


def test_mention_quads_match_oracle(ray_session, sf_dir):
    import duckdb

    from jsonld_js_ray.pipelines.kg import build_quads
    from jsonld_js_ray.pipelines.oracle import (
        KG_QUADS_WITH_MENTIONS_ORACLE_SQL,
    )

    mine = build_quads(sf_dir, entity_mapping={}).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM "
            f"'{sf_dir}/events.parquet'")
    oracle = con.sql(KG_QUADS_WITH_MENTIONS_ORACLE_SQL).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = oracle[cols].sort_values(cols).reset_index(drop=True)
    assert len(a) == len(b)
    assert a.equals(b.astype(a.dtypes.to_dict()))


def test_synthetic_transcripts_deterministic():
    from jsonld_js_ray.sources.transcripts import synthesize_transcripts

    t1 = synthesize_transcripts(n_convs=5, seed=3)
    t2 = synthesize_transcripts(n_convs=5, seed=3)
    assert t1.equals(t2)
    assert t1.schema.field("turn_idx").type == pa.int32()


def test_roundtrip_quads_equal_flagship(ray_session, sf_dir):
    from jsonld_js_ray.pipelines.kg import build_quads, roundtrip_quads

    cols = ["subj", "pred", "obj_kind", "obj_value", "obj_datatype",
            "obj_lang", "graph", "conv_id"]
    a = build_quads(sf_dir).to_pandas()[cols].sort_values(cols) \
        .reset_index(drop=True)
    b = roundtrip_quads(sf_dir).to_pandas()[cols].sort_values(cols) \
        .reset_index(drop=True)
    assert a.equals(b)


def test_nquads_io_roundtrip(ray_session, sf_dir, tmp_path):
    import pyarrow.compute as pc

    from jsonld_js_ray.pipelines.kg import build_quads
    from jsonld_js_ray.sources.nquads_io import read_nquads, write_nquads

    out = str(tmp_path / "nq")
    res = write_nquads(build_quads(sf_dir), out)   # eager; returns manifest
    assert pc.sum(res["rows"]).as_py() == 8030
    back = read_nquads(out).to_pandas()
    assert len(back) == 8030
    orig = build_quads(sf_dir).to_pandas()
    cols = ["subj", "pred", "obj_kind", "obj_value", "graph"]
    a = orig[cols].sort_values(cols).reset_index(drop=True)
    b = back[cols].sort_values(cols).reset_index(drop=True)
    assert a.equals(b)


def test_salted_aggregation_correct_under_hot_key(ray_session):
    """Skew test (SURVEY.md §7.4.5): one surface form covering ~90% of a
    large mention stream must aggregate exactly through the salted
    two-phase path (no reducer sees the hot key's full stream)."""
    import pyarrow as pa
    import ray.data as rd

    from jsonld_js_ray.stages.entity_merge import surface_stats

    n_hot, n_cold = 90_000, 10_000
    tbl = pa.table({
        "conv_id": pa.array([f"c{i % 997}" for i in range(n_hot + n_cold)],
                            pa.string()),
        "surface": pa.array(["hotkey"] * n_hot
                            + [f"cold{i % 50}" for i in range(n_cold)],
                            pa.string()),
    })
    out = surface_stats(rd.from_arrow(tbl)).to_pandas()
    by_surface = dict(zip(out["surface"], out["n_mentions"]))
    assert by_surface["hotkey"] == n_hot
    assert sum(by_surface.values()) == n_hot + n_cold
    assert len(by_surface) == 51


def test_bucket_cap_strict_raises_lenient_truncates():
    """Hot-bucket cap policy (Ray-free): one LSH bucket past
    MAX_BUCKET_MEMBERS must RAISE under strict caps (the planted oracle
    must never pass while under-merging) and otherwise warn and verify
    only the first MAX_BUCKET_MEMBERS sorted surfaces."""
    import pandas as pd

    from jsonld_js_ray.stages.entity_merge import (
        MAX_BUCKET_MEMBERS, _bucket_edges, jaccard,
    )

    # "surface000", "surface001", ...: neighbours share 7 of 9 trigrams
    surfaces = [f"surface{i:03d}" for i in range(MAX_BUCKET_MEMBERS + 1)]
    g = pd.DataFrame({"surface": surfaces[::-1]})
    with pytest.raises(RuntimeError, match="strict_caps"):
        _bucket_edges(g, 0.6, strict=True)

    with pytest.warns(UserWarning, match="verification cap"):
        out = _bucket_edges(g, 0.6, strict=False)
    kept = sorted(surfaces)[:MAX_BUCKET_MEMBERS]
    expected = {(a, b) for a in kept for b in kept
                if a != b and jaccard(a, b) >= 0.6}
    got = set(zip(out["src"].to_pylist(), out["dst"].to_pylist()))
    assert got == expected and len(got) > 0
    # the dropped surface would have merged, so truncation is visible
    assert jaccard(surfaces[-1], surfaces[-2]) >= 0.6
    assert surfaces[-1] not in {s for pair in got for s in pair}


def test_canonical_mapping_flows_into_mention_iris(ray_session, sf_dir):
    """End-to-end entity canonicalization: the min-hash mapping broadcast
    into the fused assemble stage rewrites mention IRIs."""
    from jsonld_js_ray.pipelines.kg import build_quads
    from jsonld_js_ray.stages.assemble import CONV_VOCAB, ENTITY_NS

    mapping = {"click": "CANON", "error": "CANON"}
    quads = build_quads(
        sf_dir, entity_mapping=mapping).to_pandas()
    mentions = quads[quads["pred"] == CONV_VOCAB + "mentions"]
    objs = set(mentions["obj_value"])
    assert ENTITY_NS + "CANON" in objs
    assert ENTITY_NS + "click" not in objs
    assert ENTITY_NS + "error" not in objs


def test_full_pipeline_with_entity_canonicalization(
        ray_session, sf_dir, tmp_path):
    """North-star end-to-end: min-hash entity mapping (phase 1, itself
    checkpointed) → mention-linked canonical quads → sharded sink →
    resume skips everything."""
    import json
    import os

    from jsonld_js_ray.pipelines.kg import run_full_kg_pipeline
    from jsonld_js_ray.stages.assemble import CONV_VOCAB

    out = str(tmp_path / "full")
    m1 = run_full_kg_pipeline(sf_dir, out)
    assert m1["quads"] > 8030          # flagship + mention triples
    assert m1["entities"] >= m1["canonical_entities"] > 0
    assert os.path.exists(os.path.join(out, "_entity_mapping.json"))
    with open(os.path.join(out, "_entity_mapping.json")) as f:
        rec = json.load(f)
    assert rec["mapping"]
    # all mention IRIs in the output use canonical surfaces
    import pyarrow.parquet as pq
    import glob as _glob
    files = _glob.glob(os.path.join(out, "shard=*", "*.parquet"))
    assert files
    tbl = pq.read_table(files[0])
    df = tbl.to_pandas()
    mentions = df[df["pred"] == CONV_VOCAB + "mentions"]["obj_value"]
    canon = set(rec["mapping"].values())
    for iri in mentions:
        assert iri.rsplit("/", 1)[1] in canon

    m2 = run_full_kg_pipeline(sf_dir, out)
    assert m2["shards_skipped"] == m2["shards_total"]
    assert m2["quads"] == 0


def test_mention_quads_are_flagship_plus_mentions(quads_df, sf_dir):
    """Entity linking only adds ``mentions`` triples: with an empty
    mapping, dropping them leaves exactly the flagship quads (as a
    multiset)."""
    from jsonld_js_ray.pipelines.kg import build_quads

    linked = build_quads(sf_dir, entity_mapping={}).to_pandas()
    is_mention = linked["pred"] == CONV_VOCAB + "mentions"
    assert is_mention.any()
    cols = sorted(quads_df.columns)
    a = linked[~is_mention][cols].sort_values(cols).reset_index(drop=True)
    b = quads_df[cols].sort_values(cols).reset_index(drop=True)
    assert a.equals(b)


def _has_mention_quads(out_dir: str) -> bool:
    import glob
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    files = glob.glob(os.path.join(out_dir, "shard=*", "*.parquet"))
    assert files
    return any(pc.any(pc.equal(pq.read_table(f)["pred"],
                               CONV_VOCAB + "mentions")).as_py()
               for f in files)


def test_resume_never_mixes_flagship_and_mention_outputs(
        ray_session, sf_dir, tmp_path, monkeypatch):
    """One out_dir, flagship → full → flagship: each run rewrites every
    shard, because a shard written with mention quads must not satisfy
    a flagship resume (or the reverse)."""
    from jsonld_js_ray.pipelines import kg

    monkeypatch.setattr(kg, "build_entity_mapping",
                        lambda sf, threshold: {"click": "CANON"})
    out = str(tmp_path / "mixed")
    for run, linked in ((kg.run_kg_pipeline, False),
                        (kg.run_full_kg_pipeline, True),
                        (kg.run_kg_pipeline, False)):
        m = run(sf_dir, out)
        assert m["shards_skipped"] == 0 and m["quads"] > 0
        assert _has_mention_quads(out) == linked


def test_changed_threshold_recomputes_entity_mapping(
        ray_session, sf_dir, tmp_path, monkeypatch):
    import os

    from jsonld_js_ray.pipelines import kg

    calls = []

    def fake_mapping(sf, threshold):
        calls.append(threshold)
        return {"click": f"canon{threshold}"}

    monkeypatch.setattr(kg, "build_entity_mapping", fake_mapping)
    out = str(tmp_path / "thr")
    kg.run_full_kg_pipeline(sf_dir, out, threshold=0.6)
    m = kg.run_full_kg_pipeline(sf_dir, out, threshold=0.6)
    assert calls == [0.6] and m["shards_skipped"] == m["shards_total"]
    m = kg.run_full_kg_pipeline(sf_dir, out, threshold=0.9)
    assert calls == [0.6, 0.9]
    assert m["shards_skipped"] == 0        # new mapping → new quads
    with open(os.path.join(out, "_entity_mapping.json")) as f:
        rec = json.load(f)
    assert rec["threshold"] == 0.9
    assert rec["mapping"] == {"click": "canon0.9"}


def test_giant_conversation_chunking_same_triple_set():
    """SURVEY §7.4.6: chunked assembly of an over-cap conversation emits
    exactly the unchunked triple set (conv metadata once)."""
    import json

    from jsonld_js_ray.stages.assemble import conversation_docs
    from jsonld_js_ray.stages.to_rdf_stage import ToRdfActor

    turns = [{"turn_idx": i, "role": "user", "text": f"t{i}",
              "tool": None, "ts": "2024-01-01T00:00:00.000000"}
             for i in range(25)]
    actor = ToRdfActor()

    def quads_for(docs):
        out = set()
        for _n, doc in docs:
            out |= set(actor.doc_to_quads(json.loads(json.dumps(doc)),
                                          "c1"))
        return out

    whole = list(conversation_docs("c1", turns, max_turns_per_doc=10_000))
    chunked = list(conversation_docs("c1", turns, max_turns_per_doc=7))
    assert len(whole) == 1 and len(chunked) == 4
    assert [n for n, _doc in chunked] == [7, 7, 7, 4]
    assert quads_for(whole) == quads_for(chunked)
    # turnCount appears exactly once and carries the TOTAL
    docs = [doc for _n, doc in chunked]
    counts = [d.get("turnCount") for d in docs if "turnCount" in d]
    assert counts == [25]


def test_list_variant_flagship_bnode_chains(ray_session, sf_dir):
    """Bnode-heavy variant: turns as an rdf:List (@list container) —
    exercises cons-chain generation + URDNA2015 + conv namespacing on
    real corpus data, cross-checked against the reference per document."""
    import json

    import pytest as _pytest
    import reference_oracle

    from jsonld_js_ray.core import canonize as cz
    from jsonld_js_ray.pipelines.kg import assemble_docs
    from jsonld_js_ray.stages.to_rdf_stage import ToRdfActor

    doc_rows = assemble_docs(sf_dir).to_pandas().head(5)
    actor = ToRdfActor(namespace_bnodes=False)

    list_docs = []
    for doc_json in doc_rows["doc_json"]:
        doc = json.loads(doc_json)
        doc["@context"]["turnList"] = {"@id": "https://w3id.org/conv#turnList",
                                       "@container": "@list"}
        doc["turnList"] = [t["@id"] for t in doc["hasTurn"]]
        list_docs.append(doc)

    engine_sets = []
    for conv_id, doc in zip(doc_rows["conv_id"], list_docs):
        quads = actor.doc_to_quads(json.loads(json.dumps(doc)), conv_id)
        n_bnodes = len({t[1] for q in quads for t in q
                        if t and t[0] == "BlankNode"})
        assert n_bnodes == len(doc["turnList"])   # one cons cell per item
        engine_sets.append(set(cz.canonize(quads).split("\n")))

    if not reference_oracle.AVAILABLE:
        _pytest.skip(reference_oracle.SKIP_REASON)
    replies = reference_oracle.run(
        [{"op": "toRdf", "input": d} for d in list_docs], timeout=300)
    for i, rec in enumerate(replies):
        assert rec["ok"], rec
        ref_quads = reference_oracle.ref_quads(rec["result"])
        assert set(cz.canonize(ref_quads).split("\n")) == engine_sets[i]


def test_distributed_merge_matches_oracle(ray_session, sf_dir):
    import duckdb

    import __ray_entry__ as E

    mine = E.queries()["kg_merged_node_props"](sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM "
            f"'{sf_dir}/events.parquet'")
    orc = con.sql(E.oracle_sql()["kg_merged_node_props"]).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    assert a.equals(b.astype(a.dtypes.to_dict()))


@pytest.mark.parametrize("name", ["kg_compact_roundtrip",
                                  "kg_flatten_counts"])
def test_doc_count_queries_match_oracle(ray_session, sf_dir, name):
    import duckdb

    import __ray_entry__ as E

    mine = E.queries()[name](sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM "
            f"'{sf_dir}/events.parquet'")
    orc = con.sql(E.oracle_sql()[name]).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    assert len(a) > 0 and a.equals(b.astype(a.dtypes.to_dict()))


def test_label_propagation_chain_cluster(ray_session):
    """A 30-surface near-duplicate chain whose two ends are far from
    direct near-dups must fold onto one label, the chain's minimum, and
    ``canonicalize_entities`` must equal the broadcast mapping the
    pipeline links against, without warning. The minimum sits 26
    windows from the chain's start, about 13 hops at threshold 0.6, so
    any closure capped at fewer rounds splits the chain."""
    import string
    import warnings

    import ray.data as rd

    from jsonld_js_ray.stages.entity_merge import (
        build_canonical_mapping, canonicalize_entities, jaccard,
        surface_stats,
    )

    # sliding 10-char windows shifted by 1: Jaccard 0.78 to the next
    # window, 0.6 to the one after, 0.45 three apart
    chain = [string.ascii_letters[i:i + 10] for i in range(30)]
    surfs = chain * 2 + ["gamma"] * 4 + ["zzzyyyxxx"] * 2
    m = rd.from_arrow(pa.table({
        "surface": pa.array(surfs, pa.string()),
        "conv_id": pa.array([f"c{i}" for i in range(len(surfs))],
                            pa.string()),
    }))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = canonicalize_entities(m, threshold=0.6).to_pandas()
    # Ray's own log handles raise ResourceWarnings; the engine's
    # warnings (a truncated LSH bucket) are UserWarnings
    assert [str(w.message) for w in caught
            if issubclass(w.category, UserWarning)] == []
    by = dict(zip(out["surface"], out["canonical"]))
    for s in chain:
        assert by[s] == "ABCDEFGHIJ", by
    assert by["gamma"] == "gamma"
    assert by["zzzyyyxxx"] == "zzzyyyxxx"
    assert build_canonical_mapping(surface_stats(m), 0.6) == by
    # the chain really is multi-hop: ends three apart are not near-dups
    assert jaccard(chain[0], chain[1]) >= 0.6
    assert jaccard(chain[0], chain[2]) >= 0.6
    assert jaccard(chain[0], chain[3]) < 0.6


def test_entities_canonical_planted_oracle(ray_session, sf_dir):
    """Construction-based oracle: planted surface||'s' variants merge
    onto their base; everything else is identity."""
    import duckdb

    from jsonld_js_ray.sources.transcripts import read_transcripts
    from jsonld_js_ray.stages.entity_merge import (
        _entities_canonical_planted_sql, canonicalize_entities_planted,
    )
    from jsonld_js_ray.stages.linker import detect_mentions

    mine = canonicalize_entities_planted(
        detect_mentions(read_transcripts(sf_dir))).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM "
            f"'{sf_dir}/events.parquet'")
    orc = con.sql(_entities_canonical_planted_sql()).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    assert a.equals(b.astype(a.dtypes.to_dict()))


@pytest.mark.parametrize("layout", ["one_file", "split"])
@pytest.mark.parametrize("name", ["kg_entities", "kg_entities_canonical"])
def test_entity_queries_match_oracle(ray_session, sf_dir, request, name,
                                     layout):
    """The entity queries read the events directly (one map, no turn
    sort); on one events file and on the ``events/`` split they equal
    their DuckDB oracle over the same files."""
    import duckdb

    import __ray_entry__ as E
    from jsonld_js_ray.rayutil import event_files

    d = sf_dir if layout == "one_file" else \
        request.getfixturevalue("split_sf_dir")
    mine = E.queries()[name](d).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM "
            f"read_parquet({event_files(d)!r})")
    orc = con.sql(E.oracle_sql()[name]).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    assert len(a) > 0 and a.equals(b.astype(a.dtypes.to_dict()))


ENTITY_MAPPING_DEADLINE_S = 120
_ENTITY_MAPPING_SCRIPT = """
import json, sys, ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False,
         object_store_memory=256 * 1024 * 1024)
from jsonld_js_ray.pipelines.kg import build_entity_mapping
print(json.dumps(build_entity_mapping(sys.argv[1])), flush=True)
ray.shutdown()
"""


def test_entity_mapping_finishes_at_one_cpu(ray_session, sf_dir):
    """Phase 1 must not need a second CPU: under its own
    ``ray.init(num_cpus=1)`` ``build_entity_mapping`` finishes before
    the deadline (an actor pool holding the only CPU never did), and
    gives the mapping this session's does. The child runs in its own
    process group, which holds its Ray processes too; the group is
    killed whatever the outcome."""
    import signal
    import subprocess
    import sys

    from jsonld_js_ray.pipelines.kg import build_entity_mapping

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", _ENTITY_MAPPING_SCRIPT, sf_dir], cwd=repo,
        env=dict(os.environ, PYTHONPATH=repo, RAY_USAGE_STATS_ENABLED="0"),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=ENTITY_MAPPING_DEADLINE_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    assert out is not None, (
        f"build_entity_mapping did not finish within "
        f"{ENTITY_MAPPING_DEADLINE_S} s at num_cpus=1")
    assert proc.returncode == 0
    got = json.loads(out.strip().splitlines()[-1])
    assert got and got == build_entity_mapping(sf_dir)


def test_conv_entity_mentions_matches_oracle(ray_session, sf_dir):
    """2-hop BGP join (?conv hasTurn ?turn . ?turn mentions ?entity)
    over the quad stream equals the SQL self-join oracle."""
    import duckdb
    import pandas as pd

    import __ray_entry__ as E

    mine = E.queries()["kg_conv_entity_mentions"](sf_dir).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM "
            f"'{sf_dir}/events.parquet'")
    orc = con.sql(E.oracle_sql()["kg_conv_entity_mentions"]).df()
    cols = sorted(mine.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = orc[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))
    assert len(a) > 0

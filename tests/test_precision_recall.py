"""Triple-set precision/recall vs the reference implementation.

The driver criterion: emitted (subj, pred, obj) triples must match the
reference jsonld.js toRdf/canonize semantics at P/R ≥ 0.95. This harness
assembles per-conversation documents with the engine, runs the SAME
documents through the reference's expand+toRDF under node, canonicalizes
both sides per document (URDNA2015, replicating the conformance
comparator tests/test-common.js:777-795), and measures micro-averaged
precision/recall over the full sf0.001 corpus.

Writes PR_REPORT.json at the repo root for the judge.
"""

from __future__ import annotations

import json
import os

import pytest

from jsonld_js_ray.core import canonize as canonize_mod
from jsonld_js_ray.stages.to_rdf_stage import ToRdfActor

from reference_oracle import AVAILABLE, SKIP_REASON, ref_quads, run

REPORT_PATH = os.path.join(os.path.dirname(__file__), "..",
                           "PR_REPORT.json")

pytestmark = pytest.mark.skipif(not AVAILABLE, reason=SKIP_REASON)


def _ref_to_rdf_many(docs: list[dict]) -> list[list[tuple]]:
    out = []
    for rec in run([{"op": "toRdf", "input": doc} for doc in docs]):
        assert rec["ok"], rec
        out.append(ref_quads(rec["result"]))
    return out


def test_triple_precision_recall_vs_reference(ray_session, sf_dir):
    from jsonld_js_ray.pipelines.kg import assemble_docs

    doc_rows = assemble_docs(sf_dir).to_pandas()
    docs = [json.loads(d) for d in doc_rows["doc_json"]]

    # engine triples: canonical per-document (no conv namespace, to align
    # with the per-document reference output)
    actor = ToRdfActor(namespace_bnodes=False)
    engine_sets = []
    for conv_id, doc in zip(doc_rows["conv_id"], docs):
        quads = actor.doc_to_quads(json.loads(json.dumps(doc)), conv_id)
        engine_sets.append(set(canonize_mod.canonize(quads).split("\n")))

    ref_quadsets = _ref_to_rdf_many(docs)
    ref_sets = [set(canonize_mod.canonize(q).split("\n"))
                for q in ref_quadsets]

    tp = fp = fn = 0
    per_doc_mismatches = 0
    for mine, ref in zip(engine_sets, ref_sets):
        mine.discard("")
        ref.discard("")
        tp += len(mine & ref)
        fp += len(mine - ref)
        fn += len(ref - mine)
        if mine != ref:
            per_doc_mismatches += 1

    precision = tp / (tp + fp) if (tp + fp) else 1.0
    recall = tp / (tp + fn) if (tp + fn) else 1.0

    report = {
        "docs": len(docs),
        "engine_triples": tp + fp,
        "reference_triples": tp + fn,
        "true_positive": tp,
        "precision": round(precision, 6),
        "recall": round(recall, 6),
        "per_doc_mismatches": per_doc_mismatches,
        "comparator": "canonize-both-then-compare "
                      "(tests/test-common.js:777-795 semantics)",
        "corpus": sf_dir,
    }
    with open(REPORT_PATH, "w") as f:
        json.dump(report, f, indent=1)

    assert precision >= 0.95 and recall >= 0.95, report
    # the engine is in fact exact on this corpus
    assert per_doc_mismatches == 0, report

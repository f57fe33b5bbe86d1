"""Per-session differential legs for the round-5b sweep axes:
flatten (ctx / ctx-free), fromRdf (identical quad sets through both
decoders, useNativeTypes x useRdfType matrix) and expand under
processingMode json-ld-1.0 (mode-gating error parity). The big
out-of-band ranges are the flatten, fromrdf and mode10 axes of
tools/fuzz.py; these committed legs keep the axes in the standing gate.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from jsonld_js_ray import api
from jsonld_js_ray.core.errors import JsonLdError

from reference_oracle import AVAILABLE, SKIP_REASON, raw_crash, run

N_DOCS = 100
SEED0 = 700000   # disjoint from every other committed corpus

pytestmark = pytest.mark.skipif(not AVAILABLE, reason=SKIP_REASON)


def _docs():
    import sys
    sys.path.insert(0, os.path.dirname(__file__))
    import test_fuzz_parity as fz
    return fz, [fz._gen_doc(SEED0 + i) for i in range(N_DOCS)]


def test_flatten_parity():
    fz, docs = _docs()
    ctxs = [(fz._gen_context(random.Random((SEED0 + i) * 37 + 11))
             if i % 2 else None) for i in range(N_DOCS)]
    results = run([{"op": "flatten", "input": d, "ctx": c}
                        for d, c in zip(docs, ctxs)])
    mismatches = []
    for i, (doc, ctx, ref) in enumerate(zip(docs, ctxs, results)):
        try:
            mine = api.flatten(json.loads(json.dumps(doc)),
                               json.loads(json.dumps(ctx)))
            if raw_crash(ref):
                continue
            if not ref["ok"] or \
                    json.loads(json.dumps(mine)) != ref["result"]:
                mismatches.append(i)
        except JsonLdError as e:
            if raw_crash(ref):
                continue
            if ref["ok"] or (ref.get("code")
                             and e.code != ref["code"]):
                mismatches.append(i)
    assert not mismatches, mismatches[:5]


def test_fromrdf_parity():
    _, docs = _docs()
    cases, reqs = [], []
    for i, doc in enumerate(docs):
        try:
            quads = api.to_rdf(json.loads(json.dumps(doc)))
        except JsonLdError:
            continue
        if any(t is None for q in quads for t in q):
            continue        # null-object quad (list-tail quirk)
        opts = {"useNativeTypes": i % 2 == 1, "useRdfType": i % 4 >= 2}
        term = lambda t: list(t) if t[0] == "Literal" else [t[0], t[1]]
        cases.append((i, quads, opts))
        reqs.append({"op": "fromRdf",
                     "input": [[term(t) for t in q] for q in quads],
                     "options": opts})
    assert len(cases) > N_DOCS // 2     # corpus stays mostly usable
    results = run(reqs)
    mismatches = []
    for (i, quads, opts), ref in zip(cases, results):
        try:
            mine = api.from_rdf(quads, dict(opts))
            if not ref["ok"] or \
                    json.loads(json.dumps(mine)) != ref["result"]:
                mismatches.append(i)
        except JsonLdError:
            if ref["ok"]:
                mismatches.append(i)
    assert not mismatches, mismatches[:5]


def test_expand_mode10_parity():
    _, docs = _docs()
    opts = {"processingMode": "json-ld-1.0"}
    results = run([{"op": "expand", "input": d,
                         "options": dict(opts)} for d in docs])
    mismatches = []
    n_err = 0
    for i, (doc, ref) in enumerate(zip(docs, results)):
        try:
            mine = api.expand(json.loads(json.dumps(doc)), dict(opts))
            if raw_crash(ref):
                continue
            if not ref["ok"] or \
                    json.loads(json.dumps(mine)) != ref["result"]:
                mismatches.append(i)
        except JsonLdError as e:
            n_err += 1
            if raw_crash(ref):
                continue
            if ref["ok"] or (ref.get("code")
                             and e.code != ref["code"]):
                mismatches.append((i, e.code, ref.get("code")))
    assert not mismatches, mismatches[:5]
    # the corpus leans on 1.1 features: 1.0 mode must actually gate
    assert n_err > N_DOCS // 4

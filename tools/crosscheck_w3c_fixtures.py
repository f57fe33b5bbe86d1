"""Mechanically re-verify the committed W3C-shaped fixture corpus
against the reference implementation.

Every wave's BASELINE.md / commit-message claim is "all cases
reference-cross-checked before pinning"; this tool makes that claim
reproducible: it walks tests/w3c_shaped/manifest.jsonld, replays every
replayable case through the node reference harness
(tests/refharness/ref_run.js) in ONE batched invocation, and compares
the reference's answer against the committed expected output — JSON
equality for expand/compact/flatten/frame/fromRdf, canonized-N-Quads
equality for toRdf (our URDNA2015 is only the comparator: both sides
go through it), error-code equality for negatives.

Non-replayable rows are reported as skips with reasons:
- rdfn:Urdna2015EvalTest / rdfn:Urgna2012EvalTest and NormalizeTest —
  the fork's canonize module is a gutted re-export (node_modules
  rdf-canonize absent), so these rows are engine-pinned by design
  (algorithm correctness proven against published URDNA2015 vectors
  in tests/test_urdna_vectors.py and tests/test_rdfc_independent.py).
- jld:PositiveSyntaxTest — 'no checks' in the reference runner too.
- specVersion json-ld-1.0 rows — the runner skips them identically
  (tests/test-common.js skip classes).

Usage: python tools/crosscheck_w3c_fixtures.py
Exit 0 when every replayed case matches the reference.
"""
from __future__ import annotations

import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
sys.path.insert(0, os.path.join(REPO, "tests"))

from reference_oracle import ref_quads, run  # noqa: E402

from jsonld_js_ray.core import canonize as canonize_mod  # noqa: E402
from jsonld_js_ray.core import nquads as _nq  # noqa: E402

D = os.path.join(REPO, "tests", "w3c_shaped")
BASE = "https://w3c.test/suite/"
MOUNT_PREFIX = "https://mounted.test/"


def _read_json(name):
    with open(os.path.join(D, name), encoding="utf-8") as f:
        return json.load(f)


def _read_text(name):
    with open(os.path.join(D, name), encoding="utf-8") as f:
        return f.read()


def _mounted_documents():
    docs = {}
    mdir = os.path.join(D, "mounted")
    if os.path.isdir(mdir):
        for root, _dirs, files in os.walk(mdir):
            for fn in files:
                path = os.path.join(root, fn)
                rel = os.path.relpath(path, mdir).replace(os.sep, "/")
                with open(path, encoding="utf-8") as f:
                    try:
                        docs[MOUNT_PREFIX + rel] = json.load(f)
                    except ValueError:
                        pass
    return docs


def _entries(node):
    out = []
    for key in ("sequence", "entries", "include"):
        for e in node.get(key) or []:
            if isinstance(e, dict):
                if e.get("input") or e.get("action"):
                    out.append(e)
                else:
                    out.extend(_entries(e))  # inline sub-manifest
    return out


def _types(e):
    t = e.get("@type") or e.get("type") or []
    return t if isinstance(t, list) else [t]


def main() -> int:
    manifest = _read_json("manifest.jsonld")
    mounted = _mounted_documents()
    jobs = []   # (test_id, name, kind, expect, req)
    skips = []
    for e in _entries(manifest):
        tid = e.get("@id") or e.get("id") or "?"
        name = e.get("name") or e.get("purpose") or ""
        types = _types(e)
        opt = dict(e.get("option") or {})
        if opt.get("specVersion") == "json-ld-1.0":
            skips.append((tid, "specVersion json-ld-1.0 (runner-skipped)"))
            continue
        if any(t.startswith("rdfn:") for t in types) or \
                "jld:NormalizeTest" in types:
            skips.append((tid, "engine-pinned canonize row (fork's "
                               "canonize module is gutted)"))
            continue
        if "jld:PositiveSyntaxTest" in types:
            skips.append((tid, "PositiveSyntaxTest — no checks"))
            continue
        input_name = e.get("input") or e.get("action")
        options = {k: v for k, v in opt.items() if k != "specVersion"}
        if "base" not in options:
            options["base"] = BASE + input_name
        if isinstance(options.get("expandContext"), str):
            # like the engine runner (conformance.py): a string
            # expandContext is a manifest-relative file, inlined here
            options["expandContext"] = _read_json(
                os.path.normpath(options["expandContext"]))
        negative = "jld:NegativeEvaluationTest" in types
        expect = e.get("expectErrorCode") if negative else \
            (e.get("expect") or e.get("result"))
        req = {"options": options}
        if mounted:
            req["documents"] = mounted
        if "jld:ExpandTest" in types:
            req["op"] = "expand"
            req["input"] = _read_json(input_name)
        elif "jld:CompactTest" in types:
            req["op"] = "compact"
            req["input"] = _read_json(input_name)
            req["ctx"] = _read_json(e["context"])
        elif "jld:FlattenTest" in types:
            req["op"] = "flatten"
            req["input"] = _read_json(input_name)
            req["ctx"] = _read_json(e["context"]) if e.get("context") \
                else None
        elif "jld:FrameTest" in types:
            req["op"] = "frame"
            req["input"] = _read_json(input_name)
            req["frame"] = _read_json(e["frame"])
        elif "jld:FromRDFTest" in types:
            req["op"] = "fromRdf"
            quads = _nq.parse(_read_text(input_name))
            req["input"] = [[list(t) for t in q] for q in quads]
            req["options"] = {k: v for k, v in options.items()
                              if k != "base"}
        elif "jld:ToRDFTest" in types:
            req["op"] = "toRdf"
            req["input"] = _read_json(input_name)
        else:
            skips.append((tid, f"unreplayable type {types}"))
            continue
        jobs.append((tid, name, "neg" if negative else req["op"],
                     expect, req))

    results = run([j[4] for j in jobs])

    n_ok = n_bad = 0
    for (tid, name, kind, expect, _req), ref in zip(jobs, results):
        if kind == "neg":
            ok = (not ref["ok"]) and ref.get("code") == expect
            detail = f"ref code {ref.get('code')!r} vs {expect!r}"
        elif not ref["ok"]:
            ok, detail = False, f"reference errored: {ref.get('error')}"
        elif kind == "toRdf":
            got = canonize_mod.canonize(ref_quads(ref["result"]))
            want = canonize_mod.canonize(_nq.parse(_read_text(expect)))
            ok, detail = got == want, "canonized N-Quads differ"
        else:
            want = _read_json(expect)
            ok = json.loads(json.dumps(ref["result"])) == want
            detail = "JSON differs"
        if ok:
            n_ok += 1
        else:
            n_bad += 1
            print(f"MISMATCH {tid} {name}: {detail}")
    print(f"replayed {len(jobs)}: {n_ok} match, {n_bad} mismatch; "
          f"{len(skips)} skipped")
    for tid, why in skips:
        print(f"  skip {tid}: {why}")
    return 1 if n_bad else 0


if __name__ == "__main__":
    sys.exit(main())

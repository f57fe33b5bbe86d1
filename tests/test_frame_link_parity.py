"""@embed:'@link' frame parity vs the reference under node.

Linked framing creates shared/cyclic structures that cannot round-trip
plain JSON, so both sides apply the SAME deterministic decycle (a
reference back to an ancestor on the current path becomes
{'@cycle': its @id}) before comparison — the harness op
``frameDecycled`` mirrors this transform in JS.

Known reference limitation: on inputs whose data graph is itself
cyclic, the reference's own compact recurses forever over the linked
result and dies with 'Maximum call stack size exceeded' (a native
stack overflow, not a JsonLdError); this engine terminates. Those
crash cases are counted and bounded, not compared.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from reference_oracle import AVAILABLE, SKIP_REASON, run

pytestmark = pytest.mark.skipif(not AVAILABLE, reason=SKIP_REASON)

N_DOCS = 120


def _gen_frame(seed: int) -> dict:
    import parity_corpus  # noqa: F401  (sys.path side effect free)
    import test_fuzz_parity as fz

    rng = random.Random(seed)
    f = {"@context": fz._gen_context(rng)}
    if rng.random() < 0.5:
        f["@type"] = fz.EX + "T1"
    f["@embed"] = rng.choice(["@link", "@link", "@once", "@always"])
    return f


def decycle(node, path):
    if isinstance(node, list):
        return [decycle(x, path) for x in node]
    if isinstance(node, dict):
        nid = id(node)
        if nid in path:
            return {"@cycle": node.get("@id", True)}
        path.add(nid)
        out = {k: decycle(v, path) for k, v in node.items()}
        path.discard(nid)
        return out
    return node


def test_linked_frame_parity_decycled():
    import sys

    sys.path.insert(0, os.path.dirname(__file__))
    import test_fuzz_parity as fz

    from jsonld_js_ray import api
    from jsonld_js_ray.core.errors import JsonLdError

    docs = [fz._gen_doc(200000 + i) for i in range(N_DOCS)]
    results = run([{"op": "frameDecycled", "input": d,
                    "frame": _gen_frame(300000 + i)}
                   for i, d in enumerate(docs)])

    mismatches, ref_crashes = [], 0
    for i, d in enumerate(docs):
        ref = results[i]
        if not ref["ok"] and "call stack" in str(ref.get("error", "")):
            ref_crashes += 1            # reference stack overflow
            continue
        try:
            mine = decycle(api.frame(json.loads(json.dumps(d)),
                                     _gen_frame(300000 + i)), set())
            if not ref["ok"] or \
                    json.loads(json.dumps(mine)) != ref["result"]:
                mismatches.append(i)
        except JsonLdError:
            if ref["ok"]:
                mismatches.append(i)
        except RecursionError:
            if ref["ok"]:                # one-sided depth blowup IS a diff
                mismatches.append(i)
    assert not mismatches, mismatches[:5]
    # cyclic-input crash cases exist but are rare in this corpus
    assert ref_crashes <= N_DOCS * 0.05, ref_crashes

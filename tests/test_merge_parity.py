"""Merge parity vs the (crash-guarded) reference.

The fork's ``nodeMap`` @reverse path calls ``util.addValue`` with an
undefined subject for a class of inputs (double-processed reverse
references), dying in a native TypeError — ~27% of random doc pairs in
the fuzz corpus. The ``mergeGuarded`` harness op no-ops that single
broken call; against it the engine's merge matches EXACTLY (300/300 in
a one-off sweep; this committed test runs 80 pairs per session).
"""

from __future__ import annotations

import json
import os

import pytest

from reference_oracle import AVAILABLE, SKIP_REASON, run

pytestmark = pytest.mark.skipif(not AVAILABLE, reason=SKIP_REASON)

N_PAIRS = 80


def test_merge_parity_guarded():
    import sys

    sys.path.insert(0, os.path.dirname(__file__))
    import test_fuzz_parity as fz

    from jsonld_js_ray import api
    from jsonld_js_ray.core.errors import JsonLdError

    pairs = [(fz._gen_doc(400000 + i), fz._gen_doc(450000 + i))
             for i in range(N_PAIRS)]
    results = run([{"op": "mergeGuarded", "input": [a, b], "ctx": None}
                   for a, b in pairs])

    mismatches = []
    for i, (a, b) in enumerate(pairs):
        ref = results[i]
        try:
            mine = api.merge([json.loads(json.dumps(a)),
                              json.loads(json.dumps(b))], None)
            if not ref["ok"] or \
                    json.loads(json.dumps(mine)) != ref["result"]:
                mismatches.append(i)
        except JsonLdError:
            if ref["ok"]:
                mismatches.append(i)
    assert not mismatches, mismatches[:5]

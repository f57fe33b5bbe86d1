"""Differential tests: engine vs the reference implementation.

Runs every case in ``parity_corpus.CASES`` through the reference
(/root/reference via node, tests/refharness/ref_run.js) once per session,
then asserts the engine produces the same observable result:

- expand/compact/flatten/frame/merge → deep JSON equality
- toRdf → equal canonical N-Quads (canonize-both-then-compare, replicating
  the reference conformance comparator, tests/test-common.js:777-795)
- errors → same spec error ``code``

Skips cleanly when node or the reference checkout is unavailable.
"""

from __future__ import annotations

import json
import os

import pytest

from jsonld_js_ray import api
from jsonld_js_ray.core import canonize as canonize_mod
from jsonld_js_ray.core.errors import JsonLdError

from parity_corpus import CASES
from reference_oracle import AVAILABLE, ref_quads, run

GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                           "golden_parity.json")

pytestmark = pytest.mark.skipif(
    not AVAILABLE and not os.path.exists(GOLDEN_PATH),
    reason="neither live reference oracle nor golden snapshot available",
)


@pytest.fixture(scope="session")
def reference_results() -> list[dict]:
    """Live node oracle when available; committed golden snapshot
    (tests/golden_parity.json) otherwise."""
    if AVAILABLE:
        return run(CASES, timeout=120)
    with open(GOLDEN_PATH) as f:
        golden = json.load(f)["results"]
    missing = [c["name"] for c in CASES if c["name"] not in golden]
    assert not missing, f"golden snapshot stale; missing: {missing[:5]}"
    return [golden[c["name"]] for c in CASES]


def _run_engine(case: dict):
    op = case["op"]
    options = dict(case.get("options") or {})
    if case.get("documents"):
        options["documents"] = case["documents"]
    if op == "expand":
        return api.expand(case["input"], options)
    if op == "compact":
        return api.compact(case["input"], case["ctx"], options)
    if op == "flatten":
        return api.flatten(case["input"], case.get("ctx"), options)
    if op == "toRdf":
        return api.to_rdf(case["input"], options)
    if op == "frame":
        return api.frame(case["input"], case["frame"], options)
    if op == "merge":
        return api.merge(case["input"], case.get("ctx"), options)
    raise ValueError(op)


@pytest.mark.parametrize(
    "idx", range(len(CASES)), ids=[c["name"] for c in CASES])
def test_parity(idx: int, reference_results: list[dict]) -> None:
    case = CASES[idx]
    ref = reference_results[idx]

    if not ref["ok"]:
        # reference raised: the engine must raise with the same spec code
        with pytest.raises(JsonLdError) as exc_info:
            _run_engine(case)
        if ref.get("code"):
            assert exc_info.value.code == ref["code"], (
                f"error-code mismatch: engine={exc_info.value.code!r} "
                f"reference={ref['code']!r}")
        return

    mine = _run_engine(case)

    if case["op"] == "toRdf":
        assert canonize_mod.canonize(mine) == \
            canonize_mod.canonize(ref_quads(ref["result"]))
    else:
        assert json.loads(json.dumps(mine)) == ref["result"], (
            f"mismatch for {case['name']}:\n"
            f"engine:    {json.dumps(mine, sort_keys=True)}\n"
            f"reference: {json.dumps(ref['result'], sort_keys=True)}")

"""Differential fuzz: seeded random JSON-LD documents through BOTH engines.

Generates structurally diverse documents (contexts with coercions and
containers, nested nodes, lists, graphs, reverse maps, value objects,
odd scalars) from a fixed seed, then compares expansion and toRdf
(canonize-both) against the reference in a single node invocation.
Catches interaction bugs the hand-written corpus misses.
"""

from __future__ import annotations

import json
import random

import pytest

from jsonld_js_ray import api
from jsonld_js_ray.core import canonize as canonize_mod
from jsonld_js_ray.core.errors import JsonLdError

from reference_oracle import AVAILABLE, SKIP_REASON, ref_quads, run

N_DOCS = 250
EX = "http://fz.example/"

pytestmark = pytest.mark.skipif(not AVAILABLE, reason=SKIP_REASON)


def _gen_context(rng: random.Random) -> dict:
    ctx: dict = {}
    if rng.random() < 0.5:
        ctx["@vocab"] = EX + "vocab/"
    if rng.random() < 0.3:
        ctx["@language"] = rng.choice(["en", "de", "FR"])
    if rng.random() < 0.2:
        ctx["@base"] = "http://base.example/dir/"
    if rng.random() < 0.15:
        ctx["@direction"] = rng.choice(["ltr", "rtl"])
    ctx["ex"] = EX
    for i in range(rng.randrange(1, 5)):
        term = f"t{i}"
        roll = rng.random()
        if roll < 0.25:
            ctx[term] = EX + f"p{i}"
        elif roll < 0.45:
            ctx[term] = {"@id": EX + f"p{i}",
                         "@type": rng.choice(
                             ["@id", "@vocab",
                              "http://www.w3.org/2001/XMLSchema#integer",
                              "http://www.w3.org/2001/XMLSchema#date"])}
        elif roll < 0.65:
            ctx[term] = {"@id": EX + f"p{i}",
                         "@container": rng.choice(
                             ["@list", "@set", "@index", "@language",
                              "@graph", "@id", "@type",
                              ["@graph", "@index"], ["@graph", "@id"],
                              ["@index", "@set"], ["@language", "@set"],
                              ["@id", "@set"]])}
        elif roll < 0.8:
            ctx[term] = {"@id": EX + f"p{i}",
                         "@language": rng.choice(["en", "de", None])}
        elif roll < 0.9:
            ctx[term] = {"@reverse": EX + f"rev{i}"}
        elif roll < 0.95:
            # property-scoped context (sometimes an explicit null)
            ctx[term] = {"@id": EX + f"p{i}",
                         "@context": (None if rng.random() < 0.3 else
                                      {"inner": EX + f"scoped{i}"})}
            if rng.random() < 0.2:
                ctx[f"ex:pref{i}"] = {"@id": EX + f"pref{i}"}
        else:
            # type-scoped context on a type term
            ctx[f"Type{i}"] = {"@id": EX + f"T{i}",
                               "@context": {"tq": EX + f"typed{i}"}}
            ctx[term] = EX + f"p{i}"
    if rng.random() < 0.15:
        ctx["@protected"] = True
    if rng.random() < 0.1:
        ctx["alias_id"] = "@id"
    return ctx


def _gen_value(rng: random.Random, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return rng.choice([
            "plain", 42, 2.5, True, None, -17, 0.1, "",
            {"@value": "v", "@language": "en"},
            {"@value": 7},
            {"@value": "x", "@index": "i"},
        ])
    if roll < 0.5:
        return [_gen_value(rng, depth - 1)
                for _ in range(rng.randrange(3))]
    if roll < 0.6:
        return {"@list": [_gen_value(rng, 0)
                          for _ in range(rng.randrange(3))]}
    if roll < 0.68:
        return {"@set": [_gen_value(rng, 0)
                         for _ in range(rng.randrange(2))]}
    if roll < 0.75:
        return {"@id": rng.choice(
            [EX + "n1", EX + "n2", "_:b" + str(rng.randrange(3)),
             "relative/node"])}
    node = _gen_node(rng, depth - 1)
    return node


def _gen_node(rng: random.Random, depth: int) -> dict:
    node: dict = {}
    if rng.random() < 0.6:
        node["@id"] = rng.choice(
            [EX + f"s{rng.randrange(4)}", "_:b" + str(rng.randrange(3))])
    if rng.random() < 0.3:
        node["@type"] = rng.choice(
            [EX + "T1", [EX + "T1", EX + "T2"], "t0"])
    for i in range(rng.randrange(1, 4)):
        key = rng.choice([f"t{rng.randrange(5)}", "ex:raw",
                          EX + "absolute", "unmapped", "inner", "tq",
                          f"Type{rng.randrange(3)}"])
        if rng.random() < 0.15:
            # container-shaped values for mapped terms
            node[key] = {rng.choice(["en", "de", "i1", "@none"]):
                         _gen_value(rng, 0)}
        else:
            node[key] = _gen_value(rng, depth)
    if rng.random() < 0.1:
        node["@graph"] = [_gen_node(rng, 0)]
    if rng.random() < 0.1:
        node["@reverse"] = {"ex:parent": {"@id": EX + "rp"}}
    return node


def _gen_doc(seed: int) -> dict:
    rng = random.Random(seed)
    doc = _gen_node(rng, 2)
    doc["@context"] = _gen_context(rng)
    # v2 ranges (seed >= 16M, so every recorded seed keeps its exact
    # document): CONTEXT ARRAYS with per-element keywords — the class
    # the single-dict generator could never produce, where the
    # round-5 fourth sitting found the first-element-only @propagate,
    # accumulated-nullification and null-mid-chain behaviors
    if seed >= 16_000_000 and rng.random() < 0.5:
        extra = _gen_context(rng)
        if rng.random() < 0.4:
            extra["@propagate"] = rng.random() < 0.5
        if rng.random() < 0.25:
            extra["@version"] = 1.1
        chain = [doc["@context"], extra]
        if rng.random() < 0.4:
            chain[0] = dict(chain[0])
            chain[0]["@propagate"] = rng.random() < 0.5
        if rng.random() < 0.3:
            chain.insert(rng.randrange(len(chain) + 1), None)
        doc["@context"] = chain
    return doc


@pytest.fixture(scope="module")
def fuzz_results():
    docs = [_gen_doc(1000 + i) for i in range(N_DOCS)]
    reqs = []
    for doc in docs:
        reqs.append({"op": "expand", "input": doc})
        reqs.append({"op": "toRdf", "input": doc})
    return docs, run(reqs)


def test_fuzz_expand_parity(fuzz_results):
    docs, results = fuzz_results
    mismatches = []
    for i, doc in enumerate(docs):
        ref = results[2 * i]
        try:
            mine = api.expand(json.loads(json.dumps(doc)))
            if not ref["ok"]:
                mismatches.append((i, "engine-ok-ref-error", ref["error"]))
            elif json.loads(json.dumps(mine)) != ref["result"]:
                mismatches.append((i, "value-mismatch",
                                   json.dumps(mine)[:200],
                                   json.dumps(ref["result"])[:200]))
        except JsonLdError as e:
            if ref["ok"]:
                mismatches.append((i, "engine-error-ref-ok", e.code,
                                   str(e)[:150]))
            elif ref.get("code") and e.code != ref["code"]:
                mismatches.append((i, "code-mismatch", e.code, ref["code"]))
    assert not mismatches, \
        f"{len(mismatches)}/{len(docs)} docs diverge; first 5: " \
        f"{mismatches[:5]}"


def test_fuzz_tordf_parity(fuzz_results):
    docs, results = fuzz_results
    mismatches = []
    for i, doc in enumerate(docs):
        ref = results[2 * i + 1]
        try:
            mine = api.to_rdf(json.loads(json.dumps(doc)))
            if not ref["ok"]:
                mismatches.append((i, "engine-ok-ref-error", ref["error"]))
                continue
            if canonize_mod.canonize(mine) != canonize_mod.canonize(
                    ref_quads(ref["result"])):
                mismatches.append((i, "quad-mismatch"))
        except JsonLdError as e:
            if ref["ok"]:
                mismatches.append((i, "engine-error-ref-ok", e.code,
                                   str(e)[:150]))
    assert not mismatches, \
        f"{len(mismatches)}/{len(docs)} docs diverge; first 5: " \
        f"{mismatches[:5]}"

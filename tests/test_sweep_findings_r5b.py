"""Regressions for the three findings of the round-5 flatten/frame
differential sweeps (now the flatten and frame axes of tools/fuzz.py,
whose docstring tables the campaign). Expected outputs are PINNED
literals, cross-checked against the reference via the node harness before
committing (ref_run.js ops flatten / merge / frameDecycled), so these
run without node.

1. A bare @list in node position (a @graph container value) gets the
   JS `undefined` map key in createNodeMap (nodeMap.js:97-99) and an
   undefined @id that JSON.stringify DROPS from flatten/merge output.
   The engine emitted a visible "@id": "undefined" string instead
   (fuzz seeds 3001834, 3002138, 3003576, 3007668, 3011192, 3015714).
2. The compact re-entrancy guard acted as an identity cache: a shared
   (pruned-@id) framed node compacted at two positions returned ONE
   mutated dict, losing @index at the standalone position after an
   @index-container map consumed it (fuzz seed 3201777).
3. cleanup_null / _cleanup_preserve crashed with TypeError on a
   compacted dict whose "@id" key holds an index-map ARRAY (an @index
   container whose index key is literally "@id"); the reference
   silently coerces it to a JS property key (frame.js:345).
"""

import json

from jsonld_js_ray import api
from jsonld_js_ray.core.nodemap import merge_node_map_graphs


def _decycle(node, path):
    if isinstance(node, list):
        return [_decycle(x, path) for x in node]
    if isinstance(node, dict):
        nid = id(node)
        if nid in path:
            return {"@cycle": node.get("@id", True)}
        path.add(nid)
        out = {k: _decycle(v, path) for k, v in node.items()}
        path.discard(nid)
        return out
    return node


BARE_LIST_DOC = {
    "@context": {"t": {"@id": "http://e.x/p", "@container": "@graph"}},
    "t": {"@list": [1]},
}
# reference flatten/merge output: the graph-content list node carries
# NO @id (JS undefined is dropped at serialization)
BARE_LIST_FLAT = [
    {"@id": "_:b0", "http://e.x/p": [{"@id": "_:b1"}]},
    {"@id": "_:b1", "@graph": [{"@list": [{"@value": 1}]}]},
]


def test_flatten_bare_list_in_graph_has_no_undefined_id():
    got = api.flatten(json.loads(json.dumps(BARE_LIST_DOC)))
    assert json.loads(json.dumps(got)) == BARE_LIST_FLAT


def test_merge_bare_list_in_graph_has_no_undefined_id():
    got = api.merge([json.loads(json.dumps(BARE_LIST_DOC))])
    assert json.loads(json.dumps(got)) == BARE_LIST_FLAT


def test_tordf_still_drops_the_undefined_keyed_subject():
    got = api.to_rdf(json.loads(json.dumps(BARE_LIST_DOC)))
    assert got == [(("BlankNode", "_:b0"),
                    ("NamedNode", "http://e.x/p"),
                    ("BlankNode", "_:b1"),
                    ("DefaultGraph", ""))]


def test_merge_node_map_graphs_mirrors_undefined_id_overwrite():
    # a source node WITHOUT @id under the "undefined" key must strip
    # the seeded {'@id': id} (the reference's keyword copy overwrites
    # it with clone(undefined), nodeMap.js:244-247)
    graphs = {"@default": {
        "undefined": {"@list": [{"@value": 1}]},
        "http://e.x/n": {"@id": "http://e.x/n"},
    }}
    merged = merge_node_map_graphs(graphs)
    assert "@id" not in merged["undefined"]
    assert merged["http://e.x/n"]["@id"] == "http://e.x/n"


def test_linked_frame_recompacts_shared_node_per_position():
    # seed 3201777 shape: with @embed @link the framed bnode appears
    # embedded (under an @index container map, which consumes @index)
    # AND standalone (which must KEEP @index). A completed compaction
    # must not be replayed from the re-entrancy guard.
    doc = {"@context": {"t": {"@id": "http://e.x/p",
                              "@container": "@index"}},
           "t": {"idx": {"http://e.x/q": 2.5}}}
    frame = {"@context": {"t": {"@id": "http://e.x/p",
                                "@container": "@index"}},
             "@embed": "@link"}
    got = _decycle(api.frame(doc, frame), set())
    assert json.loads(json.dumps(got)) == {
        "@context": {"t": {"@id": "http://e.x/p",
                           "@container": "@index"}},
        "@graph": [
            {"t": {"idx": {"http://e.x/q": 2.5}}},
            {"@index": "idx", "http://e.x/q": 2.5},
        ],
    }


def test_frame_link_map_coerces_nonstring_id_key():
    # an @index container whose index key is literally "@id" compacts
    # to {"@id": [<value object>]} — cleanup_null must JS-coerce the
    # array for its link-map key instead of raising TypeError
    doc = {"@context": {"@language": "fr",
                        "t": {"@id": "http://e.x/p",
                              "@container": "@index"}},
           "t": {"@id": "val"}}
    frame = {"@context": {"t": {"@id": "http://e.x/p",
                                "@container": ["@index", "@set"]}},
             "@embed": "@link"}
    got = _decycle(api.frame(doc, frame), set())
    assert json.loads(json.dumps(got)) == {
        "@context": {"t": {"@id": "http://e.x/p",
                           "@container": ["@index", "@set"]}},
        "t": {"@id": [{"@language": "fr", "@value": "val"}]},
    }


def test_linked_frame_reentrant_idless_node_recompacts():
    """Fuzz seed 3200865: a pruned-@id node on a cycle THROUGH an
    @id-bearing node must be re-compacted on re-entry (a fresh copy
    per visit, closing the cycle at the @id node's in-construction
    link entry, compact.js:117-125) — the guard may only short-circuit
    at re-entrancy depth 2, where the reference natively overflows.
    Expected output pinned from the reference via frameDecycled."""
    import os
    import sys

    sys.path.insert(0, os.path.dirname(__file__))
    import test_frame_link_parity as flp
    import test_fuzz_parity as fz

    s = 3200865
    doc = fz._gen_doc(s)
    frame = flp._gen_frame(s * 41 + 13)
    got = _decycle(api.frame(json.loads(json.dumps(doc)),
                             json.loads(json.dumps(frame))), set())
    expected = json.loads('{"@context": {"ex": "http://fz.example/", "t0": {"@id": "http://fz.example/p0", "@language": "en"}, "t1": {"@reverse": "http://fz.example/rev1"}, "t2": {"@id": "http://fz.example/p2", "@type": "@id"}, "t3": "http://fz.example/p3"}, "@graph": [{"@none": -17}, {"ex:absolute": 7, "ex:vocab/tq": {"@id": "ex:s2", "@type": ["ex:T1", "ex:T2"], "ex:absolute": {"@none": {"@index": "i", "@value": "x"}}, "ex:vocab/t2": {"@cycle": "ex:s2"}, "ex:vocab/t4": [{"@index": "i", "@value": "x"}, 7], "ex:vocab/unmapped": [{"@none": -17}, {"ex:absolute": 7, "ex:vocab/tq": {"@cycle": "ex:s2"}}]}}, {"ex:raw": -17, "ex:vocab/inner": "plain"}, {"@none": {"@index": "i", "@value": "x"}}, {"@id": "ex:s2", "@type": ["ex:T1", "ex:T2"], "ex:absolute": {"@none": {"@index": "i", "@value": "x"}}, "ex:vocab/t2": {"@cycle": "ex:s2"}, "ex:vocab/t4": [{"@index": "i", "@value": "x"}, 7], "ex:vocab/unmapped": [{"@none": -17}, {"ex:absolute": 7, "ex:vocab/tq": {"@cycle": "ex:s2"}}]}]}')
    assert json.loads(json.dumps(got)) == expected


def test_compare_values_uses_js_strict_semantics():
    """Fuzz seed 3031914 (flatten sweep): util.js compareValues uses
    === per component, so value objects whose @value/@type carry a
    NON-scalar compare by identity — structurally equal but distinct
    @json literals (and the fork's broken array-@type shapes) are NOT
    duplicates and flatten keeps both copies."""
    from jsonld_js_ray.core.util import compare_values

    a = {"@value": {"a": [1]}, "@type": "@json"}
    b = {"@value": {"a": [1]}, "@type": "@json"}
    assert not compare_values(a, b)          # distinct @value objects
    assert compare_values(a, a)              # identity
    shared = {"a": [1]}
    assert compare_values({"@value": shared, "@type": "@json"},
                          {"@value": shared, "@type": "@json"})
    # scalar components still compare by value, with bool/number split
    assert compare_values({"@value": 1}, {"@value": 1.0})
    assert not compare_values({"@value": True}, {"@value": 1})
    # undefined !== null: one side missing, other explicit None
    assert not compare_values({"@value": 1, "@language": None},
                              {"@value": 1})

    got = api.flatten([{"@id": "http://e.x/s", "http://e.x/p": [
        {"@value": {"a": [1]}, "@type": "@json"},
        {"@value": {"a": [1]}, "@type": "@json"}]}])
    # reference-verified: both @json copies survive flattening
    assert json.loads(json.dumps(got)) == [
        {"@id": "http://e.x/s", "http://e.x/p": [
            {"@type": "@json", "@value": {"a": [1]}},
            {"@type": "@json", "@value": {"a": [1]}}]}]

"""Unit tests for the pure-Python kernel: URL resolution, JCS, N-Quads,
IdentifierIssuer, URDNA2015, fromRDF (including the reference's own
fixture pair tests/fromRdf-0001-{in.nq,out.jsonld})."""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from jsonld_js_ray import api
from jsonld_js_ray.core import canonize as canonize_mod
from jsonld_js_ray.core import jcs, nquads, url, util
from jsonld_js_ray.core.nodemap import create_node_map, merge_node_map_graphs
from jsonld_js_ray.core.to_rdf import double_canonical
from jsonld_js_ray.core.util import (
    IdentifierIssuer, ValueIndex, add_value, compare_shortest_least,
    compare_values, js_sorted, value_key,
)

REF = "/root/reference"


# --- URL / IRI (reference lib/url.js semantics) ---

@pytest.mark.parametrize("base,rel,expected", [
    ("http://a/b/c/d;p?q", "g", "http://a/b/c/g"),
    ("http://a/b/c/d;p?q", "./g", "http://a/b/c/g"),
    ("http://a/b/c/d;p?q", "g/", "http://a/b/c/g/"),
    ("http://a/b/c/d;p?q", "/g", "http://a/g"),
    ("http://a/b/c/d;p?q", "//g", "http://g"),
    ("http://a/b/c/d;p?q", "?y", "http://a/b/c/d;p?y"),
    ("http://a/b/c/d;p?q", "g?y", "http://a/b/c/g?y"),
    ("http://a/b/c/d;p?q", "#s", "http://a/b/c/d;p?q#s"),
    ("http://a/b/c/d;p?q", "g#s", "http://a/b/c/g#s"),
    ("http://a/b/c/d;p?q", "", "http://a/b/c/d;p?q"),
    ("http://a/b/c/d;p?q", ".", "http://a/b/c/"),
    ("http://a/b/c/d;p?q", "..", "http://a/b/"),
    ("http://a/b/c/d;p?q", "../g", "http://a/b/g"),
    ("http://a/b/c/d;p?q", "../..", "http://a/"),
    ("http://a/b/c/d;p?q", "../../g", "http://a/g"),
    ("http://a/b/c/d;p?q", "http://x/y", "http://x/y"),
])
def test_prepend_base_rfc3986(base: str, rel: str, expected: str) -> None:
    assert url.prepend_base(base, rel) == expected


def test_remove_base() -> None:
    assert url.remove_base("http://a/b/", "http://a/b/c") == "c"
    assert url.remove_base("http://a/b/c", "http://a/b/d") == "d"
    assert url.remove_base("http://a/b/", "http://other/x") == \
        "http://other/x"


def test_is_absolute() -> None:
    assert url.is_absolute("http://a/b")
    assert url.is_absolute("_:b0")
    assert url.is_absolute("urn:x")
    assert not url.is_absolute("relative/path")
    assert not url.is_absolute("http://bad space")


# --- JCS / number formatting ---

def test_jcs_sorted_and_escaped() -> None:
    assert jcs.canonicalize({"b": 1, "a": "x\ny"}) == '{"a":"x\\ny","b":1}'
    assert jcs.canonicalize([1.5, True, None, "é"]) == '[1.5,true,null,"é"]'


@pytest.mark.parametrize("num,expected", [
    (1, "1"), (5.0, "5"), (2.5, "2.5"), (1e21, "1e+21"),
    (1e-7, "1e-7"), (-0.0, "0"), (10.0, "10"),
])
def test_jcs_numbers(num, expected) -> None:
    assert jcs.es_number_to_string(num) == expected


@pytest.mark.parametrize("num,expected", [
    (2.5, "2.5E0"), (5.5e21, "5.5E21"), (1e21, "1.0E21"),
    (1.0e-7, "1.0E-7"), (123456789.123, "1.23456789123E8"),
    (-3.25, "-3.25E0"),
])
def test_double_canonical(num, expected) -> None:
    assert double_canonical(num) == expected


# --- IdentifierIssuer ---

def test_identifier_issuer_first_seen_order() -> None:
    issuer = IdentifierIssuer("_:b")
    assert issuer.get_id("x") == "_:b0"
    assert issuer.get_id("y") == "_:b1"
    assert issuer.get_id("x") == "_:b0"
    assert issuer.get_id() == "_:b2"  # anonymous, not recorded
    assert issuer.get_old_ids() == ["x", "y"]
    clone = issuer.clone()
    assert clone.get_id("x") == "_:b0"
    assert clone.get_id("z") == "_:b3"
    assert issuer.get_id("z") == "_:b3"


# --- value helpers ---

def test_compare_values() -> None:
    assert compare_values("a", "a")
    assert not compare_values(True, 1)  # JS === distinguishes these
    assert not compare_values(1, True)
    assert compare_values({"@value": "v", "@language": "en"},
                          {"@value": "v", "@language": "en"})
    assert not compare_values({"@value": "v"}, {"@value": "v", "@type": "t"})
    assert compare_values({"@id": "x"}, {"@id": "x", "other": 1})


def test_add_value_dedup() -> None:
    subj: dict = {}
    add_value(subj, "p", "a", property_is_array=True)
    add_value(subj, "p", "a", property_is_array=True, allow_duplicate=False)
    add_value(subj, "p", "b", property_is_array=True, allow_duplicate=False)
    assert subj == {"p": ["a", "b"]}



# value_key must match exactly when compare_values does: ValueIndex (the
# node map's duplicate suppression) relies on it. Shared objects make the
# identity cases (JS === on objects, NaN) come up.
_SHARED_JSON = {"a": [1]}
_SHARED_LIST = ["t"]
_SHARED_NAN = float("nan")
_ABSENT = object()

_components = st.one_of(
    st.sampled_from(["x", "y", "", 0, 1, 1.0, -0.0, True, False, None,
                     _SHARED_JSON, _SHARED_LIST, _SHARED_NAN]),
    st.builds(lambda: {"a": [1]}),      # equal to _SHARED_JSON, distinct
    st.builds(lambda: float("nan")),
)
_optional = st.one_of(st.just(_ABSENT), _components)


def _obj(**members) -> dict:
    return {"@" + k: v for k, v in members.items() if v is not _ABSENT}


_keyed_values = st.one_of(
    _components,
    st.builds(lambda v, t, lang, i: _obj(value=v, type=t, language=lang,
                                         index=i),
              _components, _optional, _optional, _optional),
    st.builds(lambda i, extra: {"@id": i, **({"other": 1} if extra else {})},
              _components, st.booleans()),
    st.builds(lambda: {"@list": []}),
    st.builds(dict),
)
# a value object with @id matches value objects by the 4-tuple and nodes
# by @id; it has no key and is compared by scan
_values = st.one_of(
    _keyed_values,
    st.builds(lambda v, i: {"@value": v, "@id": i}, _components,
              _components),
)


@pytest.mark.parametrize("a,b,equal", [
    (True, 1, False),
    (1, 1.0, True),
    ({"@value": True}, {"@value": 1}, False),
    ({"@value": 1}, {"@value": 1.0}, True),
    (_SHARED_NAN, _SHARED_NAN, True),          # the same object
    (float("nan"), float("nan"), False),
    ({"@value": _SHARED_NAN}, {"@value": _SHARED_NAN}, False),
    ({"@value": 1, "@language": None}, {"@value": 1}, False),
    ({"@value": "v", "@index": "i"}, {"@value": "v", "@index": "j"}, False),
    ({"@value": "v", "@index": "i"}, {"@value": "v", "@index": "i"}, True),
    ({"@id": "x"}, {"@id": "x", "other": 1}, True),
    ({"@id": "x"}, {"@value": "x"}, False),
    ({"@value": {"a": [1]}, "@type": "@json"},
     {"@value": {"a": [1]}, "@type": "@json"}, False),
    ({"@value": _SHARED_JSON, "@type": "@json"},
     {"@value": _SHARED_JSON, "@type": "@json"}, True),
    ({"@list": []}, {"@list": []}, False),
])
def test_value_key_cases(a, b, equal) -> None:
    assert compare_values(a, b) is equal
    assert (value_key(a) == value_key(b)) is equal
    assert value_key(a) == value_key(a)


@settings(max_examples=300, deadline=None)
@given(st.lists(_keyed_values, min_size=1, max_size=6))
def test_value_key_iff_compare_values(pool) -> None:
    for a in pool:
        for b in pool:
            ka, kb = value_key(a), value_key(b)
            assert ka is not None and kb is not None
            assert (ka == kb) == compare_values(a, b), (a, b)
            if ka == kb:
                assert hash(ka) == hash(kb)


def test_value_object_with_id_has_no_key() -> None:
    assert value_key({"@value": 1, "@id": "x"}) is None


@settings(max_examples=300, deadline=None)
@given(st.lists(_values, max_size=4),
       st.lists(st.tuples(st.sampled_from(["p", "q"]), _values),
                max_size=12))
def test_value_index_adds_what_add_value_adds(existing, adds) -> None:
    # ``existing`` stands in for a list an earlier call left (it may hold
    # duplicates); both subjects share every value object
    ref, got = {"p": list(existing)}, {"p": list(existing)}
    index = ValueIndex()
    for prop, v in adds:
        add_value(ref, prop, v, property_is_array=True, allow_duplicate=False)
        index.add(got, prop, v)
    assert list(ref) == list(got)
    for prop in ref:
        assert [id(v) for v in ref[prop]] == [id(v) for v in got[prop]]


def _conversation(n_turns: int) -> list:
    """An expanded conversation: one subject with n_turns hasTurn
    references, each given twice, plus n_turns tag literals."""
    turns = [{"@id": f"http://e/t{i}",
              "http://e/text": [{"@value": f"turn {i}"}]}
             for i in range(n_turns)]
    return [{"@id": "http://e/c",
             "http://e/hasTurn": turns + [{"@id": t["@id"]} for t in turns],
             "http://e/tag": [{"@value": f"tag {i}"}
                              for i in range(n_turns)]}]


def _node_map_comparisons(monkeypatch, n_turns: int) -> int:
    """compare_values calls made building and merging one conversation's
    node map."""
    calls = 0
    real = util.compare_values

    def counting(a, b):
        nonlocal calls
        calls += 1
        return real(a, b)

    with monkeypatch.context() as m:
        m.setattr(util, "compare_values", counting)
        graphs: dict = {"@default": {}}
        create_node_map(_conversation(n_turns), graphs, "@default",
                        IdentifierIssuer("_:b"))
        merged = merge_node_map_graphs(graphs)
    conv = merged["http://e/c"]
    assert len(conv["http://e/hasTurn"]) == n_turns
    assert len(conv["http://e/tag"]) == n_turns
    return calls


def test_node_map_dedup_work_does_not_grow_with_turns(monkeypatch) -> None:
    # util.js hasValue compares each added value with every value already
    # there: O(N²) for N turns. Counting comparisons, not time, keeps the
    # check exact on a loaded machine.
    assert _node_map_comparisons(monkeypatch, 4 * 64) == \
        _node_map_comparisons(monkeypatch, 64)


def test_merge_suppresses_duplicates_across_documents() -> None:
    # api.merge runs one create_node_map per document into the same map;
    # values the first document added must still count as duplicates
    got = api.merge([
        {"@id": "http://e/s", "http://e/p": ["a", "b"],
         "http://e/q": {"@id": "http://e/o"}},
        {"@id": "http://e/s", "http://e/p": ["b", "c"],
         "http://e/q": {"@id": "http://e/o"}},
    ])
    assert got == [{"@id": "http://e/s",
                    "http://e/p": [{"@value": "a"}, {"@value": "b"},
                                   {"@value": "c"}],
                    "http://e/q": [{"@id": "http://e/o"}]}]
    # @json literals still compare by identity: both copies stay
    lit = {"@value": {"a": 1}, "@type": "@json"}
    got = api.merge([{"@id": "http://e/s", "http://e/p": lit},
                     {"@id": "http://e/s", "http://e/p": lit}])
    assert got[0]["http://e/p"] == [lit, lit]


# --- JS string order ---
# ECMA-262: a String is a sequence of UTF-16 code units and .length counts
# them (The String Type); IsLessThan compares two strings code unit by
# code unit, and Array.prototype.sort's default SortCompare uses it. So
# U+10000 (units D800 DC00) sorts before U+E000 (unit E000), although its
# code point is larger, and its .length is 2.

_BMP = "http://e/\ue000"
_ASTRAL = "http://e/\U00010000"


def test_js_sorted_orders_by_utf16_code_units() -> None:
    assert js_sorted([_BMP, _ASTRAL, "http://e/"]) == \
        ["http://e/", _ASTRAL, _BMP]
    assert js_sorted({"b": 1, "a": 2}) == ["a", "b"]


def test_to_rdf_labels_blank_nodes_in_js_key_order() -> None:
    quads = api.to_rdf({"@id": "http://e/s",
                        _BMP: {"http://e/v": "bmp"},
                        _ASTRAL: {"http://e/v": "astral"}})
    labels = {q[2][1]: q[0][1] for q in quads if q[1][1] == "http://e/v"}
    assert labels == {"astral": "_:b0", "bmp": "_:b1"}


def test_flatten_orders_nodes_in_js_id_order() -> None:
    got = api.flatten([{"@id": _BMP, "http://e/p": "x"},
                       {"@id": _ASTRAL, "http://e/p": "y"}])
    assert [n["@id"] for n in got] == [_ASTRAL, _BMP]


def test_compare_shortest_least_uses_js_length_and_order() -> None:
    assert compare_shortest_least("\U00010000", "ab") == 1
    assert compare_shortest_least("ab", "\U00010000") == -1
    assert compare_shortest_least("\U00010000", "\ue000\ue000") == -1
    assert compare_shortest_least("\U00010000", "abc") == -1


def test_compact_term_choice_uses_js_length_and_order() -> None:
    # equal JS length (2 units each): "ab" < "\ud800\udc00"
    ctx = {"@context": {"\U00010000": "http://e/p", "ab": "http://e/p"}}
    assert "ab" in api.compact({"http://e/p": "v"}, ctx)
    ctx = {"@context": {"\U00010000": "http://e/a/", "ab": "http://e/a/"}}
    assert "ab:x" in api.compact({"http://e/a/x": "v"}, ctx)

# --- N-Quads ---

def test_nquads_roundtrip() -> None:
    quads = [
        (("NamedNode", "http://e/s"), ("NamedNode", "http://e/p"),
         ("Literal", 'say "hi"\n', "http://www.w3.org/2001/XMLSchema#string",
          None), ("DefaultGraph", "")),
        (("BlankNode", "_:b0"), ("NamedNode", "http://e/p"),
         ("Literal", "x", "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString",
          "en-us"), ("NamedNode", "http://e/g")),
    ]
    text = nquads.serialize(quads)
    parsed = nquads.parse(text)
    assert sorted(parsed) == sorted(quads)


def test_nquads_comments_fixture() -> None:
    """The reference's local fromRdf manifest test #t0007
    (tests/manifest.jsonld:45-50)."""
    with open(os.path.join(REF, "tests/fromRdf-0001-in.nq")) as f:
        nq = f.read()
    with open(os.path.join(REF, "tests/fromRdf-0001-out.jsonld")) as f:
        expected = json.load(f)
    result = api.from_rdf(nq)
    assert result == expected


# --- URDNA2015 ---

def test_canonize_deterministic_across_input_label_permutations() -> None:
    doc_a = {"@context": {"ex": "http://example.org/"},
             "@graph": [{"@id": "_:x", "ex:p": {"@id": "_:y"}},
                        {"@id": "_:y", "ex:p": {"@id": "_:x"}}]}
    doc_b = {"@context": {"ex": "http://example.org/"},
             "@graph": [{"@id": "_:m", "ex:p": {"@id": "_:n"}},
                        {"@id": "_:n", "ex:p": {"@id": "_:m"}}]}
    assert api.canonize(doc_a) == api.canonize(doc_b)


def test_canonize_symmetric_cycle_needs_ndegree() -> None:
    # two structurally identical bnodes — requires hash-N-degree tiebreak
    doc = {"@context": {"ex": "http://example.org/"},
           "@graph": [
               {"@id": "_:a", "ex:p": [{"@id": "_:b"}]},
               {"@id": "_:b", "ex:p": [{"@id": "_:a"}]},
           ]}
    out = api.canonize(doc)
    assert "_:c14n0" in out and "_:c14n1" in out
    # stable across repeated runs
    assert out == api.canonize(doc)


def test_canonize_nquads_input() -> None:
    nq = ('_:z <http://e/p> _:q .\n'
          '_:q <http://e/p> "v" .\n')
    out = api.canonize(nq, {"inputFormat": "application/n-quads"})
    # labels are hash-ordered; structure must be preserved and stable
    assert out == ('_:c14n0 <http://e/p> _:c14n1 .\n'
                   '_:c14n1 <http://e/p> "v" .\n')
    relabeled = nq.replace("_:z", "_:k").replace("_:q", "_:j")
    assert api.canonize(
        relabeled, {"inputFormat": "application/n-quads"}) == out


# --- fromRdf round-trip through toRdf ---

def test_tordf_fromrdf_roundtrip() -> None:
    doc = {"@context": {"ex": "http://example.org/"},
           "@id": "http://example.org/s",
           "ex:list": {"@list": [1, "two"]},
           "ex:val": {"@value": "x", "@language": "en"}}
    quads = api.to_rdf(doc)
    back = api.from_rdf(quads)
    quads2 = api.to_rdf(back, {"skipExpansion": True})
    assert canonize_mod.canonize(quads) == canonize_mod.canonize(quads2)


def test_canonize_work_limit_guards_adversarial_cliques():
    """Symmetric bnode cliques drive hash-N-degree factorial; the work
    limit turns a multi-minute hang into a coded error."""
    from jsonld_js_ray.core import canonize as cz
    from jsonld_js_ray.core.errors import JsonLdError

    def clique(k):
        return [(("BlankNode", f"_:n{i}"), ("NamedNode", "http://e/p"),
                 ("BlankNode", f"_:n{j}"), ("DefaultGraph", ""))
                for i in range(k) for j in range(k) if i != j]

    # small symmetric structures still canonize fine
    assert "_:c14n5" in cz.canonize(clique(6))
    with pytest.raises(JsonLdError) as e:
        cz.canonize(clique(10))
    assert e.value.code == "complexity limit exceeded"
    # raised budget allows medium cases
    out = cz.canonize(clique(7), max_work=10_000_000)
    assert "_:c14n6" in out


def test_list_object_inside_graph_container_drops_like_reference():
    """A bare @list as a @graph element is indexed under the JS
    'undefined' key and dropped as a relative IRI by toRDF — the engine
    replicates the reference (found by mega-fuzz; was a crash)."""
    doc = {"@context": {"g": {"@id": "http://e/g",
                              "@container": "@graph"}},
           "@id": "http://e/s", "g": {"@list": ["x"]}}
    quads = api.to_rdf(doc)
    lines = canonize_mod.canonize(quads).strip().split("\n")
    assert lines == ["<http://e/s> <http://e/g> _:c14n0 ."]


def test_crlf_nquads_accepted():
    out = api.from_rdf('<http://a/s> <http://a/p> "c" .\r\n'
                       '<http://a/s> <http://a/p> "d" .\r')
    assert len(out[0]["http://a/p"]) == 2


def test_url_string_input_dereferences():
    from jsonld_js_ray.core.errors import JsonLdError
    docs = {"http://ex.org/doc": {
        "@context": {"p": {"@id": "http://e/p", "@type": "@id"}},
        "@id": "node", "p": "other"}}
    out = api.expand("http://ex.org/doc", {"documents": docs})
    # document URL becomes the base for relative IRIs
    assert out[0]["@id"] == "http://ex.org/node"
    with pytest.raises(JsonLdError) as e:
        api.expand("http://nope.example/x")
    assert e.value.code == "loading document failed"


def test_format_aliases_and_unknown_formats():
    from jsonld_js_ray.core.errors import JsonLdError

    doc = {"@id": "http://e/s", "http://e/p": "v"}
    nq1 = api.to_rdf(doc, {"format": "application/nquads"})
    nq2 = api.to_rdf(doc, {"format": "application/n-quads"})
    assert isinstance(nq1, str) and nq1 == nq2
    with pytest.raises(JsonLdError):
        api.to_rdf(doc, {"format": "text/turtle"})
    nq = '<http://a/s> <http://a/p> "c" .\n'
    assert api.canonize(nq, {"inputFormat": "application/nquads"}) == nq
    with pytest.raises(JsonLdError):
        api.canonize(nq, {"inputFormat": "text/turtle"})


def test_i18n_datatype_without_direction():
    quads = [(("NamedNode", "http://a/s"), ("NamedNode", "http://a/p"),
              ("Literal", "x", "https://www.w3.org/ns/i18n#en", None),
              ("DefaultGraph", ""))]
    out = api.from_rdf(quads, {"rdfDirection": "i18n-datatype"})
    v = out[0]["http://a/p"][0]
    assert v == {"@value": "x", "@language": "en"}


def test_native_types_reject_nonfinite_strings():
    xsd = "http://www.w3.org/2001/XMLSchema#"
    quads = [(("NamedNode", "http://a/s"), ("NamedNode", "http://a/p"),
              ("Literal", lex, xsd + "double", None), ("DefaultGraph", ""))
             for lex in ("NaN", "Infinity", "1_0")]
    out = api.from_rdf(quads, {"useNativeTypes": True})
    vals = out[0]["http://a/p"]
    for v in vals:
        assert isinstance(v["@value"], str)     # NOT coerced to float
        # reference quirk: under useNativeTypes the xsd:double @type is
        # dropped even when conversion failed (fromRdf.js "do not add
        # native type" applies to the whole XSD set)
        assert "@type" not in v


def test_negative_zero_and_infinity_literals():
    from jsonld_js_ray.core.to_rdf import double_canonical, parse_float_js

    assert double_canonical(-0.0) == "0.0E0"
    assert parse_float_js("Infinity") == float("inf")
    assert parse_float_js("-Infinity") == float("-inf")
    q = api.to_rdf({"@id": "http://e/s",
                    "http://e/p": {"@value": "Infinity",
                                   "@type": "http://www.w3.org/2001/XMLSchema#double"}})
    assert q[0][2][1] == "Infinity"


def test_default_port_strip_keeps_path_colons():
    from jsonld_js_ray.core.url import parse_url

    p = parse_url("https://example.com:443/a:443/b")
    assert p.href == "https://example.com/a:443/b"


def test_utf16_code_unit_sort_in_canonical_nquads():
    quads = [
        (("NamedNode", "http://a/s"), ("NamedNode", "http://a/p"),
         ("Literal", "", "http://www.w3.org/2001/XMLSchema#string",
          None), ("DefaultGraph", "")),
        (("NamedNode", "http://a/s"), ("NamedNode", "http://a/p"),
         ("Literal", "\U00010000", "http://www.w3.org/2001/XMLSchema#string",
          None), ("DefaultGraph", "")),
    ]
    lines = nquads.serialize(quads).rstrip("\n").split("\n")
    # JS sorts the astral char first (surrogate 0xD800 < 0xE000)
    assert "\U00010000" in lines[0] and "" in lines[1]

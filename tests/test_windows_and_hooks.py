"""Tests: expansionMap/compactionMap hooks, link, load_document."""

from __future__ import annotations

import pytest

import jsonld_js_ray as jl
from jsonld_js_ray.api import load_document
from jsonld_js_ray.core.errors import JsonLdError


def test_expansion_map_hook_surfaces():
    seen = []

    def hook(info):
        seen.append(info)
        if "unmappedProperty" in info:
            return "http://hook.example/" + info["unmappedProperty"]
        return None

    out = jl.expand(
        {"@context": {"ex": "http://e/"}, "@id": "http://e/s",
         "oops": "v", "ex:p": None},
        {"expansionMap": hook})
    assert "http://hook.example/oops" in out[0]
    # every firing is one of the reference's info shapes
    site_keys = ("unmappedProperty", "unmappedValue", "prependedIri",
                 "relativeIri")
    assert all(any(k in i for k in site_keys) for i in seen)
    assert any("unmappedProperty" in i for i in seen)
    assert any("unmappedValue" in i for i in seen)
    # default behavior unchanged without hook
    out2 = jl.expand({"@context": {"ex": "http://e/"}, "@id": "http://e/s",
                      "oops": "v", "ex:kept": "w"})
    assert list(out2[0].keys()) == ["@id", "http://e/kept"]


def test_link_shares_nodes_in_memory():
    doc = {
        "@context": {"ex": "http://e/", "knows": {"@id": "http://e/knows",
                                                  "@type": "@id"}},
        "@graph": [
            {"@id": "http://e/a", "knows": "http://e/b"},
            {"@id": "http://e/b", "ex:name": "B"},
        ],
    }
    linked = jl.link(doc, {"ex": "http://e/"})
    graph = linked.get("@graph", [linked])
    nodes = {n.get("@id"): n for n in graph if isinstance(n, dict)}
    a = nodes["ex:a"]
    embedded_b = a["ex:knows"]
    # @embed:@link embeds the full node under the reference
    assert embedded_b["@id"] == "ex:b" and embedded_b["ex:name"] == "B"


def test_load_document_surface():
    docs = {"http://x.example/d": {"@context": {}, "@id": "http://x/1"}}
    rec = load_document("http://x.example/d", {"documents": docs})
    assert rec["document"]["@id"] == "http://x/1"

    def loader(url):
        return {"document": {"loaded": url}}

    rec2 = load_document("http://y.example/", {"documentLoader": loader})
    assert rec2["document"] == {"loaded": "http://y.example/"}
    assert rec2["documentUrl"] == "http://y.example/"

    # reference contract: a dict return is ALWAYS a record — one
    # without 'document' is malformed, never silently a raw doc
    def bad_loader(url):
        return {"loaded": url}

    with pytest.raises(JsonLdError) as e:
        load_document("http://y.example/", {"documentLoader": bad_loader})
    assert e.value.code == "loading document failed"

    with pytest.raises(JsonLdError) as e:
        load_document("http://nope.example/")
    assert e.value.code == "loading document failed"


def test_compaction_map_hook():
    import jsonld_js_ray as jl

    seen = []

    def hook(info):
        seen.append(info["unmappedValue"])
        return {"rescued": True}

    # a null compaction result arises from e.g. None items post-framing;
    # simulate via skipExpansion with a None element in the array
    out = jl.compact([None, {"@id": "http://e/s"}], {"ex": "http://e/"},
                     {"skipExpansion": True, "compactionMap": hook})
    assert {"rescued": True} in out["@graph"]
    assert seen == [None]


# --- expansionMap call-site parity (reference tests/misc.js:482-1008) ---

def _expand_collecting(doc, collect_key):
    import jsonld_js_ray as jl

    seen = []

    def hook(info):
        if collect_key in info:
            seen.append(info[collect_key])

    out = jl.expand(doc, {"expansionMap": hook})
    return out, seen


def test_expansion_map_unmapped_property_flat_and_nested():
    doc = {"@context": {"definedTerm": "https://example.com#definedTerm"},
           "definedTerm": "is defined", "testUndefined": "is undefined"}
    _, seen = _expand_collecting(doc, "unmappedProperty")
    assert "testUndefined" in seen

    nested = {"@context": {"definedTerm": "https://example.com#d"},
              "definedTerm": {"testUndefined": "is undefined"}}
    _, seen = _expand_collecting(nested, "unmappedProperty")
    assert "testUndefined" in seen


def test_expansion_map_relative_iri_sites():
    # @id term (misc.js:529) + nested (misc.js:550)
    doc = {"@context": {"definedTerm": "https://example.com#d"},
           "@id": "relativeiri", "definedTerm": "is defined"}
    _, seen = _expand_collecting(doc, "relativeIri")
    assert "relativeiri" in seen

    nested = {"@context": {"definedTerm": "https://example.com#d"},
              "@id": "urn:absoluteIri",
              "definedTerm": {"@id": "relativeiri"}}
    _, seen = _expand_collecting(nested, "relativeIri")
    assert "relativeiri" in seen

    # @type term (misc.js:595)
    tdoc = {"@context": {"definedTerm": "https://example.com#d"},
            "@id": "urn:x", "@type": "relativeiri"}
    _, seen = _expand_collecting(tdoc, "relativeIri")
    assert "relativeiri" in seen
    # typeExpansion flag is set on the @type path
    import jsonld_js_ray as jl

    flags = []
    jl.expand(tdoc, {"expansionMap": lambda info: flags.append(
        info.get("typeExpansion")) if "relativeIri" in info else None})
    assert True in flags


def test_expansion_map_prepended_iri_vocab_and_base():
    import jsonld_js_ray as jl

    vdoc = {"@context": {"@vocab": "http://v/"},
            "@id": "urn:x", "@type": "t", "http://v/p": "v"}
    infos = []
    jl.expand(vdoc, {"expansionMap": lambda info: infos.append(
        info["prependedIri"]) if "prependedIri" in info else None})
    vocab_hits = [i for i in infos if i["type"] == "@vocab"]
    assert any(i["value"] == "t" and i["result"] == "http://v/t"
               and i["typeExpansion"] for i in vocab_hits)

    bdoc = {"@context": {"@base": "http://b/"}, "@id": "x",
            "http://e/p": "v"}
    infos = []
    jl.expand(bdoc, {"expansionMap": lambda info: infos.append(
        info["prependedIri"]) if "prependedIri" in info else None})
    base_hits = [i for i in infos if i["type"] == "@base"]
    assert any(i["value"] == "x" and i["result"] == "http://b/x"
               for i in base_hits)


def test_expansion_map_array_element_drop_site():
    """Only-@language objects expand to null; inside an array the hook
    fires with parent/index and can resurrect the element."""
    import jsonld_js_ray as jl

    doc = {"@context": {"p": "http://e/p"},
           "p": [{"@language": "en"}, "kept"]}
    infos = []

    def hook(info):
        infos.append(info)

    jl.expand(doc, {"expansionMap": hook})
    arr_sites = [i for i in infos if "index" in i and "parent" in i]
    assert arr_sites, infos

    # resurrect: a returned mapping replaces the dropped element
    def rescue(info):
        if "index" in info:
            return {"@value": "rescued"}

    out = jl.expand(doc, {"expansionMap": rescue})
    vals = out[0]["http://e/p"]
    assert {"@value": "rescued"} in vals


def test_expansion_map_null_value_site():
    import jsonld_js_ray as jl

    doc = {"@context": {"p": "http://e/p"}, "@id": "urn:s", "p": None}
    infos = []
    jl.expand(doc, {"expansionMap": lambda i: infos.append(i)})
    assert any(i.get("expandedProperty") == "http://e/p"
               and i.get("key") == "p" for i in infos)


def test_expansion_map_info_carries_ctx_and_options():
    import jsonld_js_ray as jl

    doc = {"@context": {"d": "https://example.com#d"},
           "d": "x", "und": "y"}
    infos = []
    jl.expand(doc, {"expansionMap": lambda i: infos.append(i)})
    site = [i for i in infos if i.get("unmappedProperty") == "und"][0]
    assert "activeCtx" in site and "options" in site
    assert "parent" in site and "expandedParent" in site

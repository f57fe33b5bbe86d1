"""Deserialize JSON-LD to RDF (expanded input → quads).

Same semantics as the reference (/root/reference/lib/toRdf.js:48-280):
node map → sorted graphs/subjects/properties → quads, @list → rdf:first/
rest/nil cons chains with fresh bnodes, literal coercion (XSD boolean/
integer/double canonical forms, @json via JCS, i18n-datatype, langString),
relative-IRI subject/predicate/object drops, bnode-predicate drop unless
producing generalized RDF.

Quad representation (engine-native, Arrow-friendly):
    term  = ("NamedNode"|"BlankNode", value)
          | ("Literal", value, datatype_iri, language_or_None)
          | ("DefaultGraph", "")
    quad  = (subject_term, predicate_term, object_term, graph_term)
"""

from __future__ import annotations

from typing import Any

from . import jcs as _jcs
from .constants import (
    RDF_FIRST, RDF_JSON_LITERAL, RDF_LANGSTRING, RDF_NIL, RDF_REST, RDF_TYPE,
    XSD_BOOLEAN, XSD_DOUBLE, XSD_INTEGER, XSD_STRING,
)
from .errors import JsonLdError
from .nodemap import create_node_map
from .types import is_double, is_keyword, is_list, is_number, is_value
from .url import is_absolute
from .util import IdentifierIssuer, js_sorted

Term = tuple
Quad = tuple


_PARSE_FLOAT_RE = __import__("re").compile(
    r"^[\s]*[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


_PARSE_INF_RE = __import__("re").compile(r"^\s*([+-]?)Infinity")


def parse_float_js(v) -> float:
    """ES ``parseFloat``: longest numeric prefix (incl. Infinity),
    else NaN."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    s = str(v)
    m = _PARSE_INF_RE.match(s)
    if m:
        return float("-inf") if m.group(1) == "-" else float("inf")
    m = _PARSE_FLOAT_RE.match(s)
    return float(m.group(0)) if m else float("nan")


def double_canonical(value: float) -> str:
    """Canonical xsd:double form: ES ``toExponential(15)`` then
    ``/(\\d)0*e\\+?/ → '$1E'`` (toRdf.js:242)."""
    value = float(value)
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "Infinity"
    if value == float("-inf"):
        return "-Infinity"
    if value == 0:
        value = 0.0    # JS -0 prints unsigned ('0.0E0')
    s = f"{float(value):.15e}"
    mant, exp = s.split("e")
    expi = int(exp)
    # strip trailing zeros but keep >= 1 fractional digit (the reference
    # regex keeps the first zero it matches, i.e. '5.0E0', '1.0E21')
    mant = mant.rstrip("0")
    if mant.endswith("."):
        mant += "0"
    return f"{mant}E{expi}"


def to_rdf(input_: Any, options: dict | None = None) -> list[Quad]:
    """Expanded JSON-LD → list of quads (toRdf.js:48-75)."""
    options = options or {}
    issuer = IdentifierIssuer("_:b")
    node_map: dict[str, dict] = {"@default": {}}
    create_node_map(input_, node_map, "@default", issuer)

    dataset: list[Quad] = []
    for graph_name in js_sorted(node_map):
        if graph_name == "@default":
            graph_term: Term = ("DefaultGraph", "")
        elif is_absolute(graph_name):
            if graph_name.startswith("_:"):
                graph_term = ("BlankNode", graph_name)
            else:
                graph_term = ("NamedNode", graph_name)
        else:
            continue  # skip relative-IRI graph names
        _graph_to_rdf(dataset, node_map[graph_name], graph_term, issuer,
                      options)
    return dataset


def _graph_to_rdf(dataset: list, graph: dict, graph_term: Term,
                  issuer: IdentifierIssuer, options: dict) -> None:
    """(toRdf.js:88-145)"""
    produce_generalized = bool(options.get("produceGeneralizedRdf"))
    rdf_direction = options.get("rdfDirection")
    for id_ in js_sorted(graph):
        node = graph[id_]
        # relative-IRI subjects produce no quads (checked per item in the
        # reference, toRdf.js:108-111 — invariant per node, hoisted here)
        subject_ok = is_absolute(id_)
        subject: Term = (
            "BlankNode" if id_.startswith("_:") else "NamedNode", id_)
        for prop in js_sorted(node):
            items = node[prop]
            if prop == "@type":
                prop = RDF_TYPE
            elif is_keyword(prop):
                continue

            if not subject_ok:
                continue
            # relative-IRI / bnode predicate checks (toRdf.js:119-128),
            # invariant per property
            if not is_absolute(prop):
                continue
            pred_is_bnode = prop.startswith("_:")
            if pred_is_bnode and not produce_generalized:
                continue
            predicate: Term = (
                "BlankNode" if pred_is_bnode else "NamedNode", prop)

            for item in items:
                obj = _object_to_rdf(item, issuer, dataset, graph_term,
                                     rdf_direction)
                if obj is not None:
                    dataset.append((subject, predicate, obj, graph_term))


def _list_to_rdf(list_: list, issuer: IdentifierIssuer, dataset: list,
                 graph_term: Term, rdf_direction: Any) -> Term:
    """@list → cons chain; returns the head term (toRdf.js:158-204)."""
    first: Term = ("NamedNode", RDF_FIRST)
    rest: Term = ("NamedNode", RDF_REST)
    nil: Term = ("NamedNode", RDF_NIL)

    items = list(list_)
    last = items.pop() if items else None
    result: Term = ("BlankNode", issuer.get_id()) if last is not None else nil
    subject = result

    for item in items:
        obj = _object_to_rdf(item, issuer, dataset, graph_term, rdf_direction)
        nxt: Term = ("BlankNode", issuer.get_id())
        dataset.append((subject, first, obj, graph_term))
        dataset.append((subject, rest, nxt, graph_term))
        subject = nxt

    if last is not None:
        obj = _object_to_rdf(last, issuer, dataset, graph_term, rdf_direction)
        dataset.append((subject, first, obj, graph_term))
        dataset.append((subject, rest, nil, graph_term))

    return result


def _object_to_rdf(item: Any, issuer: IdentifierIssuer, dataset: list,
                   graph_term: Term, rdf_direction: Any) -> Term | None:
    """Value/list/node object → RDF term (toRdf.js:217-280)."""
    if is_value(item):
        value = item["@value"]
        datatype = item.get("@type")

        if datatype == "@json":
            return ("Literal", _jcs.canonicalize(value), RDF_JSON_LITERAL,
                    None)
        if isinstance(value, bool):
            return ("Literal", "true" if value else "false",
                    datatype or XSD_BOOLEAN, None)
        if is_double(value) or datatype == XSD_DOUBLE:
            if not is_number(value):
                # reference: parseFloat, NaN for non-numeric strings
                value = parse_float_js(value)
            return ("Literal", double_canonical(value),
                    datatype or XSD_DOUBLE, None)
        if is_number(value):
            if isinstance(value, float):
                if value != value:
                    lex = "NaN"           # (NaN).toFixed(0)
                elif value == float("inf"):
                    lex = "Infinity"
                elif value == float("-inf"):
                    lex = "-Infinity"
                elif value == 0:
                    lex = "0"          # (-0).toFixed(0) === '0'
                else:
                    lex = f"{value:.0f}"
            else:
                # toRdf.js:245 value.toFixed(0) operates on a FLOAT64
                # (a JS engine can't hold 2^53+1 exactly — JSON.parse
                # already rounded it), so a Python bigint must round
                # through float64 here for lexical parity; |v| < 1e21
                # is guaranteed by the is_double gate above
                f = float(value)
                lex = str(value) if int(f) == value else f"{f:.0f}"
            return ("Literal", lex, datatype or XSD_INTEGER, None)
        if rdf_direction == "i18n-datatype" and "@direction" in item:
            dt = ("https://www.w3.org/ns/i18n#"
                  + (item.get("@language") or "")
                  + "_" + item["@direction"])
            return ("Literal", value, dt, None)
        if "@language" in item:
            return ("Literal", value, datatype or RDF_LANGSTRING,
                    item["@language"])
        return ("Literal", value, datatype or XSD_STRING, None)

    if is_list(item):
        head = _list_to_rdf(item["@list"], issuer, dataset, graph_term,
                            rdf_direction)
        return head

    # node object / string id
    id_ = item["@id"] if isinstance(item, dict) else item
    if not isinstance(id_, str):
        raise JsonLdError("invalid node reference in toRDF",
                          "jsonld.RdfError")
    term: Term = ("BlankNode" if id_.startswith("_:") else "NamedNode", id_)
    if term[0] == "NamedNode" and not is_absolute(id_):
        return None
    return term

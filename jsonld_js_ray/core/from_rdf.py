"""Serialize RDF quads to expanded JSON-LD.

Same semantics as the reference (/root/reference/lib/fromRdf.js:45-347):
per-graph node maps, referencedOnce tracking, backwards rdf:nil list
reassembly with well-formedness rules, native-type and @json literal
conversion, i18n-datatype splitting.
"""

from __future__ import annotations

import json
import re
import warnings
from typing import Any

from .constants import (
    RDF_FIRST, RDF_JSON_LITERAL, RDF_LIST, RDF_NIL, RDF_REST, RDF_TYPE,
    XSD_BOOLEAN, XSD_DOUBLE, XSD_INTEGER, XSD_STRING,
)
from .errors import JsonLdError
from .types import is_blank_node, is_subject_reference
from .util import add_value, js_sorted

REGEX_BCP47 = re.compile(r"^[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8})*$")


def from_rdf(dataset: list[tuple], options: dict | None = None) -> list:
    """Quads → expanded JSON-LD (fromRdf.js:45-271)."""
    options = options or {}
    use_rdf_type = bool(options.get("useRdfType"))
    use_native_types = bool(options.get("useNativeTypes"))
    rdf_direction = options.get("rdfDirection")

    default_graph: dict[str, dict] = {}
    graph_map: dict[str, dict] = {"@default": default_graph}
    referenced_once: dict[str, Any] = {}

    for quad in dataset:
        s_term, p_term, o_term, g_term = quad
        name = "@default" if g_term[0] == "DefaultGraph" else g_term[1]
        node_map = graph_map.setdefault(name, {})
        if name != "@default" and name not in default_graph:
            default_graph[name] = {"@id": name}

        s = s_term[1]
        p = p_term[1]

        node = node_map.setdefault(s, {"@id": s})

        object_is_node = o_term[0].endswith("Node")
        if object_is_node and o_term[1] not in node_map:
            node_map[o_term[1]] = {"@id": o_term[1]}

        if p == RDF_TYPE and not use_rdf_type and object_is_node:
            add_value(node, "@type", o_term[1], property_is_array=True)
            continue

        value = _rdf_to_object(o_term, use_native_types, rdf_direction)
        add_value(node, p, value, property_is_array=True)

        if object_is_node:
            if o_term[1] == RDF_NIL:
                obj_node = node_map[o_term[1]]
                obj_node.setdefault("usages", []).append(
                    {"node": node, "property": p, "value": value})
            elif o_term[1] in referenced_once:
                referenced_once[o_term[1]] = False
            else:
                referenced_once[o_term[1]] = {
                    "node": node, "property": p, "value": value}

    # convert linked lists to @list arrays (fromRdf.js:186-246)
    for name, graph_object in graph_map.items():
        if RDF_NIL not in graph_object:
            continue
        nil = graph_object[RDF_NIL]
        usages = nil.get("usages")
        if not usages:
            continue
        for usage in usages:
            node = usage["node"]
            prop = usage["property"]
            head = usage["value"]
            list_: list = []
            list_nodes: list[str] = []

            node_key_count = len(node)
            while (
                prop == RDF_REST
                and isinstance(referenced_once.get(node.get("@id")), dict)
                and isinstance(node.get(RDF_FIRST), list)
                and len(node[RDF_FIRST]) == 1
                and isinstance(node.get(RDF_REST), list)
                and len(node[RDF_REST]) == 1
                and (
                    node_key_count == 3
                    or (node_key_count == 4
                        and isinstance(node.get("@type"), list)
                        and len(node["@type"]) == 1
                        and node["@type"][0] == RDF_LIST)
                )
            ):
                list_.append(node[RDF_FIRST][0])
                list_nodes.append(node["@id"])
                usage = referenced_once[node["@id"]]
                node = usage["node"]
                prop = usage["property"]
                head = usage["value"]
                node_key_count = len(node)
                if not is_blank_node(node):
                    break

            head.pop("@id", None)
            list_.reverse()
            head["@list"] = list_
            for list_node in list_nodes:
                graph_object.pop(list_node, None)
        nil.pop("usages", None)

    result = []
    for subject in js_sorted(default_graph):
        node = default_graph[subject]
        if subject in graph_map:
            graph_nodes = node["@graph"] = []
            graph_object = graph_map[subject]
            for graph_subject in js_sorted(graph_object):
                gnode = graph_object[graph_subject]
                gnode.pop("usages", None)
                if not is_subject_reference(gnode):
                    graph_nodes.append(gnode)
        node.pop("usages", None)
        if not is_subject_reference(node):
            result.append(node)
    return result


def _rdf_to_object(o: tuple, use_native_types: bool,
                   rdf_direction: Any) -> dict:
    """RDF term → JSON-LD value (fromRdf.js:281-347)."""
    if o[0].endswith("Node"):
        return {"@id": o[1]}

    _, value, datatype, language = o
    rval: dict[str, Any] = {"@value": value}

    if language:
        rval["@language"] = language
        return rval

    type_ = datatype or XSD_STRING
    if type_ == RDF_JSON_LITERAL:
        type_ = "@json"
        try:
            rval["@value"] = json.loads(rval["@value"])
        except Exception as e:
            raise JsonLdError(
                "JSON literal could not be parsed.",
                "jsonld.InvalidJsonLiteral", code="invalid JSON literal",
                details={"value": rval["@value"]}) from e
    if use_native_types:
        v = rval["@value"]
        if type_ == XSD_BOOLEAN:
            if v == "true":
                rval["@value"] = True
            elif v == "false":
                rval["@value"] = False
        elif isinstance(v, str) and _is_numeric(v):
            if type_ == XSD_INTEGER:
                try:
                    i = int(v, 10)
                    # JS roundtrip check is DOUBLE-precision
                    # (fromRdf.js:318-321: parseInt yields a float64,
                    # toFixed(0) must reproduce the lexical form):
                    # above 2^53 parseInt loses digits, and toFixed
                    # goes exponential at |x| >= 1e21 — both keep the
                    # value a string. Python's int() is arbitrary-
                    # precision, so mirror the float64 gate explicitly.
                    f = float(i)
                    if abs(f) < 1e21 and int(f) == i and str(i) == v:
                        rval["@value"] = i
                except (ValueError, OverflowError):
                    pass
            elif type_ == XSD_DOUBLE:
                # parseFloat, not Number: the longest numeric PREFIX
                # ('0x10' -> 0.0 — isNumeric let it through via the
                # Number() leg, fromRdf.js:322 then parseFloats it)
                from .to_rdf import parse_float_js

                rval["@value"] = parse_float_js(v)
        if type_ not in (XSD_BOOLEAN, XSD_INTEGER, XSD_DOUBLE, XSD_STRING):
            rval["@type"] = type_
    elif rdf_direction == "i18n-datatype" and \
            type_.startswith("https://www.w3.org/ns/i18n#"):
        parts = re.split(r"[#_]", type_)
        lang = parts[1] if len(parts) > 1 else ""
        direction = parts[2] if len(parts) > 2 else None
        if lang:
            rval["@language"] = lang
            if not REGEX_BCP47.match(lang):
                warnings.warn(f"@language must be valid BCP47: {lang}")
        if direction is not None:
            # a missing direction is JS `undefined` → key dropped on
            # serialization; omit it here
            rval["@direction"] = direction
    elif type_ != XSD_STRING:
        rval["@type"] = type_
    return rval


_NUMERIC_RE = re.compile(
    r"^[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")

# the whitespace Number() trims (ES ToNumber: WhiteSpace +
# LineTerminator: ASCII ws, NBSP, Ogham, the 2000-200A range,
# LS/PS, NNBSP, MMSP, ideographic space, BOM)
_JS_WS = ("\t\n\x0b\x0c\r \xa0\u1680"
          "\u2000\u2001\u2002\u2003\u2004\u2005\u2006"
          "\u2007\u2008\u2009\u200a\u2028\u2029\u202f"
          "\u205f\u3000\ufeff")


def _js_number(v: str) -> float | None:
    """ES ``Number(v)`` string coercion; None models NaN. Accepts the
    radix-prefixed forms ('0x1A', '0o17', '0b101' — unsigned only),
    'Infinity', '' -> 0, and strict decimal; rejects trailing junk."""
    s = v.strip(_JS_WS)
    if s == "":
        return 0.0
    low = s.lower()
    for pre, base, digits in (("0x", 16, "0123456789abcdef"),
                              ("0o", 8, "01234567"),
                              ("0b", 2, "01")):
        if low.startswith(pre):
            # the ES radix grammar allows ONLY bare digits after the
            # prefix — no sign, no whitespace, no underscores (all of
            # which Python's int(s, base) would tolerate)
            body = low[2:]
            if body and all(c in digits for c in body):
                return float(int(body, base))
            return None
    if s in ("Infinity", "+Infinity"):
        return float("inf")
    if s == "-Infinity":
        return float("-inf")
    if _NUMERIC_RE.match(s):
        return float(s)
    return None


def _is_numeric(v: str) -> bool:
    """JS isNumeric (types.js:64: !isNaN(parseFloat(v)) && isFinite(v)).

    BOTH legs matter: parseFloat takes the longest numeric PREFIX
    (so '0x10' passes via its leading '0'), while isFinite coerces
    the WHOLE string through Number() (so '5abc' fails, '0x10'
    passes as 16, and overflow forms like '1e310' fail the finite
    check and stay strings)."""
    if not isinstance(v, str):
        return False
    from .to_rdf import parse_float_js

    pf = parse_float_js(v)
    if pf != pf:                      # parseFloat gave NaN
        return False
    num = _js_number(v)
    return num is not None and num == num and \
        num not in (float("inf"), float("-inf"))

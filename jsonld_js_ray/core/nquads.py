"""RDF 1.1 N-Quads parser and canonical serializer.

The reference re-exports these from the removed rdf-canonize package
(/root/reference/lib/NQuads.js:7), so this is a from-scratch implementation
of the public N-Quads grammar (https://www.w3.org/TR/n-quads/), including
comment lines (see reference fixture tests/fromRdf-0001-in.nq:2,4).

Terms use the engine quad representation (see core/to_rdf.py).
"""

from __future__ import annotations

import re

from .constants import XSD_STRING
from .errors import JsonLdError
from .util import js_sorted

_IRI = r"<([^\x00-\x20<>\"{}|^`\\]*)>"
_BNODE = r"(_:(?:[A-Za-z0-9_]|[^\x00-\x7F])(?:[A-Za-z0-9_.\-]|[^\x00-\x7F])*)"
_PLAIN = r'"((?:[^"\\\n\r]|\\.)*)"'
_DATATYPE = rf"\^\^{_IRI}"
_LANGUAGE = r"@([a-zA-Z]+(?:-[a-zA-Z0-9]+)*)"
_LITERAL = rf"(?:{_PLAIN}(?:{_DATATYPE}|{_LANGUAGE})?)"
_WS = r"[ \t]+"
_WSO = r"[ \t]*"

_QUAD_RE = re.compile(
    rf"^{_WSO}(?:{_IRI}|{_BNODE}){_WS}{_IRI}{_WS}"
    rf"(?:{_IRI}|{_BNODE}|{_LITERAL})"
    rf"(?:{_WS}(?:{_IRI}|{_BNODE}))?{_WSO}\.{_WSO}(?:#.*)?$"
)
_EMPTY_RE = re.compile(r"^[ \t]*(?:#.*)?$")

_UNESCAPE_RE = re.compile(
    r"\\u([0-9A-Fa-f]{4})|\\U([0-9A-Fa-f]{8})|\\([tbnrf\"'\\])")
_UNESCAPE_MAP = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
                 '"': '"', "'": "'", "\\": "\\"}


def _unescape(s: str) -> str:
    def sub(m: re.Match) -> str:
        if m.group(1):
            return chr(int(m.group(1), 16))
        if m.group(2):
            return chr(int(m.group(2), 16))
        return _UNESCAPE_MAP[m.group(3)]
    return _UNESCAPE_RE.sub(sub, s)


def parse(input_: str) -> list[tuple]:
    """Parse an N-Quads string into a list of quads (comments allowed)."""
    dataset: list[tuple] = []
    seen: set[tuple] = set()
    for line_no, line in enumerate(
            re.split(r"\r\n|\n|\r", input_), 1):
        m = _QUAD_RE.match(line)
        if m is None:
            # a blank or comment line never matches _QUAD_RE, so it is
            # looked for only among the lines that fail it
            if _EMPTY_RE.match(line):
                continue
            raise JsonLdError(
                f"N-Quads parse error on line {line_no}.",
                "jsonld.ParseError", details={"line": line})
        g = m.groups()
        # groups: 0 s_iri, 1 s_bnode, 2 pred_iri, 3 o_iri, 4 o_bnode,
        #         5 o_lit, 6 o_datatype, 7 o_lang, 8 g_iri, 9 g_bnode
        # IRI groups are taken as is: _IRI excludes the backslash, so
        # there is no escape in them to undo
        if g[0] is not None:
            subject = ("NamedNode", g[0])
        else:
            subject = ("BlankNode", g[1])
        predicate = ("NamedNode", g[2])
        if g[3] is not None:
            obj = ("NamedNode", g[3])
        elif g[4] is not None:
            obj = ("BlankNode", g[4])
        else:
            value = _unescape(g[5]) if g[5] is not None else ""
            if g[6] is not None:
                datatype = g[6]
            elif g[7] is not None:
                datatype = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"
            else:
                datatype = XSD_STRING
            obj = ("Literal", value, datatype, g[7])
        if g[8] is not None:
            graph = ("NamedNode", g[8])
        elif g[9] is not None:
            graph = ("BlankNode", g[9])
        else:
            graph = ("DefaultGraph", "")
        quad = (subject, predicate, obj, graph)
        key = quad
        if key not in seen:
            seen.add(key)
            dataset.append(quad)
    return dataset


_ESCAPE_RE = re.compile(r'["\\\n\r]')
_ESCAPE_MAP = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r"}


def _escape(s: str) -> str:
    return _ESCAPE_RE.sub(lambda m: _ESCAPE_MAP[m.group(0)], s)


def serialize_term(term: tuple) -> str:
    kind = term[0]
    if kind == "NamedNode":
        return f"<{term[1]}>"
    if kind == "BlankNode":
        return term[1]
    if kind == "Literal":
        value, datatype, language = term[1], term[2], term[3]
        s = f'"{_escape(value)}"'
        if language:
            s += f"@{language}"
        elif datatype and datatype != XSD_STRING:
            s += f"^^<{datatype}>"
        return s
    if kind == "DefaultGraph":
        return ""
    raise JsonLdError(f"unknown term type: {kind}", "jsonld.RdfError")


def serialize_quad(quad: tuple) -> str:
    s, p, o, g = quad
    parts = [serialize_term(s), serialize_term(p), serialize_term(o)]
    if g[0] != "DefaultGraph":
        parts.append(serialize_term(g))
    return " ".join(parts) + " .\n"


def serialize(dataset: list[tuple]) -> str:
    """Canonical N-Quads: sorted, deduplicated quad lines.

    Quads with a null object (the reference emits these for relative
    IRIs inside @list chains, toRdf.js:158-204 — invalid RDF) are
    unserializable and skipped."""
    return "".join(js_sorted(
        {serialize_quad(q) for q in dataset if q[2] is not None}))

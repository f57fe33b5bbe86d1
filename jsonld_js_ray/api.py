"""Top-level JSON-LD API (mirrors /root/reference/lib/jsonld.js surface).

Synchronous, no remote I/O: remote contexts/documents must be preloaded via
``documents={url: parsed_json}`` (the injectable documentLoader surface of
the reference, lib/jsonld.js:865-877).
"""

from __future__ import annotations

from typing import Any

from .core import canonize as _canonize
from .core import compact as _compact_mod
from .core import context as _ctx
from .core import expand as _expand_mod
from .core import flatten as _flatten_mod
from .core import from_rdf as _from_rdf_mod
from .core import frame as _frame_mod
from .core import nodemap as _nodemap
from .core import nquads as _nq
from .core import to_rdf as _to_rdf_mod
from .core.errors import JsonLdError
from .core.types import is_keyword
from .core.util import (
    IdentifierIssuer, as_array, deep_clone, js_sorted, relabel_blank_nodes,
)


def _unwrap_loader_record(rec: Any, url: str) -> tuple:
    """Unwrap a documentLoader return per the reference contract
    (lib/jsonld.js:870-887): a dict return is ALWAYS the
    ``{contextUrl, documentUrl, document}`` record. str/bytes returns
    are accepted as a raw JSON body (engine convenience — the reference
    loaders produce only records; raw parsed documents belong in
    ``options['documents']``). Returns (contextUrl, document)."""
    if isinstance(rec, dict):
        if "document" not in rec:
            raise JsonLdError(
                "documentLoader returned a record without a 'document' "
                "entry (loaders must return a {contextUrl, documentUrl, "
                "document} record; to supply raw parsed documents use "
                "options['documents']).",
                "jsonld.LoadDocumentError", code="loading document failed",
                details={"url": url})
        return rec.get("contextUrl"), rec["document"]
    return None, rec


def _setup_options(options: dict | None) -> dict:
    opts = dict(options or {})
    opts.setdefault("base", "")
    opts.setdefault("processingMode", "json-ld-1.1")
    if "contextResolver" not in opts:
        loader = opts.get("documentLoader") or _default_document_loader
        resolver_loader = None
        if loader is not None:
            def resolver_loader(url, _loader=loader):
                # reference contract (lib/jsonld.js:870-887): a loader
                # dict return is ALWAYS the {contextUrl, documentUrl,
                # document} record — never a raw document (raw JSON
                # bodies go through str/bytes returns, or
                # options['documents']); a Link-header contextUrl is
                # APPENDED to the doc's @context, matching
                # ContextResolver._fetchContext (ContextResolver.js:
                # 165-205)
                import json as _json

                context_url, doc = _unwrap_loader_record(_loader(url), url)
                if isinstance(doc, bytes):
                    doc = doc.decode("utf-8")
                if isinstance(doc, str):
                    try:
                        doc = _json.loads(doc)
                    except ValueError as exc:
                        raise JsonLdError(
                            "Dereferencing a URL did not result in a "
                            "valid JSON-LD object (non-JSON response).",
                            "jsonld.InvalidUrl",
                            code="loading remote context failed",
                            details={"url": url, "cause": str(exc)})
                if context_url:
                    if not isinstance(doc, dict):
                        raise JsonLdError(
                            "Dereferencing a URL did not result in a "
                            "JSON object.", "jsonld.InvalidUrl",
                            code="invalid remote context",
                            details={"url": url})
                    ctx = doc.get("@context", {})
                    ctx_list = list(ctx) if isinstance(ctx, list) \
                        else [ctx]
                    doc = {"@context": ctx_list + [context_url]}
                return doc
        opts["contextResolver"] = _ctx.ContextResolver(
            documents=opts.get("documents"), loader=resolver_loader)
    return opts


def _with_default_base(options: dict | None, input_: Any) -> dict:
    """The reference _setDefaults' base leg (lib/jsonld.js:142,382,432,
    570,677,733): an explicit caller base — even None, JS null — wins;
    otherwise a string input doubles as the base ('' for object input).
    Key-PRESENCE decides, not truthiness ('base' in options)."""
    opts = dict(options or {})
    if "base" not in opts:
        opts["base"] = input_ if isinstance(input_, str) else ""
    return opts


def _initial_ctx(options: dict) -> _ctx.ActiveContext:
    return _ctx.ActiveContext(options)


def expand(input_: Any, options: dict | None = None) -> list:
    """Expand a JSON-LD document (lib/jsonld.js:268-354).

    String input is a URL: dereferenced via options['documents'] /
    options['documentLoader'] (jsonld.js:301-316), with the document URL
    becoming the base ONLY when the caller set no base at all —
    jsonld.js:319-321 checks `!('base' in options)`, so an explicit
    null/'' base keeps relative IRIs relative."""
    caller_set_base = isinstance(options, dict) and "base" in options
    options = _setup_options(options)
    if isinstance(input_, str):
        remote = load_document(input_, options)
        doc = deep_clone(remote["document"])
        if not caller_set_base:
            options = {**options,
                       "base": remote.get("documentUrl") or input_}
    else:
        doc = deep_clone(input_)
    active_ctx = _initial_ctx(options)
    if options.get("expandContext") is not None:
        ec = deep_clone(options["expandContext"])
        if isinstance(ec, dict) and "@context" in ec:
            ec = ec["@context"]
        active_ctx = _ctx.process_context(active_ctx, ec, options)

    expanded = _expand_mod.expand(active_ctx, doc, None, options)

    # optimize away @graph with no other properties
    if isinstance(expanded, dict) and "@graph" in expanded and \
            len(expanded) == 1:
        expanded = expanded["@graph"]
    elif expanded is None:
        expanded = []
    return as_array(expanded)


def compact(input_: Any, ctx: Any, options: dict | None = None) -> dict:
    """Compact a JSON-LD document with a context (lib/jsonld.js:122-248)."""
    options = _setup_options(_with_default_base(options, input_))
    options.setdefault("compactArrays", True)
    options.setdefault("compactToRelative", True)
    options.setdefault("graph", False)
    options.setdefault("skipExpansion", False)
    options.setdefault("link", False)
    if options.get("link"):
        options["skipExpansion"] = True
    if not options["compactToRelative"]:
        # reference DELETES options.base BEFORE expansion
        # (lib/jsonld.js:158-160) — even an explicit null — so the inner
        # expand re-defaults to the documentUrl for URL input; an
        # explicit @base in the compaction context still relativizes
        # (compact.js:948)
        options.pop("base", None)
    if ctx is None:
        raise JsonLdError(
            "The compaction context must not be null.",
            "jsonld.CompactError", code="invalid local context")
    if input_ is None:
        return None

    if options["skipExpansion"]:
        expanded = input_
    else:
        expanded = expand(input_, options)

    active_ctx = _initial_ctx(options)
    ctx_for_processing = ctx
    if isinstance(ctx_for_processing, dict) and \
            "@context" in ctx_for_processing:
        ctx_for_processing = ctx_for_processing["@context"]
    active_ctx = _ctx.process_context(active_ctx, ctx_for_processing, options)
    compacted = _compact_mod.compact(
        active_ctx, None, expanded, options)

    if options["compactArrays"] and not options["graph"] and \
            isinstance(compacted, list):
        if len(compacted) == 1:
            compacted = compacted[0]
        elif len(compacted) == 0:
            compacted = {}
    elif options["graph"] and isinstance(compacted, dict):
        compacted = [compacted]

    # follow the reference's context attachment (jsonld.js:200-231)
    if isinstance(ctx, dict) and "@context" in ctx:
        ctx = ctx["@context"]
    ctx = deep_clone(ctx)
    if not isinstance(ctx, list):
        ctx = [ctx]
    ctx_length = len(ctx)
    has_context = False
    for c in ctx:
        if c:
            has_context = True
            break
    if isinstance(compacted, list):
        kwgraph = _compact_mod.compact_iri(
            active_ctx, "@graph", vocab=True)
        graph_val = compacted
        compacted = {}
        if has_context:
            compacted["@context"] = ctx[0] if ctx_length == 1 else ctx
        compacted[kwgraph] = graph_val
    elif isinstance(compacted, dict) and has_context:
        graph_val = compacted
        compacted = {"@context": ctx[0] if ctx_length == 1 else ctx}
        compacted.update(graph_val)
    return compacted


def flatten(input_: Any, ctx: Any = None, options: dict | None = None) -> Any:
    """Flatten a document (lib/jsonld.js:369-405, lib/flatten.js:24-38)."""
    options = _setup_options(_with_default_base(options, input_))
    expanded = expand(input_, options)
    flattened = _flatten_mod.flatten(expanded)
    if ctx is None:
        return flattened
    opts = dict(options)
    opts["graph"] = True
    opts["skipExpansion"] = True
    return compact(flattened, ctx, opts)


def frame(input_: Any, frame_doc: Any, options: dict | None = None) -> Any:
    """Frame a document (lib/jsonld.js:425-511)."""
    options = _setup_options(_with_default_base(options, input_))
    return _frame_mod.frame_document(input_, frame_doc, options)


def link(input_: Any, ctx: Any = None, options: dict | None = None) -> Any:
    """Link a document's nodes in memory (lib/jsonld.js:528-537)."""
    frame_doc: dict = {"@embed": "@link"}
    if ctx:
        frame_doc["@context"] = ctx
    frame_doc["@embed"] = "@link"
    return frame(input_, frame_doc, options)


def to_rdf(input_: Any, options: dict | None = None) -> list[tuple]:
    """Deserialize JSON-LD to an RDF dataset (lib/jsonld.js:670-708).

    Returns quads in the engine tuple form; pass format=
    'application/n-quads' for an N-Quads string.
    """
    options = _setup_options(_with_default_base(options, input_))
    if options.get("skipExpansion"):
        expanded = input_
    else:
        expanded = expand(input_, options)
    dataset = _to_rdf_mod.to_rdf(expanded, options)
    fmt = options.get("format")
    if fmt in ("application/n-quads", "application/nquads"):
        return _nq.serialize(dataset)
    if fmt:
        raise JsonLdError(
            f"Unknown output format: {fmt}", "jsonld.UnknownFormat",
            code="unknown format", details={"format": fmt})
    return dataset


def from_rdf(dataset: Any, options: dict | None = None) -> list:
    """Convert an RDF dataset (quads or a serialized string) to expanded
    JSON-LD (lib/jsonld.js:620-650).

    String input is parsed via the pluggable RDF-parser registry keyed by
    ``options['format']`` (default application/n-quads), mirroring the
    reference's registerRDFParser surface (lib/jsonld.js:631-649)."""
    options = _setup_options(options)
    options.setdefault("useRdfType", False)
    options.setdefault("useNativeTypes", False)
    if isinstance(dataset, str):
        fmt = options.get("format") or "application/n-quads"
        # instance-scoped registries (processor.factory) take precedence;
        # an EMPTY instance registry must not fall back to the global one
        scoped = options.get("rdfParsers")
        parser = (_rdf_parsers if scoped is None else scoped).get(fmt)
        if parser is None:
            raise JsonLdError(
                f"Unknown input format: {fmt}",
                "jsonld.UnknownFormat", code="unknown format",
                details={"format": fmt})
        dataset = parser(dataset)
    return _from_rdf_mod.from_rdf(dataset, options)


def canonize(input_: Any, options: dict | None = None) -> str:
    """Canonical N-Quads of a JSON-LD document (lib/jsonld.js:563-602;
    algorithm reimplemented, see core/canonize.py).

    options: ``algorithm`` — 'URDNA2015' (default) or the legacy
    'URGNA2012'; ``inputFormat`` / ``format`` — 'application/n-quads'
    (the output is always the canonical N-Quads string, like
    rdf-canonize; an unknown ``format`` value raises)."""
    options = _setup_options(_with_default_base(options, input_))
    algorithm = options.get("algorithm", "URDNA2015")
    out_fmt = options.get("format")
    if out_fmt not in (None, "application/n-quads", "application/nquads"):
        raise JsonLdError(
            f"Unknown output format: {out_fmt}",
            "jsonld.UnknownFormat", code="unknown format",
            details={"format": out_fmt})
    # key-PRESENCE, like the reference (lib/jsonld.js:577-585): an
    # explicit inputFormat — even null — selects the N-Quads branch
    # and anything but the two N-Quads media types raises there
    if "inputFormat" in options:
        in_fmt = options["inputFormat"]
        if in_fmt not in ("application/n-quads", "application/nquads"):
            raise JsonLdError(
                "Unknown canonicalization input format.",
                "jsonld.CanonizeError", code="unknown format",
                details={"format": in_fmt})
        dataset = _nq.parse(input_)
    else:
        dataset = to_rdf(input_, {**options, "format": None,
                                  "produceGeneralizedRdf": False})
    return _canonize.canonize(dataset, algorithm=algorithm)


def create_node_map(input_: Any, options: dict | None = None) -> dict:
    """Merged node map of a document (lib/jsonld.js:726-743)."""
    options = _setup_options(_with_default_base(options, input_))
    expanded = expand(input_, options)
    return _nodemap.create_merged_node_map(expanded)


def merge(docs: list, ctx: Any = None, options: dict | None = None) -> Any:
    """Merge N documents into one flattened doc (lib/jsonld.js:766-856)."""
    if not isinstance(docs, list):
        raise TypeError("Could not merge, 'docs' must be an array.")
    # reference merge sets NO base default (lib/jsonld.js:780-793): each
    # per-doc expand sees the caller's options verbatim, so a URL doc
    # gets its own documentUrl as base unless the caller passed one
    caller_set_base = isinstance(options, dict) and "base" in options
    options = _setup_options(options)
    merge_nodes = options.get("mergeNodes", True)

    if caller_set_base:
        expand_opts = options
    else:
        expand_opts = {k: v for k, v in options.items() if k != "base"}
    expanded_docs = [expand(doc, expand_opts) for doc in docs]

    # single pass (jsonld.js:803-830): each doc's bnodes get a doc-scoped
    # namespace, then its node map merges into the accumulator; with
    # mergeNodes=False, later docs only contribute ids not yet present
    graphs: dict[str, dict] = {"@default": {}}
    issuer = IdentifierIssuer("_:b")
    for i, doc in enumerate(expanded_docs):
        doc = relabel_blank_nodes(
            deep_clone(doc), IdentifierIssuer(f"_:b{i}-"))
        if merge_nodes or i == 0:
            _nodemap.create_node_map(doc, graphs, "@default", issuer)
        else:
            sub_graphs: dict[str, dict] = {"@default": {}}
            _nodemap.create_node_map(doc, sub_graphs, "@default", issuer)
            for gname, nodes in sub_graphs.items():
                target = graphs.setdefault(gname, {})
                for nid, node in nodes.items():
                    if nid not in target:
                        target[nid] = node
    default_graph = _nodemap.merge_node_maps(graphs)

    flattened = []
    for key in js_sorted(default_graph):
        node = default_graph[key]
        # remove subject references without other properties
        if not (len(node) == 1 and "@id" in node):
            flattened.append(node)

    if ctx is None:
        return flattened
    opts = dict(options)
    opts["graph"] = True
    opts["skipExpansion"] = True
    return compact(flattened, ctx, opts)


def process_context(active_ctx: _ctx.ActiveContext, local_ctx: Any,
                    options: dict | None = None) -> _ctx.ActiveContext:
    """Process a local context (lib/jsonld.js:936-957)."""
    options = _setup_options(options)
    if local_ctx is None:
        return _initial_ctx(options)
    local_ctx = deep_clone(local_ctx)
    if not (isinstance(local_ctx, dict) and "@context" in local_ctx):
        local_ctx = {"@context": local_ctx}
    return _ctx.process_context(active_ctx, local_ctx, options)


def load_document(url: str, options: dict | None = None) -> dict:
    """Dereference a document (lib/jsonld.js:889-922 `get` surface).

    No network in the engine: documents come from ``options['documents']``
    (a url → parsed-JSON dict) or an injected ``options['documentLoader']``
    callable — the reference's pluggable-loader surface."""
    options = options or {}
    loader = options.get("documentLoader") or _default_document_loader
    documents = options.get("documents") or {}
    if url in documents:
        return {"documentUrl": url, "document": documents[url],
                "contextUrl": None}
    if loader is not None:
        rec = loader(url)
        if isinstance(rec, dict):
            # reference contract: dict returns ARE the record; copy it —
            # a loader may cache and return the same dict for many URLs
            _unwrap_loader_record(rec, url)   # validates 'document'
            out = {"documentUrl": url, "contextUrl": None, **rec}
            return out
        return {"documentUrl": url, "document": rec, "contextUrl": None}
    raise JsonLdError(
        f"Could not retrieve a JSON-LD document from the URL: {url}",
        "jsonld.LoadDocumentError", code="loading document failed",
        details={"url": url})


# --- pluggable RDF parser registry (lib/jsonld.js:81-82,1000-1011) ---

_rdf_parsers: dict[str, Any] = {}


def register_rdf_parser(content_type: str, parser: Any) -> None:
    _rdf_parsers[content_type] = parser


def unregister_rdf_parser(content_type: str) -> None:
    _rdf_parsers.pop(content_type, None)


def get_rdf_parser(content_type: str) -> Any:
    return _rdf_parsers.get(content_type)


register_rdf_parser("application/n-quads", _nq.parse)
register_rdf_parser("application/nquads", _nq.parse)


# --- document-loader registry (lib/jsonld.js:965-997) ---
# 'node' builds the full node-loader semantics over an injected
# transport (sources/doc_loader.py); 'xhr' is n/a in a headless engine.

def _node_loader_factory(transport=None, **params):
    from .sources.doc_loader import node_document_loader

    if transport is None:
        raise JsonLdError(
            "The 'node' document loader requires an injected transport "
            "(no network in the engine): "
            "use_document_loader('node', transport=...).",
            "jsonld.UnknownDocumentLoader", details={"type": "node"})
    return node_document_loader(transport, **params)


document_loaders: dict[str, Any] = {"node": _node_loader_factory}

_default_document_loader: Any = None


def use_document_loader(type_: str, *args, **kwargs) -> None:
    """Assign the process-default document loader from the registry
    (lib/jsonld.js:974-987). The default is consulted whenever an
    operation's options carry no ``documentLoader``."""
    global _default_document_loader
    if type_ not in document_loaders:
        raise JsonLdError(
            f'Unknown document loader type: "{type_}"',
            "jsonld.UnknownDocumentLoader", details={"type": type_})
    _default_document_loader = document_loaders[type_](*args, **kwargs)

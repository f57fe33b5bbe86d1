"""ExpandToRdf stage: JSON-LD docs → Arrow quad batches.

THE flagship per-document map (SURVEY.md §2.1 toRDF row), run as Ray
tasks through ``rows_from_parsed_task_fn``. A per-worker-process
``ToRdfActor`` singleton holds the processed-context cache (the
reference's resolved-context LRU, lib/jsonld.js:86-89, lives per worker
here).

Per document: expand → node map → quads (lib/toRdf.js semantics) →
URDNA2015 canonical blank-node labels, issued straight into a
conv-scoped namespace (`_:{fp}-c14nN`, following the reference's
per-doc `_:b{i}-` relabel precedent in merge, lib/jsonld.js:805-807) so
labels are globally unique across the cluster while staying
deterministic per conversation.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable

import pyarrow as pa

from ..core import canonize as _canonize
from ..core import context as _ctx
from ..core import expand as _expand
from ..core import to_rdf as _to_rdf

QUAD_SCHEMA = pa.schema([
    ("subj", pa.string()),
    ("pred", pa.string()),
    ("obj_kind", pa.string()),       # 'iri' | 'bnode' | 'literal'
    ("obj_value", pa.large_string()),
    ("obj_datatype", pa.string()),   # None unless literal
    ("obj_lang", pa.string()),       # None unless rdf:langString
    ("graph", pa.string()),          # '@default' or graph IRI / bnode
    ("conv_id", pa.string()),
])


_WORKER_SINGLETON: "ToRdfActor | None" = None


def _worker_actor(skip_errors: bool) -> "ToRdfActor":
    global _WORKER_SINGLETON
    if _WORKER_SINGLETON is None or \
            _WORKER_SINGLETON.skip_errors != skip_errors:
        _WORKER_SINGLETON = ToRdfActor(skip_errors=skip_errors)
    return _WORKER_SINGLETON


def rows_from_parsed_task_fn(pairs: Iterable[tuple[str, Any]],
                             skip_errors: bool = False) -> pa.Table:
    """Task-pool ToRdf over ``(conv_id, doc)`` pairs, documents as
    Python objects: the KG block kernel hands its documents straight in
    as it builds them (``pairs`` may be a lazy iterator, consumed once),
    and the line connector its parsed lines, so no document goes
    through JSON text between its source and ToRdf.

    A per-WORKER-PROCESS singleton holds the context caches (Ray reuses
    worker processes, so state stays warm across tasks like an actor,
    but scheduling remains elastic — no pool ramp-up, no CPU
    reservation starving the shuffle). Measured on sf0.1/32cpus: tasks
    4.4s vs autoscaling actor pool 9-13s."""
    return _worker_actor(skip_errors).rows_from_pairs(pairs)


def conv_fingerprint(conv_id: str) -> str:
    return hashlib.sha1(conv_id.encode("utf-8")).hexdigest()[:10]


class ToRdfActor:
    """(conv_id, doc) pairs → quad-table batches."""

    def __init__(self, namespace_bnodes: bool = True,
                 skip_errors: bool = False) -> None:
        self.namespace_bnodes = namespace_bnodes
        # poison-pill quarantine: with skip_errors=True a document that
        # fails (malformed JSON-LD, canonicalization complexity limit)
        # is logged and skipped instead of failing the whole shard —
        # the 100 TB posture; correctness-gated queries keep the
        # default raise
        self.skip_errors = skip_errors
        self.errors = 0
        # per-actor caches, warm across batches
        self.resolver = _ctx.ContextResolver(cache={})
        self.options: dict[str, Any] = {
            "base": "",
            "processingMode": "json-ld-1.1",
            "contextResolver": self.resolver,
        }
        self._initial_ctx = _ctx.ActiveContext(self.options)

    def doc_to_quads(self, doc: Any, conv_id: str) -> list[tuple]:
        active_ctx = self._initial_ctx
        expanded = _expand.expand(active_ctx, doc, None, self.options)
        if isinstance(expanded, dict) and len(expanded) == 1 and \
                "@graph" in expanded:
            expanded = expanded["@graph"]
        if expanded is None:
            expanded = []
        if not isinstance(expanded, list):
            expanded = [expanded]
        prefix = f"_:{conv_fingerprint(conv_id)}-c14n" \
            if self.namespace_bnodes else _canonize.CANON_PREFIX
        return _canonize.relabel_dataset(
            _to_rdf.to_rdf(expanded, self.options), prefix=prefix)

    def rows_from_docs(self, conv_ids: list, docs: list,
                       parsed: bool) -> pa.Table:
        """``rows_from_pairs`` over two parallel lists. ``parsed=False``
        takes JSON strings (the standard column contract);
        ``parsed=True`` takes already-loaded objects (fused line
        reader — no second json.loads)."""
        return self.rows_from_pairs(zip(conv_ids, docs), parsed)

    def rows_from_pairs(self, pairs: Iterable[tuple[str, Any]],
                        parsed: bool = True) -> pa.Table:
        """(conv_id, doc) pairs → quad-table batch, one document in hand
        at a time."""
        subj: list[str] = []
        pred: list[str] = []
        obj_kind: list[str] = []
        obj_value: list[str] = []
        obj_datatype: list[str | None] = []
        obj_lang: list[str | None] = []
        graph: list[str] = []
        out_conv: list[str] = []

        for conv_id, doc_json in pairs:
            try:
                doc = doc_json if parsed else json.loads(doc_json)
                quads = self.doc_to_quads(doc, conv_id)
            except Exception as e:
                if not self.skip_errors:
                    raise
                import warnings
                self.errors += 1
                warnings.warn(
                    f"skipping poisoned conversation {conv_id!r}: "
                    f"{type(e).__name__}: {str(e)[:200]}")
                continue
            for q in quads:
                s, p, o, g = q
                if o is None:
                    # relative IRI inside a @list — invalid RDF, dropped
                    # at the columnar boundary (reference keeps a null
                    # placeholder in its in-memory quad array)
                    continue
                subj.append(s[1])
                pred.append(p[1])
                if o[0] == "Literal":
                    obj_kind.append("literal")
                    obj_value.append(o[1])
                    obj_datatype.append(o[2])
                    obj_lang.append(o[3])
                else:
                    obj_kind.append("bnode" if o[0] == "BlankNode"
                                    else "iri")
                    obj_value.append(o[1])
                    obj_datatype.append(None)
                    obj_lang.append(None)
                graph.append("@default" if g[0] == "DefaultGraph" else g[1])
                out_conv.append(conv_id)

        columns = (subj, pred, obj_kind, obj_value, obj_datatype,
                   obj_lang, graph, out_conv)       # QUAD_SCHEMA order
        return pa.Table.from_arrays(
            [pa.array(c, f.type) for c, f in zip(columns, QUAD_SCHEMA)],
            schema=QUAD_SCHEMA)

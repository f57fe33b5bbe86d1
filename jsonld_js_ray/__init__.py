"""jsonld_js_ray — Ray-Data-native JSON-LD / KG-construction engine.

A from-scratch re-implementation of the query/transform capabilities of
theowenyoung/jsonld.js (JSON-LD 1.1 processor) as a Ray Data engine:

- ``jsonld_js_ray.api``: document-level operators (expand, compact,
  flatten, frame, toRDF, fromRDF, canonize, merge) — pure Python, used
  per-row inside Arrow batches.
- ``jsonld_js_ray.stages``: Ray Data ``map_batches`` stages.
- ``jsonld_js_ray.pipelines``: end-to-end pipelines (transcripts → RDF).
- ``jsonld_js_ray.sources`` / ``state``: IO + checkpoint/lineage.

IMPORTANT: importing this package must NOT initialize Ray.
"""

from .api import (  # noqa: F401
    canonize, compact, create_node_map, document_loaders, expand, flatten,
    frame, from_rdf, link, merge, process_context, register_rdf_parser,
    to_rdf, unregister_rdf_parser, use_document_loader,
)
from .core.errors import JsonLdError  # noqa: F401
from .processor import JsonLdProcessor, factory  # noqa: F401

normalize = canonize      # reference alias (lib/jsonld.js:563)

__version__ = "0.1.0"

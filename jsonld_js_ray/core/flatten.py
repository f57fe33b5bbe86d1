"""JSON-LD flattening (reference /root/reference/lib/flatten.js:24-38)."""

from __future__ import annotations

from typing import Any

from .nodemap import create_merged_node_map
from .types import is_subject_reference
from .util import js_sorted


def flatten(input_: Any) -> list:
    """Expanded JSON-LD → sorted flat node array."""
    default_graph = create_merged_node_map(input_)
    return [
        default_graph[k]
        for k in js_sorted(default_graph)
        if not is_subject_reference(default_graph[k])
    ]

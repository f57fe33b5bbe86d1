"""Node-map construction (flattening) over expanded JSON-LD.

Same semantics as the reference's createNodeMap / mergeNodeMapGraphs /
mergeNodeMaps (/root/reference/lib/nodeMap.js:24-290): recursive flatten
naming blank nodes via an IdentifierIssuer (@type bnodes first), subject
merge with duplicate suppression, @reverse inversion, nested-@graph
recursion, @included, @index conflict detection, list capture.

Complexity: adding a value costs O(1) however many values its property
already holds, since duplicate suppression goes through one
``util.ValueIndex`` per top-level call; the whole map costs O(n) plus
the key sorts (O(n log n) for a subject with n properties). This is a
deliberate departure from the reference, whose util.js hasValue scans
the property's values on every add and makes a subject with N
references (a conversation with N turns) cost O(N²). Which values count
as duplicates is unchanged: ``util.value_key`` matches exactly when
``util.compare_values`` does.
"""

from __future__ import annotations

from typing import Any

from .errors import JsonLdError
from .types import (
    is_blank_node, is_keyword, is_list, is_subject, is_subject_reference,
    is_value,
)
from .util import (
    _MISSING, IdentifierIssuer, ValueIndex, _js_strict_eq, deep_clone,
    js_sorted,
)


def create_merged_node_map(input_: Any,
                           issuer: IdentifierIssuer | None = None) -> dict:
    """Expanded JSON-LD → merged node map (nodeMap.js:24-34)."""
    issuer = issuer or IdentifierIssuer("_:b")
    graphs: dict[str, dict] = {"@default": {}}
    create_node_map(input_, graphs, "@default", issuer)
    return merge_node_maps(graphs)


def create_node_map(
    input_: Any,
    graphs: dict[str, dict],
    graph: str,
    issuer: IdentifierIssuer,
    name: str | None = None,
    list_: list | None = None,
) -> None:
    """Recursively flatten expanded input into ``graphs``
    (nodeMap.js:47-223). ``graphs`` may already hold nodes from earlier
    calls; values they have are not added again."""
    _node_map(input_, graphs, graph, issuer, name, list_, ValueIndex())


def _node_map(input_: Any, graphs: dict[str, dict], graph: str,
              issuer: IdentifierIssuer, name: str | None, list_: list | None,
              index: ValueIndex) -> None:
    if isinstance(input_, list):
        for node in input_:
            _node_map(node, graphs, graph, issuer, None, list_, index)
        return

    if not isinstance(input_, dict):
        if list_ is not None:
            list_.append(input_)
        return

    if is_value(input_):
        if "@type" in input_:
            type_ = input_["@type"]
            if isinstance(type_, str) and type_.startswith("_:"):
                input_["@type"] = type_ = issuer.get_id(type_)
        if list_ is not None:
            list_.append(input_)
        return
    if list_ is not None and is_list(input_):
        sub_list: list = []
        _node_map(input_["@list"], graphs, graph, issuer, name, sub_list,
                  index)
        list_.append({"@list": sub_list})
        return

    # input is a subject: name @type bnodes first (nodeMap.js:86-94)
    if "@type" in input_:
        for type_ in input_["@type"]:
            if isinstance(type_, str) and type_.startswith("_:"):
                issuer.get_id(type_)

    js_undefined = False
    if name is None:
        name = issuer.get_id(input_.get("@id")) if is_blank_node(input_) \
            else input_.get("@id")
        if name is None:
            # a non-node object in node position (e.g. a bare @list inside
            # @graph): the reference indexes it under the stringified JS
            # `undefined` key (nodeMap.js:97-99 via subjects[name]) but
            # assigns subject['@id'] = undefined, which JSON.stringify
            # DROPS from flatten/merge output (and toRDF drops the
            # relative-IRI key). Model the undefined-valued @id as an
            # ABSENT key under the same "undefined" map key (fuzz seed
            # 3001834: the visible "@id": "undefined" string diverged).
            name = "undefined"
            js_undefined = True

    if list_ is not None:
        list_.append({"@id": name})

    subjects = graphs[graph]
    subject = subjects.setdefault(name, {})
    if js_undefined:
        # mirror the JS last-assignment-wins overwrite with undefined
        subject.pop("@id", None)
    else:
        subject["@id"] = name
    for prop in js_sorted(input_):
        if prop == "@id":
            continue

        if prop == "@reverse":
            referenced_node = {"@id": name}
            reverse_map = input_["@reverse"]
            for reverse_prop, items in reverse_map.items():
                for item in items:
                    item_name = item.get("@id")
                    if is_blank_node(item):
                        item_name = issuer.get_id(item_name)
                    _node_map(item, graphs, graph, issuer, item_name, None,
                              index)
                    index.add(subjects[item_name], reverse_prop,
                              referenced_node)
            continue

        if prop == "@graph":
            if name not in graphs:
                graphs[name] = {}
            _node_map(input_[prop], graphs, name, issuer, None, None, index)
            continue

        if prop == "@included":
            _node_map(input_[prop], graphs, graph, issuer, None, None, index)
            continue

        if prop != "@type" and is_keyword(prop):
            # the conflict test is JS !== on the raw values plus their
            # ['@id'] members (nodeMap.js:156-158): strings compare by
            # value, dict/list @index values by IDENTITY (a['@id'] on a
            # non-object is undefined in JS -> the _MISSING default)
            a, b = input_[prop], subject.get(prop)
            aid = a.get("@id", _MISSING) if isinstance(a, dict) \
                else _MISSING
            bid = b.get("@id", _MISSING) if isinstance(b, dict) \
                else _MISSING
            if prop == "@index" and prop in subject and (
                not _js_strict_eq(a, b) or not _js_strict_eq(aid, bid)
            ):
                raise JsonLdError(
                    "conflicting @index property detected.",
                    "jsonld.SyntaxError", code="conflicting indexes",
                    details={"subject": subject})
            subject[prop] = input_[prop]
            continue

        objects = input_[prop]

        if prop.startswith("_:"):
            prop = issuer.get_id(prop)

        if len(objects) == 0:
            index.add(subject, prop, [])
            continue

        for o in objects:
            if prop == "@type":
                if isinstance(o, str) and o.startswith("_:"):
                    o = issuer.get_id(o)

            if is_subject(o) or is_subject_reference(o):
                if "@id" in o and not o["@id"]:
                    continue
                oid = issuer.get_id(o.get("@id")) if is_blank_node(o) \
                    else o["@id"]
                index.add(subject, prop, {"@id": oid})
                _node_map(o, graphs, graph, issuer, oid, None, index)
            elif is_value(o):
                index.add(subject, prop, o)
            elif is_list(o):
                sub_list = []
                _node_map(o["@list"], graphs, graph, issuer, name, sub_list,
                          index)
                index.add(subject, prop, {"@list": sub_list})
            else:
                _node_map(o, graphs, graph, issuer, name, None, index)
                index.add(subject, prop, o)


def merge_node_map_graphs(graphs: dict[str, dict]) -> dict:
    """Union all graphs into one merged map (nodeMap.js:233-260)."""
    merged: dict[str, dict] = {}
    index = ValueIndex()
    for name in js_sorted(graphs):
        for id_ in js_sorted(graphs[name]):
            node = graphs[name][id_]
            merged_node = merged.setdefault(id_, {"@id": id_})
            for prop in js_sorted(node):
                if is_keyword(prop) and prop != "@type":
                    merged_node[prop] = deep_clone(node[prop])
                else:
                    # key the stored clone, which is what the reference
                    # compares: an @json literal shared by two graphs'
                    # nodes stays twice, since clones differ in identity
                    for value in node[prop]:
                        index.add(merged_node, prop, deep_clone(value))
            if "@id" not in node:
                # the source node carries a JS-undefined @id (bare @list
                # under the "undefined" key): the reference's keyword
                # copy overwrites the seeded {'@id': id} with
                # clone(undefined), so the merged node's @id vanishes
                # from JSON output too (nodeMap.js:244-247)
                merged_node.pop("@id", None)
    return merged


def merge_node_maps(graphs: dict[str, dict]) -> dict:
    """Move named graphs under @graph of their graph-name node in the
    default graph (nodeMap.js:262-290)."""
    default_graph = graphs["@default"]
    for graph_name in js_sorted(graphs):
        if graph_name == "@default":
            continue
        node_map = graphs[graph_name]
        subject = default_graph.get(graph_name)
        if subject is None:
            subject = default_graph[graph_name] = {
                "@id": graph_name, "@graph": []}
        elif "@graph" not in subject:
            subject["@graph"] = []
        graph_list = subject["@graph"]
        for id_ in js_sorted(node_map):
            node = node_map[id_]
            if not is_subject_reference(node):
                graph_list.append(node)
    return default_graph

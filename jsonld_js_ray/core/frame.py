"""JSON-LD 1.1 Framing.

From-scratch implementation of the W3C JSON-LD 1.1 Framing spec
(https://www.w3.org/TR/json-ld11-framing/), matching the reference
(/root/reference/lib/frame.js:29-825, lib/jsonld.js:425-511): match →
embed policy (@once/@always/@never/@link/@first/@last), circular-reference
guard, graph recursion, @included, defaults/@preserve, @reverse scan,
single-use blank-node pruning.
"""

from __future__ import annotations

from typing import Any

from . import compact as _compact_mod
from . import context as _ctx
from . import url as _url
from .errors import JsonLdError
from .nodemap import create_node_map, merge_node_map_graphs
from .types import (
    is_empty_object, is_keyword, is_list, is_object, is_subject,
    is_subject_reference, is_value,
)
from .util import (
    IdentifierIssuer, add_value, as_array, compare_values, deep_clone,
    get_values, js_sorted, remove_value,
)


def frame_merged_or_default(input_: Any, frame: Any, options: dict) -> list:
    """(frame.js:29-65)"""
    state = {
        "options": options,
        "embedded": False,
        "graph": "@default",
        "graphMap": {"@default": {}},
        "subjectStack": [],
        "link": {},
        "bnodeMap": {},
    }
    issuer = IdentifierIssuer("_:b")
    create_node_map(input_, state["graphMap"], "@default", issuer)
    if options.get("merged"):
        state["graphMap"]["@merged"] = merge_node_map_graphs(
            state["graphMap"])
        state["graph"] = "@merged"
    state["subjects"] = state["graphMap"][state["graph"]]

    framed: list = []
    do_frame(state, js_sorted(state["subjects"]), frame, framed)

    if options.get("pruneBlankNodeIdentifiers"):
        options["bnodesToClear"] = [
            bid for bid, uses in state["bnodeMap"].items()
            if len(uses) == 1
        ]

    options["link"] = {}
    return _cleanup_preserve(framed, options)


def do_frame(state: dict, subjects: list[str], frame: Any, parent: Any,
             property_: str | None = None) -> None:
    """(frame.js:76-323)"""
    _validate_frame(frame)
    frame = frame[0]

    options = state["options"]
    flags = {
        "embed": _get_frame_flag(frame, options, "embed"),
        "explicit": _get_frame_flag(frame, options, "explicit"),
        "requireAll": _get_frame_flag(frame, options, "requireAll"),
    }

    link = state["link"].setdefault(state["graph"], {})
    matches = _filter_subjects(state, subjects, frame, flags)

    for id_ in js_sorted(matches):
        subject = matches[id_]

        if property_ is None:
            state["uniqueEmbeds"] = {state["graph"]: {}}
        else:
            state.setdefault("uniqueEmbeds", {}).setdefault(
                state["graph"], {})

        if flags["embed"] == "@link" and id_ in link:
            _add_frame_output(parent, property_, link[id_])
            continue

        output: dict[str, Any] = {"@id": id_}
        if id_.startswith("_:"):
            add_value(state["bnodeMap"], id_, output, property_is_array=True)
        link[id_] = output

        # NOTE: the spec says @first/@last are invalid in 1.1 mode, but
        # the reference's check reads state.is11 which is never set
        # (jsonld.js:495 stores is11 on options) — dead code, so frames
        # using @first/@last are accepted and behave like @once/@last

        if not state["embedded"] and \
                id_ in state["uniqueEmbeds"][state["graph"]]:
            continue

        if state["embedded"] and (
            flags["embed"] == "@never"
            or _creates_circular_reference(subject, state["graph"],
                                           state["subjectStack"])
        ):
            _add_frame_output(parent, property_, output)
            continue

        if state["embedded"] and flags["embed"] in ("@first", "@once") and \
                id_ in state["uniqueEmbeds"][state["graph"]]:
            _add_frame_output(parent, property_, output)
            continue

        if flags["embed"] == "@last":
            if id_ in state["uniqueEmbeds"][state["graph"]]:
                _remove_embed(state, id_)

        state["uniqueEmbeds"][state["graph"]][id_] = {
            "parent": parent, "property": property_}

        state["subjectStack"].append(
            {"subject": subject, "graph": state["graph"]})

        # subject is also a graph name
        if id_ in state["graphMap"]:
            recurse = False
            subframe: Any = None
            if "@graph" not in frame:
                recurse = state["graph"] != "@merged"
                subframe = {}
            else:
                subframe = frame["@graph"][0]
                recurse = id_ not in ("@merged", "@default")
                if not isinstance(subframe, dict):
                    subframe = {}
            if recurse:
                sub_state = {**state, "graph": id_, "embedded": False}
                do_frame(sub_state,
                         js_sorted(state["graphMap"][id_]),
                         [subframe], output, "@graph")

        if "@included" in frame:
            sub_state = {**state, "embedded": False}
            do_frame(sub_state, subjects, frame["@included"], output,
                     "@included")

        for prop in js_sorted(subject):
            if is_keyword(prop):
                output[prop] = deep_clone(subject[prop])
                if prop == "@type":
                    for type_ in subject["@type"]:
                        if type_.startswith("_:"):
                            add_value(state["bnodeMap"], type_, output,
                                      property_is_array=True)
                continue

            if flags["explicit"] and prop not in frame:
                continue

            for o in subject[prop]:
                subframe = frame[prop] if prop in frame \
                    else _create_implicit_frame(flags)

                if is_list(o):
                    if (frame.get(prop) and frame[prop][0]
                            and isinstance(frame[prop][0], dict)
                            and "@list" in frame[prop][0]):
                        subframe = frame[prop][0]["@list"]
                    else:
                        subframe = _create_implicit_frame(flags)
                    list_out = {"@list": []}
                    _add_frame_output(output, prop, list_out)
                    for oo in o["@list"]:
                        if is_subject_reference(oo):
                            sub_state = {**state, "embedded": True}
                            do_frame(sub_state, [oo["@id"]], subframe,
                                     list_out, "@list")
                        else:
                            _add_frame_output(list_out, "@list",
                                              deep_clone(oo))
                elif is_subject_reference(o):
                    sub_state = {**state, "embedded": True}
                    do_frame(sub_state, [o["@id"]], subframe, output, prop)
                elif _value_match(subframe[0], o):
                    _add_frame_output(output, prop, deep_clone(o))

        # defaults
        for prop in js_sorted(frame):
            if prop == "@type":
                if not isinstance(frame[prop][0], dict) or \
                        "@default" not in frame[prop][0]:
                    continue
            elif is_keyword(prop):
                continue
            nxt = frame[prop][0] if frame[prop] else {}
            if not isinstance(nxt, dict):
                nxt = {}
            omit_default = _get_frame_flag(nxt, options, "omitDefault")
            if not omit_default and prop not in output:
                preserve: Any = "@null"
                if "@default" in nxt:
                    preserve = deep_clone(nxt["@default"])
                if not isinstance(preserve, list):
                    preserve = [preserve]
                output[prop] = [{"@preserve": preserve}]

        # @reverse in frame
        for reverse_prop in js_sorted(frame.get("@reverse") or {}):
            subframe = frame["@reverse"][reverse_prop]
            for subj_id in list(state["subjects"].keys()):
                node_values = get_values(
                    state["subjects"][subj_id], reverse_prop)
                if any(isinstance(v, dict) and v.get("@id") == id_
                       for v in node_values):
                    output.setdefault("@reverse", {})
                    add_value(output["@reverse"], reverse_prop, [],
                              property_is_array=True)
                    sub_state = {**state, "embedded": True}
                    do_frame(sub_state, [subj_id], subframe,
                             output["@reverse"][reverse_prop], property_)

        _add_frame_output(parent, property_, output)
        state["subjectStack"].pop()


def _js_truthy(v: Any) -> bool:
    """JS truthiness for cleanupNull's array filter (frame.js:349
    ``noNulls.filter(v => v)``): null/''/0/false/NaN are dropped; empty
    arrays/objects are truthy in JS and kept."""
    if v is None or v is False:
        return False
    if isinstance(v, str):
        return v != ""
    if isinstance(v, (int, float)):
        return v != 0 and v == v
    return True


def _js_link_key(id_: Any) -> str:
    """JS object-key coercion (``String(id)``) for the link maps in
    cleanupNull / cleanupPreserve (frame.js:345,309: ``link[id]``).

    ``input['@id']`` is not always a string here: an @index container
    whose index key is literally "@id" compacts to a dict with an
    ARRAY (or scalar) in @id position — an index-map entry, not a node
    id. JS silently coerces it to a property key; replicate the
    relevant ToString forms (array: comma-join with null/undefined ->
    '', object: '[object Object]', booleans/null lowercased, integral
    numbers without the .0)."""
    if isinstance(id_, str):
        return id_
    if isinstance(id_, list):
        return ",".join("" if x is None else _js_link_key(x) for x in id_)
    if isinstance(id_, dict):
        return "[object Object]"
    if id_ is True:
        return "true"
    if id_ is False:
        return "false"
    if id_ is None:
        return "null"
    if isinstance(id_, float) and id_.is_integer():
        return str(int(id_))
    return str(id_)


def cleanup_null(input_: Any, options: dict) -> Any:
    """Replace @null with null, filtering JS-falsy array entries
    (frame.js:333-367)."""
    if isinstance(input_, list):
        return [v for v in (cleanup_null(i, options) for i in input_)
                if _js_truthy(v)]
    if input_ == "@null":
        return None
    if isinstance(input_, dict):
        # identity cycle guard (see _cleanup_preserve docstring)
        in_progress = options.setdefault("_cleanupNullInProgress", set())
        if id(input_) in in_progress:
            return input_
        in_progress.add(id(input_))
        if "@id" in input_:
            id_ = _js_link_key(input_["@id"])
            link = options.setdefault("link", {})
            if id_ in link:
                for existing in link[id_]:
                    if existing is input_:
                        return existing
                link[id_].append(input_)
            else:
                link[id_] = [input_]
        for key in list(input_.keys()):
            input_[key] = cleanup_null(input_[key], options)
        in_progress.discard(id(input_))
    return input_


def _create_implicit_frame(flags: dict) -> list:
    return [{
        "@" + k: [v] for k, v in flags.items() if v is not None
    }]


def _creates_circular_reference(subject_to_embed: dict, graph: str,
                                subject_stack: list) -> bool:
    for entry in reversed(subject_stack):
        if entry["graph"] == graph and \
                entry["subject"].get("@id") == subject_to_embed.get("@id"):
            return True
    return False


def _get_frame_flag(frame: dict, options: dict, name: str) -> Any:
    flag = "@" + name
    rval = frame[flag][0] if (flag in frame and
                              isinstance(frame[flag], list) and frame[flag]) \
        else (frame.get(flag, options.get(name))
              if flag in frame else options.get(name))
    if name == "embed":
        if rval is True:
            rval = "@once"
        elif rval is False:
            rval = "@never"
        elif rval not in ("@always", "@never", "@link", "@first", "@last",
                          "@once"):
            raise JsonLdError(
                "invalid value of @embed.", "jsonld.SyntaxError",
                code="invalid @embed value", details={"frame": frame})
    return rval


def _validate_frame(frame: Any) -> None:
    if not isinstance(frame, list) or len(frame) != 1 or \
            not isinstance(frame[0], dict):
        raise JsonLdError(
            "a JSON-LD frame must be a single object.",
            "jsonld.SyntaxError", details={"frame": frame})
    f = frame[0]
    for key in ("@id", "@type"):
        if key in f:
            for v in as_array(f[key]):
                if not (isinstance(v, dict) or _url.is_absolute(v)) or \
                        (isinstance(v, str) and v.startswith("_:")):
                    raise JsonLdError(
                        f"invalid {key} in frame.", "jsonld.SyntaxError",
                        code="invalid frame", details={"frame": frame})


def _filter_subjects(state: dict, subjects: list[str], frame: dict,
                     flags: dict) -> dict:
    rval = {}
    for id_ in subjects:
        subject = state["graphMap"][state["graph"]].get(id_)
        if subject is not None and _filter_subject(state, subject, frame,
                                                   flags):
            rval[id_] = subject
    return rval


def _filter_subject(state: dict, subject: dict, frame: dict,
                    flags: dict) -> bool:
    """(frame.js:518-636)"""
    wildcard = True
    matches_some = False

    for key in frame.keys():
        match_this = False
        node_values = get_values(subject, key)
        is_empty = len(get_values(frame, key)) == 0

        if key == "@id":
            first = frame["@id"][0] if frame["@id"] else {}
            if is_empty_object(first if isinstance(first, dict) else {}) and \
                    isinstance(first, dict):
                match_this = True
            else:
                match_this = (node_values[0] in frame["@id"]) \
                    if node_values else False
            if not flags["requireAll"]:
                return match_this
        elif key == "@type":
            wildcard = False
            if is_empty:
                if len(node_values) > 0:
                    return False
                match_this = True
            elif len(frame["@type"]) == 1 and \
                    is_empty_object(frame["@type"][0]):
                match_this = len(node_values) > 0
            else:
                for type_ in frame["@type"]:
                    if isinstance(type_, dict) and "@default" in type_:
                        match_this = True
                    else:
                        match_this = match_this or any(
                            tt == type_ for tt in node_values)
            if not flags["requireAll"]:
                return match_this
        elif is_keyword(key):
            continue
        else:
            this_frame = get_values(frame, key)[0] \
                if get_values(frame, key) else None
            has_default = False
            if this_frame is not None:
                _validate_frame([this_frame])
                has_default = "@default" in this_frame
            wildcard = False

            if len(node_values) == 0 and has_default:
                continue
            if len(node_values) > 0 and is_empty:
                return False

            if this_frame is None:
                if len(node_values) > 0:
                    return False
                match_this = True
            elif is_list(this_frame):
                list_value = this_frame["@list"][0] \
                    if this_frame["@list"] else None
                if node_values and is_list(node_values[0]):
                    node_list_values = node_values[0]["@list"]
                    if is_value(list_value):
                        match_this = any(_value_match(list_value, lv)
                                         for lv in node_list_values)
                    elif is_subject(list_value) or \
                            is_subject_reference(list_value):
                        match_this = any(
                            _node_match(state, list_value, lv, flags)
                            for lv in node_list_values)
            elif is_value(this_frame):
                match_this = any(_value_match(this_frame, nv)
                                 for nv in node_values)
            elif is_subject_reference(this_frame):
                match_this = any(_node_match(state, this_frame, nv, flags)
                                 for nv in node_values)
            elif isinstance(this_frame, dict):
                match_this = len(node_values) > 0
            else:
                match_this = False

        if not match_this and flags["requireAll"]:
            return False
        matches_some = matches_some or match_this

    return wildcard or matches_some


def _remove_embed(state: dict, id_: str) -> None:
    """(frame.js:644-692)"""
    embeds = state["uniqueEmbeds"][state["graph"]]
    embed = embeds[id_]
    parent = embed["parent"]
    property_ = embed["property"]

    subject = {"@id": id_}
    if isinstance(parent, list):
        for i, item in enumerate(parent):
            if compare_values(item, subject):
                parent[i] = subject
                break
    else:
        use_array = isinstance(parent.get(property_), list)
        remove_value(parent, property_, subject,
                     property_is_array=use_array)
        add_value(parent, property_, subject, property_is_array=use_array)

    def remove_dependents(dep_id: str) -> None:
        for next_id in list(embeds.keys()):
            entry = embeds.get(next_id)
            if entry and isinstance(entry["parent"], dict) and \
                    entry["parent"].get("@id") == dep_id:
                del embeds[next_id]
                remove_dependents(next_id)

    remove_dependents(id_)


def _cleanup_preserve(input_: Any, options: dict) -> Any:
    """(frame.js:700-745)

    Extra cycle guard over the reference: @embed:@link can produce
    shared/cyclic structures whose @ids are pruned as single-use blank
    nodes; the reference's id-keyed link guard cannot terminate those
    (rare randomized-frame cases), so re-entrant objects are returned
    as-is instead of recursing forever."""
    if isinstance(input_, list):
        return [_cleanup_preserve(v, options) for v in input_]
    if isinstance(input_, dict):
        in_progress = options.setdefault("_cleanupInProgress", set())
        if id(input_) in in_progress:
            return input_
        in_progress.add(id(input_))
        try:
            return _cleanup_preserve_dict(input_, options)
        finally:
            in_progress.discard(id(input_))
    return input_


def _cleanup_preserve_dict(input_: dict, options: dict) -> Any:
    if "@preserve" in input_:
        return input_["@preserve"][0]
    if is_value(input_):
        return input_
    if is_list(input_):
        input_["@list"] = _cleanup_preserve(input_["@list"], options)
        return input_
    if "@id" in input_:
        id_ = _js_link_key(input_["@id"])
        link = options.setdefault("link", {})
        if id_ in link:
            for existing in link[id_]:
                if existing is input_:
                    return existing
            link[id_].append(input_)
        else:
            link[id_] = [input_]
    for prop in list(input_.keys()):
        if prop == "@id" and \
                input_[prop] in options.get("bnodesToClear", []):
            del input_["@id"]
            continue
        input_[prop] = _cleanup_preserve(input_[prop], options)
    return input_


def _add_frame_output(parent: Any, property_: str | None,
                      output: Any) -> None:
    if isinstance(parent, dict):
        add_value(parent, property_, output, property_is_array=True)
    else:
        parent.append(output)


def _node_match(state: dict, pattern: dict, value: Any, flags: dict) -> bool:
    if not isinstance(value, dict) or "@id" not in value:
        return False
    node_object = state["subjects"].get(value["@id"])
    return bool(node_object) and _filter_subject(state, node_object, pattern,
                                                 flags)


def _value_match(pattern: Any, value: Any) -> bool:
    """(frame.js:770-825)"""
    if not isinstance(pattern, dict) or not isinstance(value, dict):
        return False
    v1 = value.get("@value")
    t1 = value.get("@type")
    l1 = value.get("@language")
    v2 = as_array(pattern["@value"]) if pattern.get("@value") else []
    t2 = as_array(pattern["@type"]) if pattern.get("@type") else []
    l2 = as_array(pattern["@language"]) if pattern.get("@language") else []

    if len(v2) == 0 and len(t2) == 0 and len(l2) == 0:
        return True
    if not (v1 in v2 or (v2 and is_empty_object(v2[0]))):
        return False
    if not ((not t1 and len(t2) == 0) or (t1 in t2)
            or (t1 and t2 and is_empty_object(t2[0]))):
        return False
    if not ((not l1 and len(l2) == 0) or (l1 in l2)
            or (l1 and l2 and is_empty_object(l2[0]))):
        return False
    return True


def frame_document(input_: Any, frame: Any, options: dict) -> Any:
    """Top-level frame flow (lib/jsonld.js:425-511)."""
    from .. import api as _api

    opts = dict(options)
    opts.setdefault("embed", "@once")
    opts.setdefault("explicit", False)
    opts.setdefault("requireAll", False)
    opts.setdefault("omitDefault", False)
    opts.setdefault("bnodesToClear", [])

    frame_context = (frame.get("@context") or {}) if isinstance(frame, dict) \
        else {}

    active_ctx = _ctx.ActiveContext(opts)
    active_ctx = _ctx.process_context(active_ctx, frame_context, opts)

    if "omitGraph" not in opts:
        opts["omitGraph"] = _ctx.processing_mode(active_ctx, 1.1)
    if "pruneBlankNodeIdentifiers" not in opts:
        opts["pruneBlankNodeIdentifiers"] = _ctx.processing_mode(
            active_ctx, 1.1)

    expanded = _api.expand(input_, opts)

    frame_opts = dict(opts)
    frame_opts["isFrame"] = True
    frame_opts["keepFreeFloatingNodes"] = True
    expanded_frame = _api.expand(frame, frame_opts)

    frame_keys = [
        _ctx.expand_iri(active_ctx, key, vocab=True)
        for key in (frame.keys() if isinstance(frame, dict) else [])
    ]
    frame_opts["merged"] = "@graph" not in frame_keys
    frame_opts["is11"] = _ctx.processing_mode(active_ctx, 1.1)

    framed = frame_merged_or_default(expanded, expanded_frame, frame_opts)

    compact_opts = dict(frame_opts)
    compact_opts["graph"] = not opts["omitGraph"]
    compact_opts["skipExpansion"] = True
    compact_opts["link"] = {}
    compact_opts["framing"] = True
    compacted = _api.compact(framed, frame_context, compact_opts)

    compact_opts["link"] = {}
    return cleanup_null(compacted, compact_opts)

"""JSON-LD 1.1 Expansion Algorithm.

From-scratch synchronous implementation of the W3C JSON-LD 1.1 API
Expansion Algorithm (https://www.w3.org/TR/json-ld11-api/#expansion),
matching the reference's observable behavior
(/root/reference/lib/expand.js:68-1125): keyword matrix, containers
(@language/@index/@id/@type/@graph maps), @nest, @reverse, scoped and
type-scoped contexts, value-object validation, free-floating drop rules.
"""

from __future__ import annotations

import re
import warnings
from typing import Any

from . import context as _ctx
from . import url as _url
from .errors import JsonLdError
from .types import (
    is_empty_object, is_graph, is_keyword, is_list, is_object, is_string,
    is_subject, is_value,
)
from .util import add_value, as_array, get_values, js_sorted

REGEX_BCP47 = re.compile(r"^[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8})*$")

_SENTINEL = object()


def _map_unmappable(options: dict, **info):
    """User-extension surface mirroring the reference's expansionMap hook
    (lib/jsonld.js:109-112; all expand.js/context.js call sites): invoked
    whenever a value/property would be dropped; a non-None return
    replaces the default drop.

    JS-undefined vs JS-null: the reference only treats *undefined* as
    "no mapping". Python has one None, which here always means "use the
    default" — a hook cannot inject an explicit JSON null (same caveat
    as compactionMap; see core/compact.py)."""
    hook = options.get("expansionMap")
    if hook is None:
        return _SENTINEL
    info.setdefault("options", options)
    mapped = hook(info)
    return _SENTINEL if mapped is None else mapped



def _type_opts(options: dict) -> dict:
    """options + typeExpansion flag — only copied when a hook observes
    it (hot-path: @type expansion runs per node)."""
    if options.get("expansionMap") is None:
        return options
    return {**options, "typeExpansion": True}

def validate_type_value(v: Any, is_frame: bool) -> None:
    """@type values must be strings / arrays of strings (util.js:153-184)."""
    if is_string(v):
        return
    if isinstance(v, list) and all(is_string(x) for x in v):
        return
    if is_frame and isinstance(v, dict):
        if len(v) == 0:
            return
        if len(v) == 1 and "@default" in v and \
                all(is_string(x) for x in as_array(v["@default"])):
            return
    raise JsonLdError(
        '"@type" value must be a string, an array of strings, an empty '
        'object, or a default object.', "jsonld.SyntaxError",
        code="invalid type value", details={"value": v})


def expand(
    active_ctx: _ctx.ActiveContext,
    element: Any,
    active_property: str | None = None,
    options: dict | None = None,
    inside_list: bool = False,
    inside_index: bool = False,
    type_scoped_context: _ctx.ActiveContext | None = None,
) -> Any:
    """Recursively expand ``element``; returns expanded value or None."""
    options = options or {}

    if element is None:
        return None

    if active_property == "@default":
        options = {**options, "isFrame": False}

    if not isinstance(element, (list, dict)):
        # drop free-floating scalars not in lists
        if not inside_list and (
            active_property is None
            or _ctx.key_plan(active_ctx, active_property,
                             options)[0] == "@graph"
        ):
            mapped = _map_unmappable(
                options, unmappedValue=element, activeCtx=active_ctx,
                activeProperty=active_property, insideList=inside_list)
            return None if mapped is _SENTINEL else mapped
        return _expand_value(active_ctx, active_property, element, options)

    # arrays
    if isinstance(element, list):
        rval: list = []
        container = _ctx.get_context_value(
            active_ctx, active_property, "@container") or []
        inside_list = inside_list or "@list" in container
        for i, item in enumerate(element):
            e = expand(active_ctx, item, active_property, options,
                       inside_index=inside_index,
                       type_scoped_context=type_scoped_context)
            if inside_list and isinstance(e, list):
                e = {"@list": e}
            if e is None:
                # array element expanded away (expand.js:135-148)
                mapped = _map_unmappable(
                    options, unmappedValue=item, activeCtx=active_ctx,
                    activeProperty=active_property, parent=element,
                    index=i, expandedParent=rval,
                    insideList=inside_list)
                if mapped is _SENTINEL:
                    continue
                e = mapped
            if isinstance(e, list):
                rval.extend(e)
            else:
                rval.append(e)
        return rval

    # objects
    expanded_active_property, property_scoped_ctx = _ctx.key_plan(
        active_ctx, active_property, options)[:2]

    # determine whether to revert a type-scoped context (expand.js:169-200)
    type_scoped_context = type_scoped_context or (
        active_ctx if active_ctx.previous_context else None)
    keys = js_sorted(element)
    must_revert = not inside_index
    if must_revert and type_scoped_context and len(keys) <= 2 and \
            "@context" not in keys:
        for key in keys:
            expanded_property = _ctx.expand_iri(
                type_scoped_context, key, vocab=True, options=options)
            if expanded_property == "@value":
                must_revert = False
                active_ctx = type_scoped_context
                break
            if expanded_property == "@id" and len(keys) == 1:
                must_revert = False
                break
    if must_revert:
        active_ctx = active_ctx.revert_to_previous()

    # apply property-scoped context (explicit null resets — only the
    # UNDEFINED sentinel means "no scoped context")
    if property_scoped_ctx is not _ctx.UNDEFINED:
        active_ctx = _ctx.process_context(
            active_ctx, property_scoped_ctx, options,
            propagate=True, override_protected=True)

    # embedded context
    if "@context" in element:
        active_ctx = _ctx.process_context(
            active_ctx, element["@context"], options)

    type_scoped_context = active_ctx

    # look for scoped contexts on @type (expand.js:223-247)
    type_key = None
    for key in keys:
        if _ctx.key_plan(active_ctx, key, options)[0] == "@type":
            type_key = type_key or key
            value = element[key]
            # JS Array.sort stringifies members; frames may mix dicts in
            types = js_sorted(
                value,
                key=lambda v: v if isinstance(v, str) else "[object Object]"
            ) if isinstance(value, list) else [value]
            for t in types:
                ctx = _ctx.get_context_value(
                    type_scoped_context, t if isinstance(t, str) else None,
                    "@context")
                if ctx is not _ctx.UNDEFINED:
                    active_ctx = _ctx.process_context(
                        active_ctx, ctx, options, propagate=False)

    rval: Any = {}
    _expand_object(
        active_ctx, active_property, expanded_active_property, element, rval,
        options, inside_list, type_key, type_scoped_context)

    keys = list(rval.keys())
    count = len(keys)

    if "@value" in rval:
        if "@type" in rval and ("@language" in rval or "@direction" in rval):
            raise JsonLdError(
                'an element containing "@value" may not contain both '
                '"@type" and either "@language" or "@direction".',
                "jsonld.SyntaxError", code="invalid value object",
                details={"element": rval})
        valid_count = count - 1
        for k in ("@type", "@index", "@language", "@direction"):
            if k in rval:
                valid_count -= 1
        if valid_count != 0:
            raise JsonLdError(
                'an element containing "@value" may only have an "@index" '
                'property and either "@type" or either or both "@language" '
                'or "@direction".', "jsonld.SyntaxError",
                code="invalid value object", details={"element": rval})
        values = [] if rval["@value"] is None else as_array(rval["@value"])
        type_vals = get_values(rval, "@type")

        if _ctx.processing_mode(active_ctx, 1.1) and \
                "@json" in type_vals and len(type_vals) == 1:
            pass  # any @value ok for @json literals
        elif len(values) == 0:
            mapped = _map_unmappable(
                options, unmappedValue=rval, activeCtx=active_ctx,
                activeProperty=active_property, element=element,
                insideList=inside_list)
            rval = None if mapped is _SENTINEL else mapped
        elif not all(is_string(v) or is_empty_object(v) for v in values) and \
                "@language" in rval:
            raise JsonLdError(
                "only strings may be language-tagged.",
                "jsonld.SyntaxError", code="invalid language-tagged value",
                details={"element": rval})
        elif not all(
            (_url.is_absolute(t) and not (is_string(t) and t.startswith("_:")))
            or is_empty_object(t)
            for t in type_vals
        ):
            raise JsonLdError(
                'an element containing "@value" and "@type" must have an '
                'absolute IRI for the value of "@type".',
                "jsonld.SyntaxError", code="invalid typed value",
                details={"element": rval})
    elif "@type" in rval and not isinstance(rval["@type"], list):
        rval["@type"] = [rval["@type"]]
    elif "@set" in rval or "@list" in rval:
        if count > 1 and not (count == 2 and "@index" in rval):
            raise JsonLdError(
                'if an element has the property "@set" or "@list", then it '
                'can have at most one other property that is "@index".',
                "jsonld.SyntaxError", code="invalid set or list object",
                details={"element": rval})
        if "@set" in rval:
            rval = rval["@set"]
            keys = list(rval.keys()) if isinstance(rval, dict) else []
            count = len(keys)
    elif count == 1 and "@language" in rval:
        mapped = _map_unmappable(
            options, unmappedValue=rval, activeCtx=active_ctx,
            activeProperty=active_property, element=element,
            insideList=inside_list)
        rval = None if mapped is _SENTINEL else mapped

    # drop certain free-floating top-level objects (expand.js:367-389)
    if isinstance(rval, dict) and not options.get("keepFreeFloatingNodes") \
            and not inside_list and (
                active_property is None
                or expanded_active_property == "@graph"):
        if count == 0 or "@value" in rval or "@list" in rval or (
                count == 1 and "@id" in rval):
            mapped = _map_unmappable(
                options, unmappedValue=rval, activeCtx=active_ctx,
                activeProperty=active_property, element=element,
                insideList=inside_list)
            rval = None if mapped is _SENTINEL else mapped

    return rval


def _expand_object(
    active_ctx: _ctx.ActiveContext,
    active_property: str | None,
    expanded_active_property: Any,
    element: dict,
    expanded_parent: dict,
    options: dict,
    inside_list: bool,
    type_key: str | None,
    type_scoped_context: _ctx.ActiveContext,
) -> None:
    """Expand each key/value of element into expanded_parent
    (expand.js:411-917)."""
    keys = js_sorted(element)
    nests: list[str] = []
    unexpanded_value: Any = None

    # is this the type for a JSON literal?
    is_json_type = False
    if type_key is not None and element.get(type_key) is not None:
        tv = element[type_key]
        tv0 = tv[0] if isinstance(tv, list) and tv else tv
        if is_string(tv0):
            is_json_type = _ctx.expand_iri(
                active_ctx, tv0, vocab=True,
                options=_type_opts(options)) == "@json"

    for key in keys:
        value = element[key]

        if key == "@context":
            continue

        plan = _ctx.key_plan(active_ctx, key, options)
        expanded_property = plan[0]

        # drop non-absolute-IRI, non-keyword keys
        if expanded_property is None or not (
                _url.is_absolute(expanded_property)
                or is_keyword(expanded_property)):
            mapped = _map_unmappable(
                options, unmappedProperty=key, activeCtx=active_ctx,
                activeProperty=active_property, parent=element,
                value=value, expandedParent=expanded_parent,
                insideList=inside_list)
            if mapped is _SENTINEL:
                continue
            expanded_property = mapped

        if is_keyword(expanded_property):
            if expanded_active_property == "@reverse":
                raise JsonLdError(
                    "a keyword cannot be used as a @reverse property.",
                    "jsonld.SyntaxError",
                    code="invalid reverse property map",
                    details={"value": value})
            if expanded_property in expanded_parent and \
                    expanded_property not in ("@included", "@type"):
                raise JsonLdError(
                    "colliding keywords detected.", "jsonld.SyntaxError",
                    code="colliding keywords",
                    details={"keyword": expanded_property})

        if expanded_property == "@id":
            if not is_string(value):
                if not options.get("isFrame"):
                    raise JsonLdError(
                        '"@id" value must be a string.',
                        "jsonld.SyntaxError", code="invalid @id value",
                        details={"value": value})
                if isinstance(value, dict):
                    if not is_empty_object(value):
                        raise JsonLdError(
                            '"@id" value must be an empty object or array of '
                            'strings, if framing', "jsonld.SyntaxError",
                            code="invalid @id value", details={"value": value})
                elif isinstance(value, list):
                    if not all(is_string(v) for v in value):
                        raise JsonLdError(
                            '"@id" value must be an empty object or array of '
                            'strings, if framing', "jsonld.SyntaxError",
                            code="invalid @id value", details={"value": value})
                else:
                    raise JsonLdError(
                        '"@id" value must be an empty object or array of '
                        'strings, if framing', "jsonld.SyntaxError",
                        code="invalid @id value", details={"value": value})
            add_value(
                expanded_parent, "@id",
                [
                    _ctx.expand_iri(active_ctx, v, base=True, options=options)
                    if is_string(v) else v
                    for v in as_array(value)
                ],
                property_is_array=bool(options.get("isFrame")))
            continue

        if expanded_property == "@type":
            if isinstance(value, dict):
                value = {
                    _ctx.expand_iri(type_scoped_context, k, vocab=True,
                                    options=options): [
                        _ctx.expand_iri(
                            type_scoped_context, vv, base=True, vocab=True,
                            options=_type_opts(options))
                        for vv in as_array(v)
                    ]
                    for k, v in value.items()
                }
            validate_type_value(value, bool(options.get("isFrame")))
            add_value(
                expanded_parent, "@type",
                [
                    _ctx.expand_iri(
                        type_scoped_context, v, base=True, vocab=True,
                        options=_type_opts(options))
                    if is_string(v) else v
                    for v in as_array(value)
                ],
                property_is_array=bool(options.get("isFrame")))
            continue

        if expanded_property == "@included" and \
                _ctx.processing_mode(active_ctx, 1.1):
            included = as_array(expand(
                active_ctx, value, active_property, options))
            if not all(is_subject(v) for v in included):
                raise JsonLdError(
                    "values of @included must expand to node objects.",
                    "jsonld.SyntaxError", code="invalid @included value",
                    details={"value": value})
            add_value(expanded_parent, "@included", included,
                      property_is_array=True)
            continue

        if expanded_property == "@graph" and not isinstance(value, (dict, list)):
            raise JsonLdError(
                '"@graph" value must be an object or an array.',
                "jsonld.SyntaxError", code="invalid @graph value",
                details={"value": value})

        if expanded_property == "@value":
            unexpanded_value = value
            if is_json_type and _ctx.processing_mode(active_ctx, 1.1):
                expanded_parent["@value"] = value
            else:
                add_value(expanded_parent, "@value", value,
                          property_is_array=bool(options.get("isFrame")))
            continue

        if expanded_property == "@language":
            if value is None:
                continue
            if not is_string(value) and not options.get("isFrame"):
                raise JsonLdError(
                    '"@language" value must be a string.',
                    "jsonld.SyntaxError",
                    code="invalid language-tagged string",
                    details={"value": value})
            value = [v.lower() if is_string(v) else v for v in as_array(value)]
            for lang in value:
                if is_string(lang) and not REGEX_BCP47.match(lang):
                    warnings.warn(f"@language must be valid BCP47: {lang}")
            add_value(expanded_parent, "@language", value,
                      property_is_array=bool(options.get("isFrame")))
            continue

        if expanded_property == "@direction":
            if not is_string(value) and not options.get("isFrame"):
                raise JsonLdError(
                    '"@direction" value must be a string.',
                    "jsonld.SyntaxError", code="invalid base direction",
                    details={"value": value})
            value = as_array(value)
            for d in value:
                if is_string(d) and d not in ("ltr", "rtl"):
                    raise JsonLdError(
                        '"@direction" must be "ltr" or "rtl".',
                        "jsonld.SyntaxError", code="invalid base direction",
                        details={"value": value})
            add_value(expanded_parent, "@direction", value,
                      property_is_array=bool(options.get("isFrame")))
            continue

        if expanded_property == "@index":
            if not is_string(value):
                raise JsonLdError(
                    '"@index" value must be a string.',
                    "jsonld.SyntaxError", code="invalid @index value",
                    details={"value": value})
            add_value(expanded_parent, "@index", value)
            continue

        if expanded_property == "@reverse":
            if not isinstance(value, dict):
                raise JsonLdError(
                    '"@reverse" value must be an object.',
                    "jsonld.SyntaxError", code="invalid @reverse value",
                    details={"value": value})
            expanded_value = expand(
                active_ctx, value, "@reverse", options)
            if isinstance(expanded_value, dict) and \
                    "@reverse" in expanded_value:
                for prop, vals in expanded_value["@reverse"].items():
                    add_value(expanded_parent, prop, vals,
                              property_is_array=True)
            if isinstance(expanded_value, dict):
                reverse_map = expanded_parent.get("@reverse")
                for prop, items in expanded_value.items():
                    if prop == "@reverse":
                        continue
                    if reverse_map is None:
                        reverse_map = expanded_parent["@reverse"] = {}
                    add_value(reverse_map, prop, [], property_is_array=True)
                    for item in items:
                        if is_value(item) or is_list(item):
                            raise JsonLdError(
                                '"@reverse" value must not be a @value or '
                                'an @list.', "jsonld.SyntaxError",
                                code="invalid reverse property value",
                                details={"value": expanded_value})
                        add_value(reverse_map, prop, item,
                                  property_is_array=True)
            continue

        if expanded_property == "@nest":
            nests.append(key)
            continue

        # scoped context for this key
        term_ctx = active_ctx
        container, is_reverse = plan[2], plan[6]
        if plan[1] is not _ctx.UNDEFINED:
            term_ctx = _ctx.process_context(
                active_ctx, plan[1], options, propagate=True,
                override_protected=True)
            container = _ctx.get_context_value(
                term_ctx, key, "@container") or []
            mapping = term_ctx.mappings.get(key)
            is_reverse = bool(mapping and mapping.get("reverse"))

        if "@language" in container and isinstance(value, dict):
            direction = _ctx.get_context_value(term_ctx, key, "@direction")
            expanded_value = _expand_language_map(
                term_ctx, value, direction, options)
        elif "@index" in container and isinstance(value, dict):
            as_graph = "@graph" in container
            index_key = _ctx.get_context_value(term_ctx, key, "@index") \
                or "@index"
            property_index = None
            if index_key != "@index":
                property_index = _ctx.expand_iri(
                    active_ctx, index_key, vocab=True, options=options)
            expanded_value = _expand_index_map(
                term_ctx, options, key, value, as_graph, index_key,
                property_index)
        elif "@id" in container and isinstance(value, dict):
            as_graph = "@graph" in container
            expanded_value = _expand_index_map(
                term_ctx, options, key, value, as_graph, "@id", None)
        elif "@type" in container and isinstance(value, dict):
            expanded_value = _expand_index_map(
                term_ctx.revert_to_previous(), options, key, value, False,
                "@type", None)
        else:
            is_list_prop = expanded_property == "@list"
            if is_list_prop or expanded_property == "@set":
                next_active_property = active_property
                if is_list_prop and expanded_active_property == "@graph":
                    next_active_property = None
                expanded_value = expand(
                    term_ctx, value, next_active_property, options,
                    inside_list=is_list_prop)
            elif plan[3] == "@json":
                expanded_value = {"@type": "@json", "@value": value}
            else:
                expanded_value = expand(
                    term_ctx, value, key, options, inside_list=False)

        if expanded_value is None and expanded_property != "@value":
            mapped = _map_unmappable(
                options, unmappedValue=value, activeCtx=term_ctx,
                expandedProperty=expanded_property, key=key,
                activeProperty=active_property, parent=element,
                expandedParent=expanded_parent, insideList=inside_list)
            if mapped is _SENTINEL:
                continue
            expanded_value = mapped

        if expanded_property != "@list" and not is_list(expanded_value) and \
                "@list" in container:
            expanded_value = {"@list": as_array(expanded_value)}

        if "@graph" in container and "@id" not in container and \
                "@index" not in container:
            expanded_value = [
                {"@graph": as_array(v)} for v in as_array(expanded_value)
            ]

        if is_reverse:
            reverse_map = expanded_parent.setdefault("@reverse", {})
            for item in as_array(expanded_value):
                if is_value(item) or is_list(item):
                    raise JsonLdError(
                        '"@reverse" value must not be a @value or an @list.',
                        "jsonld.SyntaxError",
                        code="invalid reverse property value",
                        details={"value": expanded_value})
                add_value(reverse_map, expanded_property, item,
                          property_is_array=True)
            continue

        add_value(expanded_parent, expanded_property, expanded_value,
                  property_is_array=True)

    # @value must not be an object/array unless @json or framing
    if "@value" in expanded_parent:
        if expanded_parent.get("@type") == "@json" and \
                _ctx.processing_mode(active_ctx, 1.1):
            pass
        elif isinstance(unexpanded_value, (dict, list)) and \
                not options.get("isFrame"):
            raise JsonLdError(
                '"@value" value must not be an object or an array.',
                "jsonld.SyntaxError", code="invalid value object value",
                details={"value": unexpanded_value})

    # expand @nest content
    for key in nests:
        for nv in as_array(element[key]):
            if not isinstance(nv, dict) or any(
                _ctx.expand_iri(active_ctx, k, vocab=True,
                                options=options) == "@value"
                for k in nv
            ):
                raise JsonLdError(
                    "nested value must be a node object.",
                    "jsonld.SyntaxError", code="invalid @nest value",
                    details={"value": nv})
            _expand_object(
                active_ctx, active_property, expanded_active_property, nv,
                expanded_parent, options, inside_list, type_key,
                type_scoped_context)


def _expand_value(active_ctx: _ctx.ActiveContext, active_property: str | None,
                  value: Any, options: dict) -> Any:
    """Value expansion via context coercion (expand.js:930-988)."""
    if value is None:
        return None

    expanded_property, _, _, type_, language, direction, _ = \
        _ctx.key_plan(active_ctx, active_property, options)
    if expanded_property == "@id":
        return _ctx.expand_iri(active_ctx, value, base=True, options=options)
    if expanded_property == "@type":
        return _ctx.expand_iri(active_ctx, value, vocab=True, base=True,
                               options=_type_opts(options))

    if (type_ == "@id" or expanded_property == "@graph") and is_string(value):
        return {"@id": _ctx.expand_iri(active_ctx, value, base=True,
                                       options=options)}
    if type_ == "@vocab" and is_string(value):
        return {"@id": _ctx.expand_iri(active_ctx, value, vocab=True,
                                       base=True, options=options)}

    if is_keyword(expanded_property):
        return value

    rval: dict[str, Any] = {}
    if type_ is not None and type_ not in ("@id", "@vocab", "@none"):
        rval["@type"] = type_
    elif is_string(value):
        if language is not None:
            rval["@language"] = language
        if direction is not None:
            rval["@direction"] = direction

    if not isinstance(value, (bool, int, float, str)):
        value = str(value)
    rval["@value"] = value
    return rval


def _expand_language_map(active_ctx: _ctx.ActiveContext, language_map: dict,
                         direction: Any, options: dict) -> list:
    """@container:@language map → value-object list (expand.js:1000-1031)."""
    rval = []
    for key in js_sorted(language_map):
        expanded_key = _ctx.expand_iri(active_ctx, key, vocab=True,
                                       options=options)
        for item in as_array(language_map[key]):
            if item is None:
                continue
            if not is_string(item):
                raise JsonLdError(
                    "language map values must be strings.",
                    "jsonld.SyntaxError", code="invalid language map value",
                    details={"languageMap": language_map})
            val: dict[str, Any] = {"@value": item}
            if expanded_key != "@none":
                val["@language"] = key.lower()
            if direction:
                val["@direction"] = direction
            rval.append(val)
    return rval


def _expand_index_map(active_ctx: _ctx.ActiveContext, options: dict,
                      active_property: str, value: dict, as_graph: bool,
                      index_key: str, property_index: Any) -> list:
    """@index/@id/@type container maps (expand.js:1033-1125)."""
    rval = []
    is_type_index = index_key == "@type"
    for key in js_sorted(value):
        if is_type_index:
            ctx = _ctx.get_context_value(active_ctx, key, "@context")
            if ctx is not _ctx.UNDEFINED:
                active_ctx = _ctx.process_context(
                    active_ctx, ctx, options, propagate=False)

        val = expand(
            active_ctx, as_array(value[key]), active_property, options,
            inside_list=False, inside_index=True)

        if property_index:
            if key == "@none":
                expanded_key: Any = "@none"
            else:
                expanded_key = _expand_value(
                    active_ctx, index_key, key, options)
        else:
            expanded_key = _ctx.expand_iri(active_ctx, key, vocab=True,
                                           options=options)

        item_key = key
        if index_key == "@id":
            item_key = _ctx.expand_iri(active_ctx, key, base=True,
                                       options=options)
        elif is_type_index:
            item_key = expanded_key

        for item in val:
            if as_graph and not is_graph(item):
                item = {"@graph": as_array(item)}
            if index_key == "@type":
                if expanded_key == "@none":
                    pass
                elif item.get("@type"):
                    item["@type"] = [item_key] + item["@type"]
                else:
                    item["@type"] = [item_key]
            elif is_value(item) and index_key not in ("@language", "@type",
                                                      "@index"):
                raise JsonLdError(
                    "Attempt to add illegal key to value object: "
                    f'"{index_key}".', "jsonld.SyntaxError",
                    code="invalid value object", details={"value": item})
            elif property_index:
                if expanded_key != "@none":
                    add_value(item, property_index, expanded_key,
                              property_is_array=True, prepend_value=True)
            elif expanded_key != "@none" and index_key not in item:
                item[index_key] = item_key
            rval.append(item)
    return rval

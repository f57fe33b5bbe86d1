"""JSON-LD 1.1 Compaction Algorithm.

From-scratch implementation of the W3C JSON-LD 1.1 API Compaction / IRI
Compaction / Value Compaction / Term Selection algorithms, matching the
reference's observable behavior (/root/reference/lib/compact.js:58-1161):
container folding (@list/@graph/@language/@index/@id/@type maps), @nest,
@reverse, inverse-context term selection, CURIE search, base-relative IRIs.
"""

from __future__ import annotations

from typing import Any

from . import context as _ctx
from . import url as _url
from .errors import JsonLdError
from .types import (
    is_graph, is_keyword, is_list, is_simple_graph, is_string,
    is_subject_reference, is_value,
)
from .util import add_value, as_array, compare_shortest_least, js_sorted


def compact(active_ctx: _ctx.ActiveContext, active_property: str | None,
            element: Any, options: dict | None = None) -> Any:
    """Recursively compact expanded ``element`` (compact.js:58-672)."""
    options = options or {}

    if isinstance(element, list):
        rval = []
        for i, item in enumerate(element):
            compacted = compact(active_ctx, active_property, item, options)
            if compacted is None:
                # compactionMap hook (reference lib/jsonld.js:114-117,
                # compact.js:78-89): a non-None return replaces the
                # drop. NOTE Python None conflates JS null/undefined:
                # the reference emits an explicit null return but skips
                # only undefined; here None always skips (documented
                # deviation — a hook cannot inject a JSON null).
                hook = options.get("compactionMap")
                if hook is not None:
                    mapped = hook({"unmappedValue": item,
                                   "activeCtx": active_ctx,
                                   "activeProperty": active_property,
                                   "parent": element, "index": i,
                                   "options": options})
                    if mapped is not None:
                        rval.append(mapped)
                continue
            rval.append(compacted)
        if options.get("compactArrays") and len(rval) == 1:
            container = _ctx.get_context_value(
                active_ctx, active_property, "@container") or []
            if len(container) == 0:
                return rval[0]
        return rval

    # scoped context on active_property
    ctx = _ctx.get_context_value(active_ctx, active_property, "@context")
    if ctx is not _ctx.UNDEFINED:
        active_ctx = _ctx.process_context(
            active_ctx, ctx, options, propagate=True, override_protected=True)

    if isinstance(element, dict):
        link = options.get("link")
        if isinstance(link, dict) and "@id" in element and \
                element["@id"] in link:
            for entry in link[element["@id"]]:
                if entry["expanded"] is element:
                    return entry["compacted"]
        if isinstance(link, dict):
            # termination guard beyond the reference's @id-keyed link
            # map: @embed:@link output can be cyclic through nodes whose
            # @ids were pruned as single-use bnodes. The reference
            # RE-COMPACTS an id-less re-entrant element (a fresh copy
            # per visit) and only closes the cycle when it reaches an
            # @id-bearing node whose in-construction link entry hits
            # (compact.js:117-125,185-191) — so allow ONE re-entrant
            # recompaction (exact parity when an @id node is on the
            # cycle, fuzz seed 3200865) and short-circuit at depth 2,
            # where the reference dies in a native stack overflow (the
            # documented known-crash skip class; this engine terminates)
            in_progress = options.setdefault("_compactInProgress", {})
            stack = in_progress.get(id(element))
            if stack and len(stack) >= 2:
                return stack[-1]

        if is_value(element) or is_subject_reference(element):
            rval = compact_value(active_ctx, active_property, element,
                                 options)
            if isinstance(link, dict) and is_subject_reference(element):
                link.setdefault(element["@id"], []).append(
                    {"expanded": element, "compacted": rval})
            return rval

        if is_list(element):
            container = _ctx.get_context_value(
                active_ctx, active_property, "@container") or []
            if "@list" in container:
                return compact(active_ctx, active_property,
                               element["@list"], options)

        inside_reverse = active_property == "@reverse"
        rval: dict[str, Any] = {}
        if isinstance(link, dict):
            options.setdefault("_compactInProgress", {}) \
                .setdefault(id(element), []).append(rval)

        input_ctx = active_ctx
        if not is_value(element) and not is_subject_reference(element):
            active_ctx = active_ctx.revert_to_previous()

        property_scoped_ctx = _ctx.get_context_value(
            input_ctx, active_property, "@context")
        if property_scoped_ctx is not _ctx.UNDEFINED:
            active_ctx = _ctx.process_context(
                active_ctx, property_scoped_ctx, options, propagate=True,
                override_protected=True)

        if isinstance(link, dict) and "@id" in element:
            link.setdefault(element["@id"], []).append(
                {"expanded": element, "compacted": rval})

        # apply type-scoped contexts
        types = element.get("@type") or []
        if len(types) > 1:
            types = js_sorted(types)
        type_context = active_ctx
        for type_ in types:
            compacted_type = compact_iri(type_context, type_, vocab=True)
            ctx2 = _ctx.get_context_value(input_ctx, compacted_type,
                                          "@context")
            if ctx2 is not _ctx.UNDEFINED:
                active_ctx = _ctx.process_context(
                    active_ctx, ctx2, options, propagate=False)

        for expanded_property in js_sorted(element):
            expanded_value = element[expanded_property]

            if expanded_property == "@id":
                compacted_value: Any = [
                    compact_iri(active_ctx, iri, vocab=False,
                                base=options.get("base"))
                    for iri in as_array(expanded_value)
                ]
                if len(compacted_value) == 1:
                    compacted_value = compacted_value[0]
                alias = compact_iri(active_ctx, "@id", vocab=True)
                rval[alias] = compacted_value
                continue

            if expanded_property == "@type":
                compacted_value = [
                    compact_iri(input_ctx, iri, vocab=True)
                    for iri in as_array(expanded_value)
                ]
                if len(compacted_value) == 1:
                    compacted_value = compacted_value[0]
                alias = compact_iri(active_ctx, "@type", vocab=True)
                container = _ctx.get_context_value(
                    active_ctx, alias, "@container") or []
                type_as_set = "@set" in container and \
                    _ctx.processing_mode(active_ctx, 1.1)
                is_array = type_as_set or (
                    isinstance(compacted_value, list)
                    and len(expanded_value) == 0)
                add_value(rval, alias, compacted_value,
                          property_is_array=is_array)
                continue

            if expanded_property == "@reverse":
                compacted_value = compact(
                    active_ctx, "@reverse", expanded_value, options)
                # handle double-reversed properties
                for compacted_property in list(compacted_value.keys()):
                    mapping = active_ctx.mappings.get(compacted_property)
                    if mapping and mapping.get("reverse"):
                        value = compacted_value[compacted_property]
                        container = _ctx.get_context_value(
                            active_ctx, compacted_property,
                            "@container") or []
                        use_array = "@set" in container or \
                            not options.get("compactArrays")
                        add_value(rval, compacted_property, value,
                                  property_is_array=use_array)
                        del compacted_value[compacted_property]
                if len(compacted_value) > 0:
                    alias = compact_iri(active_ctx, "@reverse", vocab=True)
                    add_value(rval, alias, compacted_value)
                continue

            if expanded_property == "@preserve":
                compacted_value = compact(
                    active_ctx, active_property, expanded_value, options)
                if not (isinstance(compacted_value, list)
                        and len(compacted_value) == 0):
                    add_value(rval, expanded_property, compacted_value)
                continue

            if expanded_property == "@index":
                container = _ctx.get_context_value(
                    active_ctx, active_property, "@container") or []
                if "@index" in container:
                    continue
                alias = compact_iri(active_ctx, "@index", vocab=True)
                add_value(rval, alias, expanded_value)
                continue

            if expanded_property not in ("@graph", "@list", "@included") and \
                    is_keyword(expanded_property):
                alias = compact_iri(active_ctx, expanded_property, vocab=True)
                add_value(rval, alias, expanded_value)
                continue

            if not isinstance(expanded_value, list):
                raise JsonLdError(
                    "JSON-LD expansion error; expanded value must be an "
                    "array.", "jsonld.SyntaxError")

            if len(expanded_value) == 0:
                item_active_property = compact_iri(
                    active_ctx, expanded_property, value=expanded_value,
                    vocab=True, reverse=inside_reverse)
                nest_result = _nest_target(
                    active_ctx, rval, item_active_property, options)
                add_value(nest_result, item_active_property, expanded_value,
                          property_is_array=True)

            for expanded_item in expanded_value:
                item_active_property = compact_iri(
                    active_ctx, expanded_property, value=expanded_item,
                    vocab=True, reverse=inside_reverse)
                nest_result = _nest_target(
                    active_ctx, rval, item_active_property, options)

                container = _ctx.get_context_value(
                    active_ctx, item_active_property, "@container") or []

                is_graph_item = is_graph(expanded_item)
                is_list_item = is_list(expanded_item)
                inner = None
                if is_list_item:
                    inner = expanded_item["@list"]
                elif is_graph_item:
                    inner = expanded_item["@graph"]

                compacted_item = compact(
                    active_ctx, item_active_property,
                    inner if (is_list_item or is_graph_item)
                    else expanded_item, options)

                if is_list_item:
                    if not isinstance(compacted_item, list):
                        compacted_item = [compacted_item]
                    if "@list" not in container:
                        list_alias = compact_iri(active_ctx, "@list",
                                                 vocab=True)
                        compacted_item = {list_alias: compacted_item}
                        if "@index" in expanded_item:
                            index_alias = compact_iri(active_ctx, "@index",
                                                      vocab=True)
                            compacted_item[index_alias] = \
                                expanded_item["@index"]
                    else:
                        add_value(nest_result, item_active_property,
                                  compacted_item, value_is_array=True,
                                  allow_duplicate=True)
                        continue

                if is_graph_item:
                    _compact_graph_item(
                        active_ctx, nest_result, item_active_property,
                        expanded_item, compacted_item, container, options)
                elif ("@language" in container or "@index" in container
                      or "@id" in container or "@type" in container):
                    map_object = nest_result.setdefault(
                        item_active_property, {})
                    key = None
                    if "@language" in container:
                        if is_value(compacted_item):
                            compacted_item = compacted_item["@value"]
                        key = expanded_item.get("@language")
                    elif "@index" in container:
                        index_key = _ctx.get_context_value(
                            active_ctx, item_active_property, "@index") \
                            or "@index"
                        container_key = compact_iri(
                            active_ctx, index_key, vocab=True)
                        if index_key == "@index":
                            key = expanded_item.get("@index")
                            if isinstance(compacted_item, dict):
                                compacted_item.pop(container_key, None)
                        else:
                            vals = as_array(
                                compacted_item.get(index_key) or []) \
                                if isinstance(compacted_item, dict) else []
                            key = vals[0] if vals else None
                            others = vals[1:]
                            if not is_string(key):
                                key = None
                            elif isinstance(compacted_item, dict):
                                if len(others) == 0:
                                    compacted_item.pop(index_key, None)
                                elif len(others) == 1:
                                    compacted_item[index_key] = others[0]
                                else:
                                    compacted_item[index_key] = others
                    elif "@id" in container:
                        id_key = compact_iri(active_ctx, "@id", vocab=True)
                        if isinstance(compacted_item, dict):
                            key = compacted_item.pop(id_key, None)
                        else:
                            key = None
                    elif "@type" in container:
                        type_key = compact_iri(active_ctx, "@type",
                                               vocab=True)
                        vals = as_array(
                            compacted_item.get(type_key) or []) \
                            if isinstance(compacted_item, dict) else []
                        key = vals[0] if vals else None
                        types_rest = vals[1:]
                        if isinstance(compacted_item, dict):
                            if len(types_rest) == 0:
                                compacted_item.pop(type_key, None)
                            elif len(types_rest) == 1:
                                compacted_item[type_key] = types_rest[0]
                            else:
                                compacted_item[type_key] = types_rest
                        if isinstance(compacted_item, dict) and \
                                len(compacted_item) == 1 and \
                                "@id" in expanded_item:
                            compacted_item = compact(
                                active_ctx, item_active_property,
                                {"@id": expanded_item["@id"]}, options)
                    if not key:
                        key = compact_iri(active_ctx, "@none", vocab=True)
                    if isinstance(map_object, dict):
                        add_value(map_object, key, compacted_item,
                                  property_is_array="@set" in container)
                    # else: a non-@graph-container graph item landed
                    # first and nestResult[prop] is the ARRAY its
                    # wrapper was appended to (compact.js:515-541); the
                    # reference then does _addValue(array, key, ...) —
                    # a string-keyed property on a JS array, which
                    # JSON.stringify silently DROPS. Mirror the
                    # serialized behavior: the map entry never appears
                    # (reference-verified, tests/test_review_r5d.py).
                else:
                    is_array = (
                        not options.get("compactArrays")
                        or "@set" in container or "@list" in container
                        or (isinstance(compacted_item, list)
                            and len(compacted_item) == 0)
                        or expanded_property in ("@list", "@graph"))
                    add_value(nest_result, item_active_property,
                              compacted_item, property_is_array=is_array)

        if isinstance(link, dict):
            # pop the re-entrancy guard frame now that this element's
            # compaction is COMPLETE: the guard must only bound true
            # cycles (re-entrant visits), not act as an identity
            # cache — the reference re-compacts a shared (pruned-@id)
            # framed node at each position, and the per-position results
            # genuinely differ when an @index/@id/@type container
            # consumes a property of one copy (fuzz seed 3201777)
            in_prog = options.get("_compactInProgress", {})
            frames = in_prog.get(id(element))
            if frames:
                frames.pop()
                if not frames:
                    del in_prog[id(element)]
        return rval

    return element


def _nest_target(active_ctx: _ctx.ActiveContext, rval: dict,
                 item_active_property: str, options: dict) -> dict:
    mapping = active_ctx.mappings.get(item_active_property)
    nest_property = mapping.get("@nest") if mapping else None
    if not nest_property:
        return rval
    _check_nest_property(active_ctx, nest_property, options)
    if not isinstance(rval.get(nest_property), dict):
        rval[nest_property] = {}
    return rval[nest_property]


def _compact_graph_item(active_ctx, nest_result, item_active_property,
                        expanded_item, compacted_item, container,
                        options) -> None:
    """Graph-object compaction cases (compact.js:474-551)."""
    if "@graph" in container and (
        "@id" in container
        or ("@index" in container and is_simple_graph(expanded_item))
    ):
        map_object = nest_result.setdefault(item_active_property, {})
        key = (expanded_item.get("@id") if "@id" in container
               else expanded_item.get("@index")) \
            or compact_iri(active_ctx, "@none", vocab=True)
        add_value(map_object, key, compacted_item,
                  property_is_array=(not options.get("compactArrays")
                                     or "@set" in container))
    elif "@graph" in container and is_simple_graph(expanded_item):
        if isinstance(compacted_item, list) and len(compacted_item) > 1:
            compacted_item = {"@included": compacted_item}
        add_value(nest_result, item_active_property, compacted_item,
                  property_is_array=(not options.get("compactArrays")
                                     or "@set" in container))
    else:
        if isinstance(compacted_item, list) and len(compacted_item) == 1 \
                and options.get("compactArrays"):
            compacted_item = compacted_item[0]
        graph_alias = compact_iri(active_ctx, "@graph", vocab=True)
        compacted_item = {graph_alias: compacted_item}
        if "@id" in expanded_item:
            id_alias = compact_iri(active_ctx, "@id", vocab=True)
            compacted_item[id_alias] = expanded_item["@id"]
        if "@index" in expanded_item:
            index_alias = compact_iri(active_ctx, "@index", vocab=True)
            compacted_item[index_alias] = expanded_item["@index"]
        add_value(nest_result, item_active_property, compacted_item,
                  property_is_array=(not options.get("compactArrays")
                                     or "@set" in container))


def compact_iri(active_ctx: _ctx.ActiveContext, iri: str | None,
                value: Any = None, vocab: bool = False,
                reverse: bool = False, base: Any = None) -> Any:
    """IRI → term/CURIE/keyword-alias/relative IRI
    (compact.js:688-957)."""
    if iri is None:
        return iri

    # a value object's @type can be a LIST (set by @type-container index
    # maps, expand.js:1095-1100). The reference survives because JS `in`
    # and object-key lookups coerce arrays to their comma-joined string
    # (a 1-element array behaves like its element); vocab-suffix/CURIE/
    # prefix checks silently no-op on arrays. Replicate: use the coerced
    # key for inverse lookups, skip string-only paths, and fall through
    # to returning the original list.
    lookup_iri = iri if isinstance(iri, str) else ",".join(map(str, iri))

    inverse_ctx = active_ctx.get_inverse()

    # keyword alias
    if is_keyword(iri) and iri in inverse_ctx and \
            "@none" in inverse_ctx[iri] and \
            "@type" in inverse_ctx[iri]["@none"] and \
            "@none" in inverse_ctx[iri]["@none"]["@type"]:
        return inverse_ctx[iri]["@none"]["@type"]["@none"]

    if vocab and lookup_iri in inverse_ctx:
        default_language = active_ctx.language or "@none"

        containers: list[str] = []
        if isinstance(value, dict) and "@index" in value and \
                "@graph" not in value:
            containers.extend(["@index", "@index@set"])
        if isinstance(value, dict) and "@preserve" in value:
            value = value["@preserve"][0]

        if is_graph(value):
            if "@index" in value:
                containers.extend(["@graph@index", "@graph@index@set",
                                   "@index", "@index@set"])
            if "@id" in value:
                containers.extend(["@graph@id", "@graph@id@set"])
            containers.extend(["@graph", "@graph@set", "@set"])
            if "@index" not in value:
                containers.extend(["@graph@index", "@graph@index@set",
                                   "@index", "@index@set"])
            if "@id" not in value:
                containers.extend(["@graph@id", "@graph@id@set"])
        elif isinstance(value, dict) and not is_value(value):
            containers.extend(["@id", "@id@set", "@type", "@set@type"])

        type_or_language = "@language"
        type_or_language_value: Any = "@null"

        if reverse:
            type_or_language = "@type"
            type_or_language_value = "@reverse"
            containers.append("@set")
        elif is_list(value):
            if "@index" not in value:
                containers.append("@list")
            list_items = value["@list"]
            if len(list_items) == 0:
                type_or_language = "@any"
                type_or_language_value = "@none"
            else:
                common_language = None if list_items else default_language
                common_type = None
                for item in list_items:
                    item_language = "@none"
                    item_type = "@none"
                    if is_value(item):
                        if "@direction" in item:
                            lang = (item.get("@language") or "").lower()
                            item_language = f"{lang}_{item['@direction']}"
                        elif "@language" in item:
                            item_language = item["@language"].lower()
                        elif "@type" in item:
                            item_type = item["@type"]
                        else:
                            item_language = "@null"
                    else:
                        item_type = "@id"
                    if common_language is None:
                        common_language = item_language
                    elif item_language != common_language and is_value(item):
                        common_language = "@none"
                    if common_type is None:
                        common_type = item_type
                    elif item_type != common_type:
                        common_type = "@none"
                    if common_language == "@none" and common_type == "@none":
                        break
                common_language = common_language or "@none"
                common_type = common_type or "@none"
                if common_type != "@none":
                    type_or_language = "@type"
                    type_or_language_value = common_type
                else:
                    type_or_language_value = common_language
        else:
            if is_value(value):
                if "@language" in value and "@index" not in value:
                    containers.extend(["@language", "@language@set"])
                    type_or_language_value = value["@language"]
                    if value.get("@direction"):
                        type_or_language_value = \
                            f"{type_or_language_value}_{value['@direction']}"
                elif "@direction" in value and "@index" not in value:
                    type_or_language_value = f"_{value['@direction']}"
                elif "@type" in value:
                    type_or_language = "@type"
                    type_or_language_value = value["@type"]
            else:
                type_or_language = "@type"
                type_or_language_value = "@id"
            containers.append("@set")

        containers.append("@none")
        if isinstance(value, dict) and "@index" not in value:
            containers.extend(["@index", "@index@set"])
        if is_value(value) and len(value) == 1:
            containers.extend(["@language", "@language@set"])

        term = _select_term(active_ctx, lookup_iri, value, containers,
                            type_or_language, type_or_language_value)
        if term is not None:
            return term

    if not isinstance(iri, str):
        return iri

    # @vocab prefix
    if vocab and active_ctx.vocab is not None:
        v = active_ctx.vocab
        if iri.startswith(v) and iri != v:
            suffix = iri[len(v):]
            if suffix not in active_ctx.mappings:
                return suffix

    # CURIE search
    choice = None
    for prefix_iri, terms in active_ctx.get_curie_candidates():
        if len(prefix_iri) >= len(iri) or not iri.startswith(prefix_iri):
            continue
        for term in terms:
            curie = term + ":" + iri[len(prefix_iri):]
            mapping = active_ctx.mappings.get(term)
            curie_mapping = active_ctx.mappings.get(curie)
            is_usable = mapping and mapping.get("_prefix") and (
                curie_mapping is None
                or (value is None and curie_mapping.get("@id") == iri))
            if is_usable and (choice is None or
                              compare_shortest_least(curie, choice) < 0):
                choice = curie
    if choice is not None:
        return choice

    # IRI confused with prefix?
    for term, td in active_ctx.mappings.items():
        if td and td.get("_prefix") and iri.startswith(term + ":"):
            raise JsonLdError(
                f'Absolute IRI "{iri}" confused with prefix "{term}".',
                "jsonld.SyntaxError", code="IRI confused with prefix")

    # relative to base (compact.js:941-951: '@base' is always present on
    # an initialized context; null/'' means "do not relativize")
    if not vocab:
        if not active_ctx.original_base:
            return iri
        return _url.remove_base(
            _url.prepend_base(base, active_ctx.original_base), iri)

    return iri


def compact_value(active_ctx: _ctx.ActiveContext, active_property: str | None,
                  value: dict, options: dict | None = None) -> Any:
    """Value compaction (compact.js:970-1087)."""
    options = options or {}
    if is_value(value):
        type_ = _ctx.get_context_value(active_ctx, active_property, "@type")
        language = _ctx.get_context_value(active_ctx, active_property,
                                          "@language")
        direction = _ctx.get_context_value(active_ctx, active_property,
                                           "@direction")
        container = _ctx.get_context_value(active_ctx, active_property,
                                           "@container") or []

        preserve_index = "@index" in value and "@index" not in container

        if not preserve_index and type_ != "@none":
            if value.get("@type") == type_ and "@type" in value:
                return value["@value"]
            if "@language" in value and value["@language"] == language and \
                    "@direction" in value and value["@direction"] == direction:
                return value["@value"]
            if "@language" in value and value["@language"] == language:
                return value["@value"]
            if "@direction" in value and value["@direction"] == direction:
                return value["@value"]

        key_count = len(value)
        is_value_only_key = key_count == 1 or (
            key_count == 2 and "@index" in value and not preserve_index)
        has_default_language = active_ctx.language is not None
        is_value_string = is_string(value["@value"])
        mapping = active_ctx.mappings.get(active_property) \
            if active_property else None
        has_null_mapping = mapping is not None and \
            "@language" in mapping and mapping["@language"] is None
        if is_value_only_key and type_ != "@none" and (
                not has_default_language or not is_value_string
                or has_null_mapping):
            return value["@value"]

        rval: dict[str, Any] = {}
        if preserve_index:
            rval[compact_iri(active_ctx, "@index", vocab=True)] = \
                value["@index"]
        if "@type" in value:
            rval[compact_iri(active_ctx, "@type", vocab=True)] = \
                compact_iri(active_ctx, value["@type"], vocab=True)
        elif "@language" in value:
            rval[compact_iri(active_ctx, "@language", vocab=True)] = \
                value["@language"]
        if "@direction" in value:
            rval[compact_iri(active_ctx, "@direction", vocab=True)] = \
                value["@direction"]
        rval[compact_iri(active_ctx, "@value", vocab=True)] = value["@value"]
        return rval

    # subject reference
    expanded_property = _ctx.expand_iri(active_ctx, active_property,
                                        vocab=True, options=options)
    type_ = _ctx.get_context_value(active_ctx, active_property, "@type")
    compacted = compact_iri(active_ctx, value["@id"],
                            vocab=(type_ == "@vocab"),
                            base=options.get("base"))
    if type_ in ("@id", "@vocab") or expanded_property == "@graph":
        return compacted
    return {compact_iri(active_ctx, "@id", vocab=True): compacted}


def _select_term(active_ctx: _ctx.ActiveContext, iri: str, value: Any,
                 containers: list[str], type_or_language: str,
                 type_or_language_value: Any) -> str | None:
    """Preference-ordered term selection (compact.js:1101-1161)."""
    if type_or_language_value is None:
        type_or_language_value = "@null"

    prefs: list[str] = []
    if type_or_language_value in ("@id", "@reverse") and \
            isinstance(value, dict) and "@id" in value:
        if type_or_language_value == "@reverse":
            prefs.append("@reverse")
        term = compact_iri(active_ctx, value["@id"], vocab=True)
        mapping = active_ctx.mappings.get(term)
        if mapping and mapping.get("@id") == value["@id"]:
            prefs.extend(["@vocab", "@id"])
        else:
            prefs.extend(["@id", "@vocab"])
    else:
        prefs.append(type_or_language_value
                     if isinstance(type_or_language_value, str)
                     else ",".join(map(str, type_or_language_value)))
        lang_dir = next((p for p in prefs
                         if isinstance(p, str) and "_" in p), None)
        if lang_dir:
            prefs.append("_" + lang_dir.split("_", 1)[1])
    prefs.append("@none")

    container_map = active_ctx.get_inverse().get(iri, {})
    for container in containers:
        if container not in container_map:
            continue
        tl_map = container_map[container][type_or_language]
        for pref in prefs:
            if pref in tl_map:
                return tl_map[pref]
    return None


def _check_nest_property(active_ctx: _ctx.ActiveContext, nest_property: str,
                         options: dict) -> None:
    if _ctx.expand_iri(active_ctx, nest_property, vocab=True,
                       options=options) != "@nest":
        raise JsonLdError(
            "nested property must have an @nest value resolving to @nest.",
            "jsonld.SyntaxError", code="invalid @nest value")

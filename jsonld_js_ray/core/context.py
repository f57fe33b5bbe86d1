"""JSON-LD 1.1 active-context processing.

From-scratch implementation of the Context Processing / Create Term
Definition / IRI Expansion algorithms of the W3C JSON-LD 1.1 API spec
(https://www.w3.org/TR/json-ld11-api/), with the same observable semantics
as the reference (/root/reference/lib/context.js:46-1447).

No remote I/O: contexts referenced by URL must be preloaded into a
``ContextResolver`` (document loading is injectable, mirroring the
reference's documentLoader surface, lib/jsonld.js:865-877).
"""

from __future__ import annotations

import itertools
import re
import warnings
from typing import Any, Callable

from . import url as _url
from .errors import JsonLdError
from .types import KEYWORDS, is_keyword, is_potential_keyword
from .util import (
    as_array, compare_shortest_least, deep_clone, freeze, js_sorted,
)

MAX_CONTEXT_URLS = 10

_counter = itertools.count()


class ActiveContext:
    """The dynamic schema: term mappings + base/vocab/language/direction."""

    __slots__ = (
        "mappings", "base", "original_base", "vocab", "language", "direction",
        "processing_mode", "previous_context", "protected", "_inverse", "_uid",
        "_fast_curie", "_iri_cache", "_key_plans", "_finalized",
    )

    def __init__(self, options: dict | None = None) -> None:
        options = options or {}
        base = options.get("base")
        self.mappings: dict[str, dict] = {}
        self.original_base = base
        self.base = _url.parse_url(base) if isinstance(base, str) else base
        self.vocab: str | None = None
        self.language: str | None = None
        self.direction: str | None = None
        self.processing_mode: str = options.get("processingMode", "json-ld-1.1")
        self.previous_context: ActiveContext | None = None
        self.protected: dict[str, bool] = {}
        self._inverse: dict | None = None
        self._fast_curie: dict | None = None
        self._iri_cache: dict = {}
        self._key_plans: dict = {}
        # expansion results may only be memoized on a FINALIZED context;
        # during processing (@vocab/@base handlers run before term
        # definitions exist) a cached result would go stale silently
        self._finalized = True
        self._uid = next(_counter)

    def clone(self) -> "ActiveContext":
        child = ActiveContext()
        child.mappings = {k: deep_clone(v) for k, v in self.mappings.items()}
        child.base = self.base
        child.original_base = self.original_base
        child.vocab = self.vocab
        child.language = self.language
        # the reference's clone copies only @base/@language/@vocab
        # (context.js:1230-1246): the default @direction does NOT survive
        # into subsequent context folds or reverts
        child.direction = None
        child.processing_mode = self.processing_mode
        child.previous_context = self.previous_context
        child.protected = dict(self.protected)
        child._iri_cache = {}
        child._key_plans = {}
        child._finalized = True
        return child

    def get_inverse(self) -> dict:
        if self._inverse is None:
            self._inverse, self._fast_curie = _create_inverse_context(self)
        return self._inverse

    def get_curie_candidates(self) -> list:
        """[(iri, [terms])] prefix candidates for CURIE compaction."""
        self.get_inverse()
        return self._fast_curie or []

    def revert_to_previous(self) -> "ActiveContext":
        # reference returns previousContext.clone() (context.js:1252-1257)
        return self.previous_context.clone() if self.previous_context \
            else self


class ContextResolver:
    """Resolves and caches local/remote contexts.

    Remote contexts must be preloaded: ``documents`` maps URL → parsed JSON
    document (the value of the remote doc, typically ``{"@context": {...}}``).
    A shared ``cache`` dict can be passed to share across calls (mirrors the
    reference's shared LRU, lib/jsonld.js:86-89).
    """

    def __init__(
        self,
        documents: dict[str, Any] | None = None,
        loader: Callable[[str], Any] | None = None,
        cache: dict | None = None,
    ) -> None:
        self.documents = documents or {}
        self.loader = loader
        self.process_cache: dict = cache if cache is not None else {}
        self.max_cache = 256   # LRU-ish bound (reference uses an LRU,
        #                        jsonld.js:86-89); evicts oldest insert

    def fetch(self, url: str) -> Any:
        if url in self.documents:
            return self.documents[url]
        if self.loader is not None:
            doc = self.loader(url)
            self.documents[url] = doc
            return doc
        raise JsonLdError(
            f"Dereferencing a URL did not result in a valid JSON-LD object: {url}",
            "jsonld.InvalidUrl", code="loading remote context failed",
            details={"url": url})


def process_context(
    active_ctx: ActiveContext,
    local_ctx: Any,
    options: dict | None = None,
    override_protected: bool = False,
    propagate: bool = True,
    validate_scoped: bool = True,
    cycles: frozenset | None = None,
    scoped_cycles: frozenset | None = None,
) -> ActiveContext:
    """Fold ``local_ctx`` into ``active_ctx`` → new active context.

    (JSON-LD 1.1 API §4.1; reference lib/context.js:46-421)
    """
    options = options or {}
    cycles = cycles or frozenset()
    scoped_cycles = scoped_cycles or frozenset()
    resolver: ContextResolver = options.setdefault(
        "contextResolver", ContextResolver())

    if isinstance(local_ctx, dict) and "@context" in local_ctx and \
            isinstance(local_ctx["@context"], list):
        local_ctx = local_ctx["@context"]
    ctxs = as_array(local_ctx)

    rval = active_ctx

    # override propagate from the FIRST resolved context only
    # (context.js:72-77: `resolved[0].document['@propagate']` — the
    # resolver flattens arrays and dereferences URLs up front, so the
    # first ATOMIC context's boolean @propagate wins and any later
    # element's @propagate is validated but IGNORED); previousContext
    # is then recorded ONCE before the loop (context.js:85-89)
    first = ctxs[0] if ctxs else None
    for _ in range(MAX_CONTEXT_URLS):
        if isinstance(first, dict) and "@context" in first:
            first = first["@context"]      # remote-doc wrapper unwrap
        elif isinstance(first, str):
            try:
                fetched = resolver.fetch(
                    _url.prepend_base(options.get("base"), first))
            except JsonLdError:
                first = None    # in-loop deref reports the real error
                break
            first = fetched
        elif isinstance(first, list):
            first = first[0] if first else None
        else:
            break
    if isinstance(first, dict) and \
            isinstance(first.get("@propagate"), bool):
        propagate = first["@propagate"]
    if not propagate and rval.previous_context is None:
        rval = rval.clone()
        rval.previous_context = active_ctx

    # cache lookup on (active uid, frozen local ctx)
    cache_key = None
    try:
        cache_key = (active_ctx._uid, freeze(local_ctx), override_protected,
                     propagate)
        cached = resolver.process_cache.get(cache_key)
        if cached is not None:
            return cached
    except TypeError:
        cache_key = None

    for ctx in ctxs:
        # null → reset to initial context. The protected check runs on
        # the ACCUMULATED context (context.js:95 reassigns activeCtx =
        # rval each element), so `[{'@protected': true, ...}, null]`
        # raises within ONE call; key PRESENCE decides (Object.keys),
        # and protectedMode 'warn' falls back to a fresh initial
        # context carrying over just the protected terms
        # (context.js:98-141).
        if ctx is None:
            if not override_protected and rval.protected:
                protected_mode = options.get("protectedMode") or "error"
                if protected_mode == "error":
                    raise JsonLdError(
                        "Tried to nullify a context with protected "
                        "terms outside of a term definition.",
                        "jsonld.SyntaxError",
                        code="invalid context nullification")
                if protected_mode != "warn":
                    raise JsonLdError(
                        "Invalid protectedMode.", "jsonld.SyntaxError",
                        code="invalid protected mode",
                        details={"protectedMode": protected_mode})
                warnings.warn("invalid context nullification")
                old = rval
                rval = ActiveContext(options)
                rval.processing_mode = old.processing_mode
                # the fork MEANS to carry protected term definitions
                # over (context.js:125-131) but assigns object
                # properties on a Map (`mappings[term] =` vs
                # mappings.set), so the carryover is dead — lookups
                # go through .get() and miss. Observable behavior:
                # only the protected FLAGS survive (a plain object
                # there), the mappings do not. Reference-verified
                # 2026-08-19 (warn mode expands the nulled term to
                # nothing).
                rval.protected = dict(old.protected)
                continue
            # the reference resets to a bare initial context and does
            # NOT record previousContext here, even under propagate:false
            # (context.js:141-143) — so a later type-scoped revert cannot
            # resurrect the nullified terms
            rval = ActiveContext(options)
            rval.processing_mode = active_ctx.processing_mode
            continue

        if isinstance(ctx, dict) and "@context" in ctx:
            ctx = ctx["@context"]
        if isinstance(ctx, list):
            rval = process_context(
                rval, ctx, options, override_protected=override_protected,
                propagate=propagate, validate_scoped=validate_scoped,
                cycles=cycles, scoped_cycles=scoped_cycles)
            continue

        # context URL string
        if isinstance(ctx, str):
            resolved_url = _url.prepend_base(options.get("base"), ctx)
            if resolved_url in cycles:
                raise JsonLdError(
                    "Cyclical @context URLs detected.",
                    "jsonld.ContextUrlError", code="context overflow",
                    details={"url": resolved_url})
            if len(cycles) > MAX_CONTEXT_URLS:
                raise JsonLdError(
                    "Maximum number of @context URLs exceeded.",
                    "jsonld.ContextUrlError", code="context overflow")
            remote = resolver.fetch(resolved_url)
            remote_ctx = remote.get("@context") if isinstance(remote, dict) \
                else remote
            sub_options = dict(options)
            sub_options["base"] = resolved_url
            rval = process_context(
                rval, remote_ctx, sub_options,
                override_protected=override_protected,
                propagate=propagate, validate_scoped=validate_scoped,
                cycles=cycles | {resolved_url},
                scoped_cycles=scoped_cycles)
            continue

        if not isinstance(ctx, dict):
            raise JsonLdError(
                "@context must be an object.", "jsonld.SyntaxError",
                code="invalid local context", details={"context": ctx})

        rval = _process_one(rval, ctx, options,
                            override_protected=override_protected,
                            propagate=propagate, cycles=cycles,
                            validate_scoped=validate_scoped,
                            scoped_cycles=scoped_cycles)

    if cache_key is not None:
        cachemax = getattr(resolver, "max_cache", 256)
        if len(resolver.process_cache) >= cachemax:
            resolver.process_cache.pop(
                next(iter(resolver.process_cache)))
        resolver.process_cache[cache_key] = rval
    return rval


def _process_one(active_ctx: ActiveContext, ctx: dict, options: dict,
                 override_protected: bool, propagate: bool,
                 cycles: frozenset,
                 validate_scoped: bool = True,
                 scoped_cycles: frozenset = frozenset()) -> ActiveContext:
    rval = active_ctx.clone()
    rval._finalized = False
    rval._uid = next(_counter)

    # @propagate
    if "@propagate" in ctx:
        v = ctx["@propagate"]
        if _processing_mode(rval, 1.0):
            raise JsonLdError(
                "@propagate not compatible with JSON-LD 1.0.",
                "jsonld.SyntaxError", code="invalid context entry")
        if not isinstance(v, bool):
            raise JsonLdError(
                "@propagate value must be a boolean.",
                "jsonld.SyntaxError", code="invalid @propagate value")
        # validation ONLY: the reference extracts @propagate from the
        # FIRST resolved context before the loop (context.js:72-77)
        # and records previousContext there (context.js:85-89) — a
        # later element's @propagate has no effect (context.js:283
        # comment: 'we've already extracted it')

    # @version
    if "@version" in ctx:
        if ctx["@version"] != 1.1:
            raise JsonLdError(
                "Unsupported JSON-LD version: " + str(ctx["@version"]),
                "jsonld.UnsupportedVersion", code="invalid @version value")
        if options.get("processingMode") == "json-ld-1.0":
            raise JsonLdError(
                "@version: 1.1 not compatible with json-ld-1.0",
                "jsonld.ProcessingModeConflict", code="processing mode conflict")
        rval.processing_mode = "json-ld-1.1"

    # @import
    loop_ctx = ctx            # the term loop's view (incl. import keys)
    _import_only: set = set()
    if "@import" in ctx:
        v = ctx["@import"]
        if _processing_mode(rval, 1.0):
            raise JsonLdError(
                "@import not compatible with JSON-LD 1.0.",
                "jsonld.SyntaxError", code="invalid context entry")
        if not isinstance(v, str):
            raise JsonLdError(
                "@import must be a string.", "jsonld.SyntaxError",
                code="invalid @import value")
        resolver: ContextResolver = options["contextResolver"]
        import_url = _url.prepend_base(options.get("base"), v)
        remote = resolver.fetch(import_url)
        imported = remote.get("@context") if isinstance(remote, dict) else remote
        if not isinstance(imported, dict):
            raise JsonLdError(
                "@import must reference a context.", "jsonld.SyntaxError",
                code="invalid remote context")
        if "@import" in imported:
            raise JsonLdError(
                "@import must not include @import entry.",
                "jsonld.SyntaxError", code="invalid context entry")
        # fork-exact merge (context.js:347-352): import-only keys
        # APPEND to ctx's key order, and the keyword handlers
        # (@base..@propagate, context.js:174-301) already ran on the
        # ORIGINAL ctx — so imported keyword entries are never
        # applied; they fall through to the term loop, which rejects
        # keywords outright ('keyword redefinition'). Reference-
        # verified 2026-08-19 (an imported {'@base': ...} errors in
        # the fork). We therefore do NOT fold the import into the ctx
        # the handlers below read — only into the term loop's view.
        _loop_ctx = dict(ctx)
        for k, v2 in imported.items():
            if k not in _loop_ctx:
                _loop_ctx[k] = v2
                _import_only.add(k)
        loop_ctx = _loop_ctx

    # @base (context.js:199-216)
    if "@base" in ctx:
        base = ctx["@base"]
        if base is None or _url.is_absolute(base):
            pass
        elif isinstance(base, str):
            base = _url.prepend_base(rval.base, base)
        else:
            raise JsonLdError(
                'the value of "@base" in a @context must be an absolute IRI, '
                'a relative IRI, or null.', "jsonld.SyntaxError",
                code="invalid base IRI", details={"context": ctx})
        rval.original_base = base
        rval.base = _url.parse_url(base) if isinstance(base, str) else None

    # @vocab
    if "@vocab" in ctx:
        value = ctx["@vocab"]
        if value is None:
            rval.vocab = None
        elif not isinstance(value, str):
            raise JsonLdError(
                "@vocab must be a string or null.",
                "jsonld.SyntaxError", code="invalid vocab mapping")
        elif not _url.is_absolute(value) and _processing_mode(rval, 1.0):
            raise JsonLdError(
                "@vocab must be an absolute IRI in JSON-LD 1.0 mode.",
                "jsonld.SyntaxError", code="invalid vocab mapping")
        else:
            rval.vocab = expand_iri(
                rval, value, vocab=True, base=True, options=options)

    # @language
    if "@language" in ctx:
        value = ctx["@language"]
        if value is None:
            rval.language = None
        elif not isinstance(value, str):
            raise JsonLdError(
                "@language must be a string or null.",
                "jsonld.SyntaxError", code="invalid default language")
        else:
            rval.language = value.lower()

    # @direction
    if "@direction" in ctx:
        value = ctx["@direction"]
        if _processing_mode(rval, 1.0):
            raise JsonLdError(
                "@direction not compatible with JSON-LD 1.0.",
                "jsonld.SyntaxError", code="invalid context member")
        if value is None:
            rval.direction = None
        elif value not in ("ltr", "rtl"):
            raise JsonLdError(
                '@direction must be null, "ltr", or "rtl".',
                "jsonld.SyntaxError", code="invalid base direction")
        else:
            rval.direction = value

    _seen_scoped: set = set(scoped_cycles)
    defined: dict[str, bool] = {
        "@protected": bool(loop_ctx.get("@protected"))}
    for key in loop_ctx:
        if key == "@protected":
            # fork quirk (context.js:367 + 446-455): the defined map
            # seeds '@protected' with the ctx VALUE, so the loop sees
            # a falsy value as an in-progress definition and raises
            # the cyclic error; a truthy value short-circuits (which
            # is also why a non-boolean like 'yes' is tolerated).
            # Reference-verified 2026-08-19.
            if not defined["@protected"]:
                raise JsonLdError(
                    "Cyclical context definition detected.",
                    "jsonld.CyclicalContext", code="cyclic IRI mapping",
                    details={"term": key})
            continue
        if key in ("@base", "@direction", "@import", "@language",
                   "@propagate", "@version", "@vocab") and \
                key not in _import_only:
            # an IMPORTED keyword entry was never handled above and
            # must reach create_term_definition, which rejects it
            # (fork merge-order behavior — see the @import block)
            continue
        create_term_definition(
            rval, loop_ctx, key, defined, options,
            override_protected=override_protected)

        # scoped-context EAGER validation (context.js:380-413): the
        # reference processes every term-scoped context against a
        # clone at DEFINITION time and wraps any failure as 'invalid
        # scoped context' — even when the term is never used. String
        # (remote) scoped contexts get cycle-guarded by URL.
        v = loop_ctx[key]
        if validate_scoped and isinstance(v, dict) and "@context" in v:
            key_ctx = v["@context"]
            do_process = True
            if isinstance(key_ctx, str):
                url = _url.prepend_base(options.get("base"), key_ctx)
                if url in _seen_scoped:
                    do_process = False
                else:
                    _seen_scoped.add(url)
            if do_process:
                try:
                    process_context(
                        rval.clone(), key_ctx, options,
                        override_protected=True,
                        scoped_cycles=frozenset(_seen_scoped))
                except JsonLdError as e:
                    raise JsonLdError(
                        "Invalid scoped context.", "jsonld.SyntaxError",
                        code="invalid scoped context",
                        details={"term": key}) from e

    rval._inverse = None
    rval._iri_cache = {}
    rval._key_plans = {}
    rval._finalized = True
    return rval


def _processing_mode(active_ctx: ActiveContext, version: float) -> bool:
    """True if the active context's mode matches `version` (context.js:1457)."""
    if version >= 1.1:
        return active_ctx.processing_mode >= "json-ld-1.1"
    return active_ctx.processing_mode == "json-ld-1.0"


processing_mode = _processing_mode

_TERM_DEF_KEYS_11 = frozenset({
    "@id", "@reverse", "@type", "@language", "@container", "@context",
    "@direction", "@index", "@nest", "@prefix", "@protected",
})
_TERM_DEF_KEYS_10 = frozenset({"@id", "@reverse", "@type", "@language",
                               "@container"})


def create_term_definition(
    active_ctx: ActiveContext,
    local_ctx: dict,
    term: str,
    defined: dict[str, bool],
    options: dict,
    override_protected: bool = False,
) -> None:
    """Create one term definition (JSON-LD 1.1 API §4.2;
    reference lib/context.js:437-940)."""
    if term in defined:
        if defined[term]:
            return
        raise JsonLdError(
            "Cyclical context definition detected.",
            "jsonld.CyclicalContext", code="cyclic IRI mapping",
            details={"term": term})
    defined[term] = False

    value = local_ctx[term]

    if term == "@type" and isinstance(value, dict) and \
            value.get("@container", "@set") == "@set" and \
            _processing_mode(active_ctx, 1.1):
        valid_keys = ("@container", "@id", "@protected")
        if len(value) == 0 or not all(k in valid_keys for k in value):
            raise JsonLdError(
                "Keywords cannot be overridden.", "jsonld.SyntaxError",
                code="keyword redefinition", details={"term": term})
    elif is_keyword(term):
        raise JsonLdError(
            "Keywords cannot be overridden.", "jsonld.SyntaxError",
            code="keyword redefinition", details={"term": term})
    elif is_potential_keyword(term):
        # terms that look like keywords are ignored
        return
    elif term == "":
        raise JsonLdError(
            "A term cannot be an empty string.", "jsonld.SyntaxError",
            code="invalid term definition")

    previous = active_ctx.mappings.get(term)
    was_protected = bool(previous and previous.get("protected"))
    active_ctx.mappings.pop(term, None)

    simple_term = False
    if isinstance(value, str) or value is None:
        simple_term = True
        value = {"@id": value}
    if not isinstance(value, dict):
        raise JsonLdError(
            "@context term values must be strings or objects.",
            "jsonld.SyntaxError", code="invalid term definition",
            details={"term": term})

    mapping: dict[str, Any] = {"reverse": False, "protected": False}
    active_ctx.mappings[term] = mapping

    valid_keys = _TERM_DEF_KEYS_11 if _processing_mode(active_ctx, 1.1) \
        else _TERM_DEF_KEYS_10
    for k in value:
        if k not in valid_keys:
            raise JsonLdError(
                "A term definition contains an unknown entry: " + k,
                "jsonld.SyntaxError", code="invalid term definition",
                details={"term": term})

    # NOTE: term protection is recorded ONCE, at the end of this
    # function (the reference's single site, context.js:684-688),
    # AFTER the keyword-like early returns — an early site here left
    # phantom protected[] entries for IGNORED terms, which then made
    # a later null context raise 'invalid context nullification'
    # (caught by the parity corpus when the nullification check moved
    # to the accumulated context).

    colon = term.find(":", 1)
    term_has_colon = colon > 0
    mapping["_termHasColon"] = term_has_colon

    # @reverse
    if "@reverse" in value:
        if "@id" in value:
            raise JsonLdError(
                "@reverse term definition must not contain @id.",
                "jsonld.SyntaxError", code="invalid reverse property")
        if "@nest" in value:
            raise JsonLdError(
                "@reverse term definition must not contain @nest.",
                "jsonld.SyntaxError", code="invalid reverse property")
        reverse = value["@reverse"]
        if not isinstance(reverse, str):
            raise JsonLdError(
                "@reverse value must be a string.",
                "jsonld.SyntaxError", code="invalid IRI mapping")
        if is_potential_keyword(reverse) and not is_keyword(reverse):
            if previous is not None:
                active_ctx.mappings[term] = previous
            else:
                active_ctx.mappings.pop(term, None)
            return
        iri = _expand_iri(active_ctx, reverse, vocab=True, base=False,
                          local_ctx=local_ctx, defined=defined,
                          options=options)
        if not _url.is_absolute(iri):
            raise JsonLdError(
                "@reverse value must be an absolute IRI or blank node.",
                "jsonld.SyntaxError", code="invalid IRI mapping")
        container = value.get("@container")
        if container is not None:
            if container not in ("@set", "@index", None):
                raise JsonLdError(
                    "reverse properties only support @set- and "
                    "@index-containers.", "jsonld.SyntaxError",
                    code="invalid reverse property")
            mapping["@container"] = [container]
        mapping["@id"] = iri
        mapping["reverse"] = True
    elif "@id" in value:
        idv = value["@id"]
        if idv is None:
            mapping["@id"] = None
        elif not isinstance(idv, str):
            raise JsonLdError(
                "@id value must be a string.",
                "jsonld.SyntaxError", code="invalid IRI mapping")
        elif idv != term:
            if not is_keyword(idv) and is_potential_keyword(idv):
                if previous is not None:
                    active_ctx.mappings[term] = previous
                else:
                    active_ctx.mappings.pop(term, None)
                return
            iri = _expand_iri(active_ctx, idv, vocab=True, base=False,
                              local_ctx=local_ctx, defined=defined,
                              options=options)
            if not (_url.is_absolute(iri) or is_keyword(iri)):
                raise JsonLdError(
                    "@id value must be an absolute IRI, a blank node, "
                    "or a keyword.", "jsonld.SyntaxError",
                    code="invalid IRI mapping", details={"term": term})
            # a term that itself looks like an IRI must expand to its @id
            if re.search(r"(?::[^:])|/", term):
                term_defined = dict(defined)
                term_defined[term] = True
                term_iri = _expand_iri(
                    active_ctx, term, vocab=True, base=False,
                    local_ctx=local_ctx, defined=term_defined,
                    options=options)
                if term_iri != iri:
                    raise JsonLdError(
                        "term in form of IRI must expand to definition.",
                        "jsonld.SyntaxError", code="invalid IRI mapping",
                        details={"term": term})
            mapping["@id"] = iri
            # a simple term without a colon whose IRI ends in a gen-delim
            # may be used as a compact-IRI prefix (context.js:642-644)
            mapping["_prefix"] = bool(
                simple_term and not term_has_colon
                and isinstance(iri, str) and re.search(r"[:/?#\[\]@]$", iri))

    if "@id" not in mapping:
        # prefix-based or vocab-based IRI (context.js:650-681)
        if term_has_colon:
            prefix = term[:colon]
            if prefix in local_ctx:
                create_term_definition(active_ctx, local_ctx, prefix, defined,
                                       options)
            pdef = active_ctx.mappings.get(prefix)
            if pdef is not None:
                mapping["@id"] = pdef["@id"] + term[colon + 1:]
            else:
                mapping["@id"] = term
        elif term == "@type":
            mapping["@id"] = "@type"
        else:
            if active_ctx.vocab is None:
                raise JsonLdError(
                    "@context terms must define an @id.",
                    "jsonld.SyntaxError", code="invalid IRI mapping",
                    details={"term": term})
            mapping["@id"] = active_ctx.vocab + term

    # @protected (after the keyword-like early returns, context.js:684-688,
    # so ignored terms never leave phantom protection entries). The
    # reference compares STRICTLY (=== true), so a non-boolean
    # @protected like 'yes' defines the term UNprotected.
    if value.get("@protected") is True or (
            defined.get("@protected") is True
            and value.get("@protected") is not False):
        active_ctx.protected[term] = True
        mapping["protected"] = True

    # IRI mapping now defined
    defined[term] = True

    # @type
    if "@type" in value:
        type_v = value["@type"]
        if not isinstance(type_v, str):
            raise JsonLdError(
                "@context @type value must be a string.",
                "jsonld.SyntaxError", code="invalid type mapping")
        if type_v in ("@json", "@none"):
            if _processing_mode(active_ctx, 1.0):
                raise JsonLdError(
                    f"{type_v} cannot be used in JSON-LD 1.0 mode.",
                    "jsonld.SyntaxError", code="invalid type mapping")
        elif type_v not in ("@id", "@vocab"):
            type_v = _expand_iri(active_ctx, type_v, vocab=True, base=False,
                                 local_ctx=local_ctx, defined=defined,
                                 options=options)
            if not _url.is_absolute(type_v):
                raise JsonLdError(
                    "An @context @type value must be an absolute IRI.",
                    "jsonld.SyntaxError", code="invalid type mapping")
            if type_v.startswith("_:"):
                raise JsonLdError(
                    "An @context @type value must be an IRI, not a "
                    "blank node.", "jsonld.SyntaxError",
                    code="invalid type mapping")
        mapping["@type"] = type_v

    # @container
    if "@container" in value:
        container = value["@container"]
        allowed = ("@list", "@set", "@index", "@language", "@graph", "@id",
                   "@type")
        arr = as_array(container)
        if not all(isinstance(c, str) and c in allowed for c in arr):
            raise JsonLdError(
                "@context @container value must be one of @list/@set/@index/"
                "@language/@graph/@id/@type.", "jsonld.SyntaxError",
                code="invalid container mapping")
        has_set = "@set" in arr
        has_list = "@list" in arr
        if _processing_mode(active_ctx, 1.0):
            if len(arr) != 1 or isinstance(container, list):
                raise JsonLdError(
                    "@container must be a string in JSON-LD 1.0 mode.",
                    "jsonld.SyntaxError", code="invalid container mapping")
            if arr[0] in ("@graph", "@id", "@type"):
                raise JsonLdError(
                    f"@container {arr[0]} not compatible with JSON-LD 1.0.",
                    "jsonld.SyntaxError", code="invalid container mapping")
        else:
            base_set = set(arr) - {"@set"}
            if has_list and len(arr) != 1:
                raise JsonLdError(
                    "@set cannot be combined with @list.",
                    "jsonld.SyntaxError", code="invalid container mapping")
            if has_set and not base_set <= {"@index", "@graph", "@id",
                                            "@language", "@type"}:
                raise JsonLdError(
                    "@set can only be combined with @index/@graph/@id/"
                    "@language/@type.", "jsonld.SyntaxError",
                    code="invalid container mapping")
            if not has_set and len(base_set) > 2:
                raise JsonLdError(
                    "invalid @container combination.",
                    "jsonld.SyntaxError", code="invalid container mapping")
            if "@graph" in base_set and not base_set <= {"@graph", "@id",
                                                         "@index"}:
                raise JsonLdError(
                    "@graph can only combine with @id or @index.",
                    "jsonld.SyntaxError", code="invalid container mapping")
            if "@graph" not in base_set and len(base_set) > 1:
                raise JsonLdError(
                    "invalid @container combination.",
                    "jsonld.SyntaxError", code="invalid container mapping")
        if "@type" in arr:
            # @container:@type defaults the type mapping to @id
            # (context.js:771-783)
            mapping.setdefault("@type", "@id")
            if mapping["@type"] not in ("@id", "@vocab"):
                raise JsonLdError(
                    "container: @type requires @type to be @id or @vocab.",
                    "jsonld.SyntaxError", code="invalid type mapping")
        if mapping["reverse"] and not set(arr) <= {"@index", "@set"}:
            raise JsonLdError(
                "reverse properties only support @set- and @index-containers.",
                "jsonld.SyntaxError", code="invalid reverse property")
        mapping["@container"] = arr

    # @index
    if "@index" in value:
        container = as_array(value.get("@container", []))
        if "@index" not in container:
            raise JsonLdError(
                "@index without @index in @container.",
                "jsonld.SyntaxError", code="invalid term definition")
        if not isinstance(value["@index"], str) or \
                value["@index"].startswith("@"):
            raise JsonLdError(
                "@index must expand to an IRI.",
                "jsonld.SyntaxError", code="invalid term definition")
        mapping["@index"] = value["@index"]

    # @context (scoped)
    if "@context" in value:
        mapping["@context"] = value["@context"]

    # @language
    if "@language" in value and "@type" not in value:
        lang = value["@language"]
        if lang is not None and not isinstance(lang, str):
            raise JsonLdError(
                "@language must be a string or null.",
                "jsonld.SyntaxError", code="invalid language mapping")
        mapping["@language"] = lang.lower() if isinstance(lang, str) else lang

    # @prefix
    if "@prefix" in value:
        if ":" in term or "/" in term:
            raise JsonLdError(
                "@prefix used on a compact IRI term.",
                "jsonld.SyntaxError", code="invalid term definition")
        if is_keyword(mapping.get("@id")):
            raise JsonLdError(
                "keywords may not be used as prefixes.",
                "jsonld.SyntaxError", code="invalid term definition")
        if not isinstance(value["@prefix"], bool):
            raise JsonLdError(
                "@prefix must be boolean.",
                "jsonld.SyntaxError", code="invalid @prefix value")
        mapping["_prefix"] = value["@prefix"]

    # @direction (unconditional — no @type guard in the reference)
    if "@direction" in value:
        direction = value["@direction"]
        if direction is not None and direction not in ("ltr", "rtl"):
            raise JsonLdError(
                '@direction must be null, "ltr", or "rtl".',
                "jsonld.SyntaxError", code="invalid base direction")
        mapping["@direction"] = direction

    # @nest
    if "@nest" in value:
        nest = value["@nest"]
        if not isinstance(nest, str) or (
                nest != "@nest" and nest.startswith("@")):
            raise JsonLdError(
                '@nest value must be a string which is not a keyword other '
                'than @nest.', "jsonld.SyntaxError",
                code="invalid @nest value")
        mapping["@nest"] = nest

    # disallow aliasing @context/@preserve
    if mapping.get("@id") in ("@context", "@preserve"):
        raise JsonLdError(
            "@context and @preserve cannot be aliased.",
            "jsonld.SyntaxError", code="invalid keyword alias")

    # protected redefinition check
    if was_protected and not override_protected:
        protected_mode = (options or {}).get("protectedMode", "error")
        cmp = dict(previous)
        cmp_new = dict(mapping)
        cmp.pop("protected", None)
        cmp_new.pop("protected", None)
        if cmp != cmp_new:
            if protected_mode == "warn":
                return
            raise JsonLdError(
                "Invalid JSON-LD syntax; tried to redefine a protected term.",
                "jsonld.SyntaxError", code="protected term redefinition",
                details={"term": term})
        mapping["protected"] = True
        active_ctx.protected[term] = True


def expand_iri(active_ctx: ActiveContext, value: Any, base: bool = False,
               vocab: bool = False, options: dict | None = None) -> Any:
    """Expand a term/CURIE/relative IRI to an absolute IRI or keyword
    (JSON-LD 1.1 API §5.2; reference lib/context.js:956-1143)."""
    return _expand_iri(active_ctx, value, base=base, vocab=vocab,
                       options=options)


def _expand_iri(active_ctx: ActiveContext, value: Any, base: bool = False,
                vocab: bool = False, local_ctx: dict | None = None,
                defined: dict | None = None,
                options: dict | None = None) -> Any:
    if value is None or not isinstance(value, str) or is_keyword(value):
        return value

    # memoize on the (immutable-after-processing) active context; only
    # safe outside term-definition creation (local_ctx is None then),
    # once processing finished (_finalized), and with no expansionMap
    # hook (hooks may be stateful / non-deterministic)
    if local_ctx is None and active_ctx._finalized and \
            not (options and options.get("expansionMap")):
        cached = active_ctx._iri_cache.get((value, vocab, base))
        if cached is not None:
            return cached[0]
        rval = _expand_iri_uncached(active_ctx, value, base, vocab, options)
        active_ctx._iri_cache[(value, vocab, base)] = (rval,)
        return rval
    return _expand_iri_uncached(active_ctx, value, base, vocab, options,
                                local_ctx, defined)


def _expand_iri_uncached(active_ctx: ActiveContext, value: str,
                         base: bool = False, vocab: bool = False,
                         options: dict | None = None,
                         local_ctx: dict | None = None,
                         defined: dict | None = None) -> Any:
    # ignore keyword-like values
    if is_potential_keyword(value):
        return None

    # create dependent term definitions first
    if local_ctx is not None and value in local_ctx and \
            defined is not None and not defined.get(value):
        create_term_definition(active_ctx, local_ctx, value, defined,
                               options or {})

    if vocab:
        mapping = active_ctx.mappings.get(value)
        # in-progress definitions have no '@id' yet — fall through to
        # prefix handling like the reference (context.js:1002-1010)
        if mapping is not None and "@id" in mapping:
            return mapping["@id"]

    colon = value.find(":", 1)
    if colon > 0:
        prefix = value[:colon]
        suffix = value[colon + 1:]
        # bnode label or already-absolute with path-like suffix
        if prefix == "_" or suffix.startswith("//"):
            return value
        if local_ctx is not None and prefix in local_ctx and \
                defined is not None and not defined.get(prefix):
            create_term_definition(active_ctx, local_ctx, prefix, defined,
                                   options or {})
        pmapping = active_ctx.mappings.get(prefix)
        if pmapping and pmapping.get("@id") is not None and \
                pmapping.get("_prefix"):
            return pmapping["@id"] + suffix
        if _url.is_absolute(value):
            return value

    # final prepend stage + expansionMap notification sites
    # (reference lib/context.js:1052-1140)
    hook = options.get("expansionMap") if options else None
    type_expansion = bool(options.get("typeExpansion")) if options \
        else False
    if vocab and active_ctx.vocab is not None:
        prepended = active_ctx.vocab + value
        mapped = hook({
            "prependedIri": {
                "type": "@vocab", "vocab": active_ctx.vocab,
                "value": value, "result": prepended,
                "typeExpansion": type_expansion,
            },
            "activeCtx": active_ctx, "options": options,
        }) if hook is not None else None
        value = prepended if mapped is None else mapped
    elif base:
        prepended = _url.prepend_base(active_ctx.base, value)
        mapped = hook({
            "prependedIri": {
                "type": "@base", "base": active_ctx.base,
                "value": value, "result": prepended,
                "typeExpansion": type_expansion,
            },
            "activeCtx": active_ctx, "options": options,
        }) if hook is not None else None
        value = prepended if mapped is None else mapped
    # a still-relative result can be silently dropped by RDF
    # serializers — notify interested hooks (context.js:1124-1140)
    if hook is not None and isinstance(value, str) and \
            not _url.is_absolute(value):
        mapped = hook({
            "relativeIri": value, "activeCtx": active_ctx,
            "typeExpansion": type_expansion, "options": options,
        })
        if mapped is not None:
            value = mapped
    return value


UNDEFINED = object()    # "entry absent" sentinel (JS undefined vs null)


def get_context_value(active_ctx: ActiveContext, key: str | None,
                      kind: str) -> Any:
    """Lookup a term attribute with context defaults
    (reference lib/context.js:1410-1447)."""
    if key is None:
        return UNDEFINED if kind == "@context" else None
    mapping = active_ctx.mappings.get(key)
    if mapping is not None and kind in mapping:
        return mapping[kind]
    if kind == "@language" and active_ctx.language is not None:
        return active_ctx.language
    if kind == "@direction" and active_ctx.direction is not None:
        return active_ctx.direction
    # JS returns undefined for @context so callers can distinguish an
    # explicit scoped `"@context": null` (stored as None above)
    return UNDEFINED if kind == "@context" else None


def key_plan(active_ctx: ActiveContext, key: str | None,
             options: dict | None = None) -> tuple:
    """What expansion reads about ``key`` (a term, or None) in
    ``active_ctx``: ``(IRI expanded with vocab, scoped @context,
    @container or (), @type, @language, @direction, is reverse)``.

    Memoised per key on a finalized context under ``_expand_iri``'s
    guard: with an expansionMap hook every lookup recomputes, so the
    hook sees the same calls as without the memo."""
    if active_ctx._finalized and \
            not (options and options.get("expansionMap")):
        plan = active_ctx._key_plans.get(key)
        if plan is None:
            plan = active_ctx._key_plans[key] = _key_plan(
                active_ctx, key, options)
        return plan
    return _key_plan(active_ctx, key, options)


def _key_plan(active_ctx: ActiveContext, key: str | None,
              options: dict | None) -> tuple:
    mapping = active_ctx.mappings.get(key) if key is not None else None
    return (expand_iri(active_ctx, key, vocab=True, options=options),
            get_context_value(active_ctx, key, "@context"),
            tuple(get_context_value(active_ctx, key, "@container") or ()),
            get_context_value(active_ctx, key, "@type"),
            get_context_value(active_ctx, key, "@language"),
            get_context_value(active_ctx, key, "@direction"),
            bool(mapping and mapping.get("reverse")))


# --- inverse context (for compaction) ---

def _create_inverse_context(active_ctx: ActiveContext) -> tuple[dict, list]:
    """Build the IRI → container → type/language → term index and the list
    of CURIE-prefix candidates (reference lib/context.js:1184-1308).

    The reference builds a per-letter trie ("fast CURIE map"); the engine
    keeps a flat ``[(iri, [terms])]`` candidate list instead — contexts are
    small and actor-resident, so a linear prefix scan at compaction time is
    equivalent and cache-friendly.
    """
    import functools

    inverse: dict[str, dict] = {}
    iris_to_terms: dict[str, list[str]] = {}
    default_language = (active_ctx.language or "@none").lower()
    default_direction = active_ctx.direction

    terms = sorted(active_ctx.mappings.keys(),
                   key=functools.cmp_to_key(compare_shortest_least))

    def add_preferred(entry: dict, key: str, term: str) -> None:
        entry.setdefault(key, term)

    for term in terms:
        mapping = active_ctx.mappings[term]
        if mapping is None or mapping.get("@id") is None:
            continue
        container = "".join(sorted(mapping.get("@container", ["@none"])))
        iri = mapping["@id"]
        if not isinstance(iri, str):
            continue

        entry = inverse.get(iri)
        kw = is_keyword(iri)
        if entry is None:
            inverse[iri] = entry = {}
            if not kw and not mapping.get("_termHasColon"):
                iris_to_terms[iri] = [term]
        elif not kw and not mapping.get("_termHasColon"):
            iris_to_terms.setdefault(iri, []).append(term)

        container_map = entry.setdefault(
            container, {"@language": {}, "@type": {}, "@any": {}})
        add_preferred(container_map["@any"], "@none", term)

        if mapping.get("reverse"):
            add_preferred(container_map["@type"], "@reverse", term)
        elif mapping.get("@type") == "@none":
            add_preferred(container_map["@any"], "@none", term)
            add_preferred(container_map["@language"], "@none", term)
            add_preferred(container_map["@type"], "@none", term)
        elif "@type" in mapping:
            add_preferred(container_map["@type"], mapping["@type"], term)
        elif "@language" in mapping and "@direction" in mapping:
            lang = mapping["@language"]
            dir_ = mapping["@direction"]
            if lang and dir_:
                add_preferred(container_map["@language"],
                              f"{lang}_{dir_}".lower(), term)
            elif lang:
                add_preferred(container_map["@language"], lang.lower(), term)
            elif dir_:
                add_preferred(container_map["@language"], f"_{dir_}", term)
            else:
                add_preferred(container_map["@language"], "@null", term)
        elif "@language" in mapping:
            add_preferred(container_map["@language"],
                          (mapping["@language"] or "@null").lower(), term)
        elif "@direction" in mapping:
            if mapping["@direction"]:
                add_preferred(container_map["@language"],
                              f"_{mapping['@direction']}", term)
            else:
                add_preferred(container_map["@language"], "@none", term)
        elif default_direction:
            add_preferred(container_map["@language"],
                          f"_{default_direction}", term)
            add_preferred(container_map["@language"], "@none", term)
            add_preferred(container_map["@type"], "@none", term)
        else:
            add_preferred(container_map["@language"], default_language, term)
            add_preferred(container_map["@language"], "@none", term)
            add_preferred(container_map["@type"], "@none", term)

    curie_candidates = [(iri, iris_to_terms[iri])
                        for iri in js_sorted(iris_to_terms)]
    return inverse, curie_candidates

"""Shared helpers: blank-node identifier issuer, value add/compare, clones.

Reimplements (from public JSON-LD 1.1 API / RDF canonicalization specs) the
helpers the reference uses from /root/reference/lib/util.js — notably
``IdentifierIssuer`` which the fork removed (util.js:9,26 commented out) yet
still uses at toRdf.js:50, nodeMap.js:28, frame.js:43.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Iterable

from . import types as _t


class IdentifierIssuer:
    """Deterministic identifier issuer: first-seen ordering, ``prefix0..n``.

    Mirrors rdf-canonize's IdentifierIssuer semantics (used via
    util.js / toRdf.js:50): issues `_:b0`, `_:b1`, ... in the order
    identifiers are first requested.
    """

    __slots__ = ("prefix", "counter", "existing", "order")

    def __init__(self, prefix: str = "_:b") -> None:
        self.prefix = prefix
        self.counter = 0
        self.existing: dict[str, str] = {}
        self.order: list[str] = []

    def get_id(self, old: str | None = None) -> str:
        if old is not None and old in self.existing:
            return self.existing[old]
        identifier = f"{self.prefix}{self.counter}"
        self.counter += 1
        if old is not None:
            self.existing[old] = identifier
            self.order.append(old)
        return identifier

    def has_id(self, old: str) -> bool:
        return old in self.existing

    def get_old_ids(self) -> list[str]:
        return list(self.order)

    def clone(self) -> "IdentifierIssuer":
        dup = IdentifierIssuer(self.prefix)
        dup.counter = self.counter
        dup.existing = dict(self.existing)
        dup.order = list(self.order)
        return dup


def as_array(v: Any) -> list:
    """Wrap non-list values into a list (util.js:75-77)."""
    return v if isinstance(v, list) else [v]


def deep_clone(v: Any) -> Any:
    """Deep-copy a JSON tree (util.js clone); dicts/lists/scalars only."""
    if isinstance(v, dict):
        return {k: deep_clone(x) for k, x in v.items()}
    if isinstance(v, list):
        return [deep_clone(x) for x in v]
    return v


_MISSING = object()


def _js_strict_eq(a: Any, b: Any) -> bool:
    """JS ``===`` on JSON values: dicts/lists compare by IDENTITY,
    primitives by value with type discrimination (true !== 1;
    undefined !== null is handled by the _MISSING defaults at the
    call sites)."""
    if isinstance(a, (dict, list)) or isinstance(b, (dict, list)):
        return a is b
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    return a == b


def compare_values(v1: Any, v2: Any) -> bool:
    """JSON-LD value equality (util.js:385-409).

    True iff: both are identical primitives; both @value objects with
    STRICTLY equal @value/@type/@language/@index; or both objects with
    strictly equal @id. Each component compares with JS ``===``
    semantics — a non-scalar component (an @json @value, or the fork's
    broken array-valued @type) matches only by object identity, so two
    structurally equal but distinct such value objects are NOT
    duplicates (flatten fuzz seed 3031914: the reference keeps both
    copies where a deep comparison would merge them).
    """
    if v1 is v2:
        return True
    if (
        _t.is_scalar(v1)
        and _t.is_scalar(v2)
        and v1 == v2
        and isinstance(v1, bool) == isinstance(v2, bool)
    ):
        return True
    if _t.is_value(v1) and _t.is_value(v2):
        return all(
            _js_strict_eq(v1.get(k, _MISSING), v2.get(k, _MISSING))
            for k in ("@value", "@type", "@language", "@index")
        )
    if (
        isinstance(v1, dict)
        and "@id" in v1
        and isinstance(v2, dict)
        and "@id" in v2
    ):
        return _js_strict_eq(v1["@id"], v2["@id"])
    return False


class _Identity:
    """Hash key that matches only the very object it wraps (JS object
    ``===``). It holds a reference, so the id cannot be reused while the
    key is alive."""

    __slots__ = ("obj",)

    def __init__(self, obj: Any) -> None:
        self.obj = obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, _Identity) and other.obj is self.obj


_NAN = object()
_NO_KEY = object()


def _component_key(x: Any) -> Any:
    """Key of one component under ``_js_strict_eq``: scalars by value
    with bool kept apart from numbers, dicts/lists by identity. ``_NAN``
    for NaN, which equals nothing; ``_NO_KEY`` for a non-JSON type."""
    t = type(x)
    if t is str or t is int or x is None or x is _MISSING:
        return x
    if t is float:
        return x if x == x else _NAN
    if t is bool:
        return ("@bool", x)
    if t is dict or t is list:
        return _Identity(x)
    return _NO_KEY


def value_key(v: Any) -> Any:
    """Hashable key with ``value_key(a) == value_key(b)`` exactly when
    ``compare_values(a, b)``; None when ``v`` gets no key.

    - scalars key by value (``1`` matches ``1.0``, ``True`` does not
      match ``1``);
    - value objects key on @value/@type/@language/@index, each by
      ``_component_key`` (an absent component is not null);
    - other dicts with @id key on @id alone;
    - everything else (@list objects, other dicts, lists, null) keys
      by identity, as does anything holding a NaN, which
      ``compare_values`` matches only to the same object.

    A value object that also carries @id gets None: compare_values
    matches it to value objects by the 4-tuple and to nodes by @id,
    which no single key can express. So does anything holding a
    non-JSON scalar. Callers compare such values by scan.
    """
    t = type(v)
    if t is dict:
        if "@value" in v:
            if "@id" in v:
                return None
            key = ("@value",
                   _component_key(v["@value"]),
                   _component_key(v.get("@type", _MISSING)),
                   _component_key(v.get("@language", _MISSING)),
                   _component_key(v.get("@index", _MISSING)))
        elif "@id" in v:
            key = ("@id", _component_key(v["@id"]))
        else:
            return _Identity(v)
        if _NO_KEY in key:
            return None
        return _Identity(v) if _NAN in key else key
    if t is list or v is None:
        return _Identity(v)
    key = _component_key(v)
    if key is _NO_KEY:
        return None
    return _Identity(v) if key is _NAN else key


def has_value(subject: dict, prop: str, value: Any) -> bool:
    """True if subject[prop] contains value per compare_values
    (util.js:227-247)."""
    if prop not in subject:
        return False
    val = subject[prop]
    is_list = _t.is_list(val)
    if is_list or isinstance(val, list):
        items = val["@list"] if is_list else val
        return any(compare_values(value, item) for item in items)
    if not isinstance(value, list):
        return compare_values(value, val)
    return False


def add_value(
    subject: dict,
    prop: str,
    value: Any,
    property_is_array: bool = False,
    value_is_array: bool = False,
    allow_duplicate: bool = True,
    prepend_value: bool = False,
) -> None:
    """Add a value to a subject property (util.js:249-306)."""
    if value_is_array:
        subject[prop] = value
        return
    if isinstance(value, list):
        if len(value) == 0 and property_is_array and prop not in subject:
            subject[prop] = []
        if prepend_value:
            value = value + as_array(subject.get(prop, []))
            subject[prop] = []
        for v in value:
            add_value(
                subject, prop, v,
                property_is_array=property_is_array,
                allow_duplicate=allow_duplicate,
            )
        return
    if prop in subject:
        has_dup = not allow_duplicate and has_value(subject, prop, value)
        if not isinstance(subject[prop], list) and (not has_dup or property_is_array):
            subject[prop] = [subject[prop]]
        if not has_dup:
            if prepend_value:
                subject[prop].insert(0, value)
            else:
                subject[prop].append(value)
    else:
        subject[prop] = [value] if property_is_array else value


class ValueIndex:
    """``add_value(subject, prop, value, property_is_array=True,
    allow_duplicate=False)`` at O(1) per value instead of O(values), for
    properties that are absent or hold a list.

    util.js hasValue scans every value the property already has, so N
    values on one property cost O(N²). This index keeps, per (subject,
    property), the ``value_key`` set of the property's list. An entry is
    seeded from the list when a value is first added to a list the index
    has no entry for, so an index can serve a call that adds into maps
    built by earlier calls. Values without a key are compared by scan.
    While an index is in use, nothing else may change the lists it has
    seen.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        # (id(subject), prop) -> (keys, unkeyed values, subject); holding
        # the subject keeps its id from being reused
        self._entries: dict[tuple[int, str], tuple[set, list, dict]] = {}

    def add(self, subject: dict, prop: str, value: Any) -> None:
        if isinstance(value, list):
            if not value and prop not in subject:
                subject[prop] = []
            for v in value:
                self.add(subject, prop, v)
            return
        items = subject.get(prop)
        if items is None:
            subject[prop] = [value]
            return
        entry = self._entries.get((id(subject), prop))
        if entry is None:
            entry = (set(), [], subject)
            for item in items:
                k = value_key(item)
                if k is None:
                    entry[1].append(item)
                else:
                    entry[0].add(k)
            self._entries[(id(subject), prop)] = entry
        keys, unkeyed, _ = entry
        key = value_key(value)
        if key is None:
            if any(compare_values(value, item) for item in items):
                return
            unkeyed.append(value)
        elif key in keys or (unkeyed and any(
                compare_values(value, item) for item in unkeyed)):
            return
        else:
            keys.add(key)
        items.append(value)


def get_values(subject: dict, prop: str) -> list:
    return as_array(subject.get(prop, []))


def remove_property(subject: dict, prop: str) -> None:
    subject.pop(prop, None)


def remove_value(subject: dict, prop: str, value: Any,
                 property_is_array: bool = False) -> None:
    """Remove a value from subject[prop] (util.js:330-356)."""
    values = [v for v in get_values(subject, prop) if not compare_values(v, value)]
    if len(values) == 0:
        remove_property(subject, prop)
    elif len(values) == 1 and not property_is_array:
        subject[prop] = values[0]
    else:
        subject[prop] = values


_ASTRAL = re.compile("[\U00010000-\U0010FFFF]")   # two UTF-16 units


def _surrogate_pair(c: str) -> str:
    o = ord(c) - 0x10000
    return chr(0xD800 + (o >> 10)) + chr(0xDC00 + (o & 0x3FF))


def _utf16_units(s: str) -> str:
    """``s`` with each character past U+FFFF split into its UTF-16
    surrogate pair, so that Python's ``<`` and ``len()`` on the result
    are JS ``<`` and ``.length`` on ``s``."""
    if s.isascii() or not _ASTRAL.search(s):
        return s
    return "".join(c if c < "\U00010000" else _surrogate_pair(c)
                   for c in s)


def js_sorted(items: Iterable, key: Callable[[Any], str] | None = None
              ) -> list:
    """``items`` in ECMAScript's default sort order, as the reference's
    ``Object.keys(...).sort()`` gives; ``key`` maps an item to the
    string JS would compare (default: the item itself).

    An ES string is a sequence of UTF-16 code units, and the default
    sort compares strings unit by unit. Python's ``sorted`` compares
    code points instead, which differs when a character past U+FFFF
    (two units, 0xD800-0xDFFF) meets one in U+E000-U+FFFF. Without a
    character past U+FFFF the two orders agree, so plain ``sorted``
    serves.
    """
    items = list(items)
    joined = "".join(items if key is None else map(key, items))
    if joined.isascii() or not _ASTRAL.search(joined):
        return sorted(items, key=key)
    if key is None:
        return sorted(items, key=_utf16_units)
    return sorted(items, key=lambda v: _utf16_units(key(v)))


def compare_shortest_least(a: str, b: str) -> int:
    """Sort key comparator: shortest first, then lexicographically least
    (util.js:419-430), by JS ``.length`` and ``<`` (UTF-16 units)."""
    a, b = _utf16_units(a), _utf16_units(b)
    if len(a) < len(b):
        return -1
    if len(b) < len(a):
        return 1
    if a == b:
        return 0
    return -1 if a < b else 1


def relabel_blank_nodes(entry: Any, issuer: IdentifierIssuer | None = None) -> Any:
    """Relabel every blank node in a JSON tree via the issuer
    (util.js:365-369,440-464). Mutates and returns entry."""
    issuer = issuer or IdentifierIssuer()

    def _label(node: Any) -> Any:
        if isinstance(node, list):
            return [_label(e) for e in node]
        if isinstance(node, dict):
            if "@id" in node and isinstance(node["@id"], str) and \
                    node["@id"].startswith("_:"):
                node["@id"] = issuer.get_id(node["@id"])
            for k in node:
                if k != "@id":
                    node[k] = _label(node[k])
        return node

    return _label(entry)


def freeze(v: Any) -> Any:
    """Hashable deep-frozen form of a JSON value (for dedup/cache keys)."""
    if isinstance(v, dict):
        return tuple(sorted((k, freeze(x)) for k, x in v.items()))
    if isinstance(v, list):
        return tuple(freeze(x) for x in v)
    return v


__all__ = [
    "IdentifierIssuer", "as_array", "deep_clone", "compare_values",
    "value_key", "has_value", "add_value", "ValueIndex", "get_values",
    "remove_property", "remove_value", "js_sorted",
    "compare_shortest_least", "relabel_blank_nodes", "freeze",
]

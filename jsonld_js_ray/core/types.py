"""Value classification predicates over parsed JSON values.

Semantics follow the reference's type predicates
(/root/reference/lib/types.js, /root/reference/lib/graphTypes.js), mapped to
Python's JSON data model (dict / list / str / bool / int / float / None).

One deliberate divergence forced by the host language: JavaScript has a
single number type, so the reference decides integer-vs-double by string
form (``String(v).indexOf('.') !== -1 || Math.abs(v) >= 1e21``,
types.js:35-36).  Python's json module already splits numbers into int and
float, so here a value is a *double* iff it is a float whose canonical JS
string form would contain a '.' or 'e', or whose magnitude is >= 1e21; a
Python int < 1e21 is an integer.  A float like 5.0 stringifies to "5" in JS
(no '.') and is treated as an integer, which we replicate.
"""

from __future__ import annotations

from typing import Any

KEYWORDS: frozenset[str] = frozenset({
    # JSON-LD 1.1 keywords (jsonld.js lib/context.js:1473-1508)
    "@base", "@container", "@context", "@default", "@direction", "@embed",
    "@explicit", "@graph", "@id", "@included", "@index", "@json", "@language",
    "@list", "@nest", "@none", "@omitDefault", "@prefix", "@preserve",
    "@protected", "@requireAll", "@reverse", "@set", "@type", "@value",
    "@version", "@vocab",
})


def is_keyword(v: Any) -> bool:
    return isinstance(v, str) and v in KEYWORDS


def is_potential_keyword(v: Any) -> bool:
    """True for '@'-prefixed alpha strings (keyword-like terms are ignored
    as term definitions per JSON-LD 1.1)."""
    if not isinstance(v, str) or not v.startswith("@"):
        return False
    rest = v[1:]
    return rest.isalpha()


def is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_double(v: Any) -> bool:
    if not is_number(v):
        return False
    if isinstance(v, int):
        return abs(v) >= 1e21
    # float: replicate JS `String(v).indexOf('.') !== -1 || |v| >= 1e21`
    # (types.js:35-36). ES number-to-string prints no '.' for integral
    # values AND for bare-mantissa exponent forms like 1e-7, which the
    # reference therefore treats as integers (toFixed(0)).
    if v != v or v in (float("inf"), float("-inf")):
        # String(NaN)='NaN', String(Infinity)='Infinity' — no '.', so the
        # reference types these as integers (toFixed(0) → 'NaN'/'Infinity')
        return False
    if abs(v) >= 1e21:
        return True
    from .jcs import es_number_to_string
    return "." in es_number_to_string(v)


def is_integer(v: Any) -> bool:
    return is_number(v) and not is_double(v)


def is_string(v: Any) -> bool:
    return isinstance(v, str)


def is_object(v: Any) -> bool:
    return isinstance(v, dict)


def is_empty_object(v: Any) -> bool:
    return isinstance(v, dict) and len(v) == 0


def is_array(v: Any) -> bool:
    return isinstance(v, list)


def is_scalar(v: Any) -> bool:
    return v is not None and not isinstance(v, (dict, list))


# --- graph types (reference lib/graphTypes.js) ---

def is_subject(v: Any) -> bool:
    """A node object: not @value/@set/@list, and >1 key or no @id.

    (graphTypes.js:18-29)
    """
    if isinstance(v, dict) and not ("@value" in v or "@set" in v or "@list" in v):
        return len(v) > 1 or "@id" not in v
    return False


def is_subject_reference(v: Any) -> bool:
    """Object with a single key @id (graphTypes.js:38-42)."""
    return isinstance(v, dict) and len(v) == 1 and "@id" in v


def is_value(v: Any) -> bool:
    return isinstance(v, dict) and "@value" in v


def is_list(v: Any) -> bool:
    return isinstance(v, dict) and "@list" in v


def is_graph(v: Any) -> bool:
    """{@graph: [...]} with only optional @id / @index (graphTypes.js:75-97)."""
    return (
        isinstance(v, dict)
        and "@graph" in v
        and len([k for k in v if k not in ("@id", "@index")]) == 1
    )


def is_simple_graph(v: Any) -> bool:
    return is_graph(v) and "@id" not in v


def is_blank_node(v: Any) -> bool:
    """Node with @id starting '_:', or a node-like object without @id
    (graphTypes.js:106-119)."""
    if not isinstance(v, dict):
        return False
    if "@id" in v:
        return isinstance(v["@id"], str) and v["@id"].startswith("_:")
    return len(v) == 0 or not ("@value" in v or "@set" in v or "@list" in v)

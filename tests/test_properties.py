"""Property-based invariants (hypothesis) for the kernel — complements
the differential fuzz with properties that need no reference oracle:

- expansion idempotence: expand(expand(x)) == expand(x)
- compact∘expand round-trip preserves the expanded form
- URDNA2015 is invariant under blank-node relabeling AND quad order
- N-Quads serialize∘parse is the identity on quad sets
- JCS is stable and sorts keys
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from jsonld_js_ray import api
from jsonld_js_ray.core import canonize as cz
from jsonld_js_ray.core import jcs, nquads

EX = "http://p.example/"
BASE = {"base": "http://base.example/dir/"}  # absolute base: relative-IRI
# resolution is then stable (with base "" even the reference maps "" →
# "./" → "/" across repeated expansions — not idempotent by design)

# --- strategies ---

scalars = st.one_of(
    st.text(max_size=12),
    st.integers(min_value=-10**15, max_value=10**15),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e10, max_value=1e10),
)

iris = st.sampled_from(
    [EX + s for s in ("a", "b", "c", "T1", "T2")] + ["_:b0", "_:b1"])

terms = st.sampled_from(["p1", "p2", "ex:q", EX + "abs"])


@st.composite
def node_objects(draw, depth=2):
    node = {}
    if draw(st.booleans()):
        node["@id"] = draw(iris)
    if draw(st.integers(0, 4)) == 0:
        node["@type"] = draw(st.lists(
            st.sampled_from([EX + "T1", EX + "T2"]), min_size=1,
            max_size=2))
    n_props = draw(st.integers(1, 3))
    for _ in range(n_props):
        key = draw(terms)
        if depth > 0 and draw(st.integers(0, 3)) == 0:
            node[key] = draw(node_objects(depth=depth - 1))
        elif draw(st.integers(0, 4)) == 0:
            node[key] = {"@list": draw(st.lists(scalars, max_size=3))}
        else:
            node[key] = draw(st.one_of(
                scalars, st.lists(scalars, max_size=3)))
    return node


@st.composite
def docs(draw):
    doc = draw(node_objects())
    doc["@context"] = {
        "ex": EX,
        "p1": EX + "p1",
        "p2": {"@id": EX + "p2", "@type": "@id"},
    }
    return doc


# --- properties ---

@settings(max_examples=150, deadline=None)
@given(docs())
def test_expand_idempotent(doc):
    once = api.expand(json.loads(json.dumps(doc)), dict(BASE))
    twice = api.expand(json.loads(json.dumps(once)), dict(BASE))
    assert once == twice


def _norm(value):
    """Order-normalize expanded JSON-LD: property arrays are SETS in the
    data model (order significant only inside @list), and compaction may
    reorder them — true of the reference as well."""
    if isinstance(value, list):
        return sorted((_norm(v) for v in value), key=json.dumps)
    if isinstance(value, dict):
        return {k: (_norm(v) if k != "@list"
                    else [_norm(x) for x in v])
                for k, v in value.items()}
    return value


@settings(max_examples=150, deadline=None)
@given(docs())
def test_compact_expand_fixpoint(doc):
    ctx = doc["@context"]
    expanded = api.expand(json.loads(json.dumps(doc)), dict(BASE))
    compacted = api.compact(json.loads(json.dumps(expanded)), ctx, dict(BASE))
    re_expanded = api.expand(json.loads(json.dumps(compacted)), dict(BASE))
    assert _norm(expanded) == _norm(re_expanded)


@settings(max_examples=100, deadline=None)
@given(docs(), st.randoms(use_true_random=False))
def test_canonize_invariant_under_labels_and_order(doc, rng):
    quads = api.to_rdf(json.loads(json.dumps(doc)), dict(BASE))
    baseline = cz.canonize(quads)

    # permute quad order
    shuffled = list(quads)
    rng.shuffle(shuffled)
    assert cz.canonize(shuffled) == baseline

    # relabel blank nodes consistently
    labels = sorted({t[1] for q in quads for t in q
                     if t is not None and t[0] == "BlankNode"})
    mapping = {l: f"_:renamed{i}" for i, l in enumerate(reversed(labels))}
    relabeled = [
        tuple(("BlankNode", mapping[t[1]])
              if (t is not None and t[0] == "BlankNode") else t
              for t in q)
        for q in shuffled
    ]
    assert cz.canonize(relabeled) == baseline


def _nq_serializable(quads) -> bool:
    import re
    bad = re.compile(r'[\x00-\x20<>"{}|^`\\]')
    for q in quads:
        if q[2] is None:
            return False
        for t in q:
            if t[0] == "NamedNode" and bad.search(t[1]):
                return False
    return True


@settings(max_examples=100, deadline=None)
@given(docs())
def test_nquads_roundtrip_identity(doc):
    from hypothesis import assume

    quads = api.to_rdf(json.loads(json.dumps(doc)), dict(BASE))
    # IRIs with chars outside the N-Quads IRIREF production are
    # garbage-in (the reference serializer emits invalid lines for them
    # too); the roundtrip identity is claimed for serializable datasets
    assume(_nq_serializable(quads))
    text = nquads.serialize(quads)
    reparsed = nquads.parse(text)
    assert sorted(set(quads)) == sorted(reparsed)


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), scalars),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(json_values)
def test_jcs_stable_and_parseable(value):
    a = jcs.canonicalize(value)
    b = jcs.canonicalize(json.loads(json.dumps(value)))
    assert a == b
    # canonical output is itself valid JSON that re-canonicalizes to itself
    assert jcs.canonicalize(json.loads(a)) == a

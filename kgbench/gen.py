"""Seeded input generators for the three benchmark workloads.

Every workload fixes its *shape* (shard count, conversation lengths,
text lengths, document templates) independently of the seed; the seed
only chooses content and order. Two seeds therefore cost the same to
process, and the same seed writes byte-identical files.

``generate(workload, seed, out_dir)`` writes the inputs and returns a
spec dict describing them (paths, expected sizes and, for
``jsonld_bnodes``, the expected quads the oracle compares against).
The engine sees only the written files.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from datetime import datetime, timedelta

EVENT_TYPES = ("click", "view", "signup", "purchase", "error")

EX = "http://example.org/kgbench/v#"
EX_ID = "http://example.org/kgbench/id/"
XSD = "http://www.w3.org/2001/XMLSchema#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"

# --- kg_* : events parquet ---------------------------------------------

KG_SHAPES = {
    # many shards, thousands of short conversations, tiny props text
    "kg_short": {"shards": 8, "convs": 320, "text": "short"},
    # a few shards, heavy-tailed lengths, one conversation past
    # stages.assemble.MAX_TURNS_PER_DOC, long non-ASCII text
    "kg_longtail": {"shards": 3, "convs": 60, "text": "long"},
}

_LONG_TEXT_LENGTHS = (40, 90, 160, 260)
_ASCII = "abcdefghijklmnopqrstuvwxyz ABCDEFGHIJ 0123456789 ,.;:"
_SPECIAL = '"\\\n\t/{}[]<>&'
_UNICODE = "éüñßøçΩжЯ中文字あいう😀🚀€£"


def conversation_lengths(workload: str) -> list[int]:
    """Turns per conversation at fixed quantiles (seed-independent)."""
    n = KG_SHAPES[workload]["convs"]
    if workload == "kg_short":
        return [2 + (i * 11) // n for i in range(n)]          # 2..12
    lengths = []
    for i in range(n - 1):
        q = (i + 0.5) / (n - 1)
        lengths.append(int(3 * (1.0 - q) ** (-1 / 1.2)))       # Pareto tail
    return lengths + [4200]                                    # > 4096


def _long_text(rng: random.Random, n_chars: int) -> str:
    out = []
    for k in range(n_chars):
        r = k % 10
        if r == 7:
            out.append(rng.choice(_UNICODE))
        elif r == 9:
            out.append(rng.choice(_SPECIAL))
        else:
            out.append(rng.choice(_ASCII))
    return "".join(out)


def _kg_events(workload: str, seed: int, out_dir: str) -> dict:
    import pyarrow as pa
    import pyarrow.parquet as pq

    shape = KG_SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    n_shards = shape["shards"]
    lengths = sorted(conversation_lengths(workload))
    # deal sorted lengths round-robin: every shard gets the same
    # length profile whatever the seed
    per_shard: list[list[int]] = [[] for _ in range(n_shards)]
    for i, n in enumerate(lengths):
        per_shard[i % n_shards].append(n)
    user_ids = rng.sample(range(10_000, 10_000_000), len(lengths))
    event_ids = rng.sample(range(1, 50 * sum(lengths)), sum(lengths))
    base = datetime(2024, 1, 1)
    os.makedirs(os.path.join(out_dir, "events"), exist_ok=True)
    files = []
    u = e = 0
    for shard, shard_lengths in enumerate(per_shard):
        rng.shuffle(shard_lengths)
        cols: dict[str, list] = {k: [] for k in
                                 ("event_id", "ts", "user_id",
                                  "event_type", "value", "props")}
        for n_turns in shard_lengths:
            uid = user_ids[u]
            u += 1
            ts = base + timedelta(seconds=rng.randrange(86_400 * 30))
            for t in range(n_turns):
                ts += timedelta(microseconds=rng.randrange(1, 10 ** 8))
                cols["event_id"].append(event_ids[e])
                e += 1
                cols["ts"].append(ts)
                cols["user_id"].append(uid)
                cols["event_type"].append(rng.choice(EVENT_TYPES))
                cols["value"].append(round(rng.random() * 100, 2))
                if shape["text"] == "short":
                    cols["props"].append('{"k": %02d}' % rng.randrange(100))
                else:
                    n_chars = _LONG_TEXT_LENGTHS[
                        (t + len(files)) % len(_LONG_TEXT_LENGTHS)]
                    cols["props"].append(_long_text(rng, n_chars))
        order = list(range(len(cols["event_id"])))
        rng.shuffle(order)                     # interleave users on disk
        table = pa.table({
            "event_id": pa.array([cols["event_id"][i] for i in order],
                                 pa.int64()),
            "ts": pa.array([cols["ts"][i] for i in order],
                           pa.timestamp("us")),
            "user_id": pa.array([cols["user_id"][i] for i in order],
                                pa.int64()),
            "event_type": pa.array([cols["event_type"][i] for i in order],
                                   pa.string()),
            "value": pa.array([cols["value"][i] for i in order],
                              pa.float64()),
            "props": pa.array([cols["props"][i] for i in order],
                              pa.string()),
        })
        path = os.path.join(out_dir, "events", f"part-{shard:05d}.parquet")
        pq.write_table(table, path)
        files.append(path)
    return {"workload": workload, "sf_dir": out_dir, "files": files,
            "convs": len(lengths), "turns": sum(lengths)}


# --- jsonld_bnodes : JSON-LD line shards --------------------------------
#
# A document is first built as an abstract graph; the expected quads are
# read off that graph directly, and the JSON-LD text is rendered from it
# through one of several @context variants (each a distinct cache key in
# core.context.ContextResolver). The oracle therefore never runs the
# engine.

BNODE_DOCS = 1000
BNODE_SHARDS = 4
COPY_EVERY = 4           # every 4th round of shapes copies its labelled docs

_WORDS = ("alpha", "beta", "gamma", "delta", "omega", "node", "graph",
          "quad", "blank", "list", "Zürich", "Ωmega", "日本")
_LANGS = ("en", "fr", "de", "es")


class _Node:
    """Abstract node: ``label`` is an explicit ``_:`` label (rendered as
    ``@id``), ``iri`` a named node, neither an anonymous blank node."""

    def __init__(self, types=(), iri=None, label=None):
        self.types = list(types)
        self.iri = iri
        self.label = label
        self.props: list[tuple[str, tuple]] = []


def _words(rng: random.Random, k: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(k))


def _base_node(rng: random.Random, serial: int) -> _Node:
    top = _Node(types=["Thing"])
    top.props += [
        ("name", ("str", f"doc {serial} {_words(rng, 3)}")),
        ("score", ("int", rng.randrange(-1000, 1000))),
        ("flag", ("bool", rng.random() < 0.5)),
        ("created", ("date", f"20{rng.randrange(10, 30)}-"
                             f"{rng.randrange(1, 13):02d}-"
                             f"{rng.randrange(1, 29):02d}")),
        ("label", ("lang", _words(rng, 2), rng.choice(_LANGS[:2]))),
    ]
    return top


def _person(rng: random.Random, **kw) -> _Node:
    p = _Node(types=["Person"], **kw)
    p.props.append(("nick", ("str", _words(rng, 1))))
    return p


def _shape_tree(rng, serial):
    """Anonymous nested nodes two levels deep, a literal @list and a
    named reference."""
    top = _base_node(rng, serial)
    for k in range(3):
        p = _person(rng)
        p.props.append(("knows", ("ref", _Node(
            iri=f"{EX_ID}p{rng.randrange(10 ** 6)}"))))
        inner = _Node()
        inner.props.append(("tag", ("str", _words(rng, 2))))
        p.props.append(("member", ("node", inner)))
        top.props.append(("member", ("node", p)))
    top.props.append(("items", ("list", [("str", _words(rng, 1)),
                                         ("int", rng.randrange(100)),
                                         ("str", _words(rng, 2)),
                                         ("lang", _words(rng, 1), "en")])))
    return top, False


def _shape_ring(rng, serial):
    """Three labelled blank nodes in a symmetric ring: equal
    first-degree hashes, so URDNA2015 runs hash-N-degree."""
    top = _base_node(rng, serial)
    tag = _words(rng, 1)
    ring = [_person(rng, label=f"r{k}") for k in range(3)]
    for p in ring:
        p.props = [("tag", ("str", tag))]
    for k, p in enumerate(ring):
        p.props.append(("knows", ("ref", ring[(k + 1) % 3])))
        top.props.append(("member", ("node", p)))
    top.props.append(("items", ("list", [])))
    return top, True


def _shape_pairs(rng, serial):
    """Two mutually-referencing blank-node pairs that differ in one
    literal (near-symmetric), plus a @list of anonymous nodes."""
    top = _base_node(rng, serial)
    tag = _words(rng, 1)
    for pair in range(2):
        a = _Node(types=["Person"], label=f"a{pair}")
        b = _Node(types=["Person"], label=f"b{pair}")
        a.props = [("tag", ("str", tag)), ("knows", ("ref", b))]
        b.props = [("tag", ("str", tag if pair == 0 else tag + "!")),
                   ("knows", ("ref", a))]
        top.props += [("member", ("node", a)), ("member", ("node", b))]
    items = []
    for _ in range(3):
        n = _Node()
        n.props.append(("name", ("str", _words(rng, 1))))
        items.append(("node", n))
    top.props.append(("items", ("list", items)))
    return top, True


def _shape_chain(rng, serial):
    """A three-deep anonymous chain and multiple language-tagged
    values on one property."""
    top = _base_node(rng, serial)
    cur = top
    for depth in range(3):
        nxt = _Node(types=["Thing"] if depth % 2 else [])
        nxt.props.append(("score", ("int", depth * 1000 + rng.randrange(1000))))
        cur.props.append(("member", ("node", nxt)))
        cur = nxt
    for lang in _LANGS[2:]:          # distinct from the base label's
        top.props.append(("label", ("lang", _words(rng, 2), lang)))
    return top, False


_SHAPES = (_shape_tree, _shape_ring, _shape_pairs, _shape_chain)


def _contexts() -> list:
    """The @context variants; each is a distinct cache key."""
    coerced = {"xsd": XSD, "Thing": EX + "Thing", "Person": EX + "Person"}
    for p in ("name", "score", "flag", "label", "member", "tag", "nick"):
        coerced[p] = EX + p
    coerced["created"] = {"@id": EX + "created", "@type": "xsd:date"}
    coerced["items"] = {"@id": EX + "items", "@container": "@list"}
    coerced["knows"] = {"@id": EX + "knows", "@type": "@id"}
    return [
        {"@vocab": EX, "xsd": XSD},                          # 0 vocab
        {"ex": EX, "xsd": XSD},                              # 1 prefix
        coerced,                                             # 2 coerced
        [{"ex": EX}, {"@vocab": EX}, {"xsd": XSD}],          # 3 array
        {"@version": 1.1, "@vocab": EX, "xsd": XSD,          # 4 scoped
         "Person": {"@id": EX + "Person",
                    "@context": {"nick": {"@id": EX + "nick"}}}},
    ]


def _key(variant: int, local: str) -> str:
    return f"ex:{local}" if variant == 1 else local


def _render_value(v: tuple, variant: int, labels: dict, prop: str):
    kind = v[0]
    if kind == "str":
        return v[1]
    if kind in ("int", "bool"):
        return v[1]
    if kind == "date":
        if variant == 2:
            return v[1]                                  # coerced term
        return {"@value": v[1], "@type": "xsd:date"}
    if kind == "lang":
        return {"@value": v[1], "@language": v[2]}
    if kind == "node":
        return _render_node(v[1], variant, labels)
    if kind == "ref":
        node = v[1]
        ident = node.iri if node.iri else "_:" + labels[node.label]
        if variant == 2 and prop == "knows" and node.iri:
            return ident                                 # @type: @id
        return {"@id": ident}
    if kind == "list":
        items = [_render_value(x, variant, labels, prop) for x in v[1]]
        return items if variant == 2 else {"@list": items}
    raise ValueError(kind)


def _render_node(node: _Node, variant: int, labels: dict) -> dict:
    out: dict = {}
    if node.iri:
        out["@id"] = node.iri
    elif node.label:
        out["@id"] = "_:" + labels[node.label]
    if node.types:
        ts = [_key(variant, t) for t in node.types]
        out["@type"] = ts[0] if len(ts) == 1 else ts
    for prop, v in node.props:
        key = _key(variant, prop)
        rendered = _render_value(v, variant, labels, prop)
        if key in out:
            if not isinstance(out[key], list):
                out[key] = [out[key]]
            out[key].append(rendered)
        else:
            out[key] = rendered
    return out


def _expected_quads(top: _Node) -> list[tuple]:
    """Quad rows (subj, pred, obj_kind, obj_value, obj_datatype,
    obj_lang) read straight off the abstract graph; blank nodes carry
    generator-local ``_:gN`` labels."""
    quads: list[tuple] = []
    ids: dict[int, str] = {}       # id(node) -> label; nodes outlive this
    issued = [0]

    def fresh() -> str:
        issued[0] += 1
        return f"_:g{issued[0]}"

    def term(node: _Node) -> str:
        if node.iri:
            return node.iri
        if id(node) not in ids:
            ids[id(node)] = fresh()
        return ids[id(node)]

    def obj(v: tuple) -> tuple:
        kind = v[0]
        if kind == "str":
            return ("literal", v[1], XSD + "string", None)
        if kind == "int":
            return ("literal", str(v[1]), XSD + "integer", None)
        if kind == "bool":
            return ("literal", "true" if v[1] else "false",
                    XSD + "boolean", None)
        if kind == "date":
            return ("literal", v[1], XSD + "date", None)
        if kind == "lang":
            return ("literal", v[1], RDF + "langString", v[2])
        if kind in ("node", "ref"):
            node = v[1]
            if kind == "node":
                emit(node)
            t = term(node)
            return ("iri" if node.iri else "bnode", t, None, None)
        if kind == "list":
            if not v[1]:
                return ("iri", RDF + "nil", None, None)
            heads = [fresh() for _ in v[1]]
            for i, item in enumerate(v[1]):
                quads.append((heads[i], RDF + "first") + obj(item))
                nxt = heads[i + 1] if i + 1 < len(heads) else None
                quads.append((heads[i], RDF + "rest") +
                             (("bnode", nxt, None, None) if nxt else
                              ("iri", RDF + "nil", None, None)))
            return ("bnode", heads[0], None, None)
        raise ValueError(kind)

    def emit(node: _Node) -> None:
        s = term(node)
        for t in node.types:
            quads.append((s, RDF + "type", "iri", EX + t, None, None))
        for prop, v in node.props:
            quads.append((s, EX + prop) + obj(v))

    emit(top)
    return quads


def _shuffle_keys(value, rng: random.Random):
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        return {k: _shuffle_keys(value[k], rng) for k in keys}
    if isinstance(value, list):
        return [_shuffle_keys(v, rng) for v in value]
    return value


def line_conv_id(line: str) -> str:
    """Identity the line connector gives a foreign document (one whose
    @id is not under the conversation namespace)."""
    return "doc-" + hashlib.sha1(line.encode("utf-8")).hexdigest()[:16]


def _jsonld_docs(seed: int, out_dir: str) -> dict:
    rng = random.Random(f"jsonld_bnodes:{seed}")
    contexts = _contexts()
    docs = []      # (line, expected quads, copy_of line or None)
    for serial in range(BNODE_DOCS):
        shape = _SHAPES[serial % len(_SHAPES)]
        variant = (serial // len(_SHAPES)) % len(contexts)
        top, labelled = shape(rng, serial)
        labels = {f"{c}{k}": f"{c}{rng.randrange(10 ** 6)}x{k}"
                  for c in "rab" for k in range(3)}
        body = _render_node(top, variant, labels)
        doc = {"@context": contexts[variant], **body}
        line = json.dumps(doc, ensure_ascii=False)
        expected = _expected_quads(top)
        docs.append((line, expected, None))
        if labelled and (serial // len(_SHAPES)) % COPY_EVERY == 0:
            renamed = {k: f"q{rng.randrange(10 ** 6)}y{v}"
                       for k, v in labels.items()}
            copy = _shuffle_keys({"@context": contexts[variant],
                                  **_render_node(top, variant, renamed)},
                                 rng)
            docs.append((json.dumps(copy, ensure_ascii=False), expected,
                         line))
    rng.shuffle(docs)
    os.makedirs(os.path.join(out_dir, "docs"), exist_ok=True)
    files = []
    expected_by_conv: dict[str, list[tuple]] = {}
    copies: dict[str, str] = {}
    for shard in range(BNODE_SHARDS):
        part = docs[shard::BNODE_SHARDS]
        path = os.path.join(out_dir, "docs", f"part-{shard:05d}.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            for line, expected, copy_of in part:
                f.write(line + "\n")
                cid = line_conv_id(line)
                if cid in expected_by_conv:
                    raise ValueError("generator wrote a duplicate line")
                expected_by_conv[cid] = expected
                if copy_of is not None:
                    copies[cid] = line_conv_id(copy_of)
        files.append(path)
    return {"workload": "jsonld_bnodes", "files": files,
            "docs": len(docs), "expected": expected_by_conv,
            "copies": copies}


WORKLOADS = ("kg_short", "kg_longtail", "jsonld_bnodes")


def generate(workload: str, seed: int, out_dir: str) -> dict:
    if workload == "jsonld_bnodes":
        return _jsonld_docs(seed, out_dir)
    if workload in KG_SHAPES:
        return _kg_events(workload, seed, out_dir)
    raise ValueError(f"unknown workload {workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")

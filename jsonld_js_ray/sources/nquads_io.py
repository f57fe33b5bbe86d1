"""N-Quads text source/sink for quad Datasets.

Mirrors the reference's (removed) NQuads surface (lib/NQuads.js:7) as Ray
Data stages over one codec. Reading runs the core grammar
(``core/nquads.parse``) once per ``read_text`` batch; writing builds
each line with Arrow string kernels and hands the lines to the shared
shard writer (``sources/lineio``). ``rows_to_terms``/``terms_to_rows``
convert between quad-table rows and the engine's term tuples.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..core import nquads as _nq
from ..core.constants import XSD_STRING
from ..stages.to_rdf_stage import QUAD_SCHEMA

# the N-Quads wire carries every quad column but conv_id
_WIRE_SCHEMA = QUAD_SCHEMA.remove(QUAD_SCHEMA.get_field_index("conv_id"))
_QUAD_COLUMNS = _WIRE_SCHEMA.names


def rows_to_terms(batch: pa.Table) -> list[tuple]:
    """Quad-table rows → engine term tuples."""
    cols = {c: batch[c].to_pylist() for c in _QUAD_COLUMNS}
    quads = []
    for i in range(batch.num_rows):
        subj = cols["subj"][i]
        s = ("BlankNode", subj) if subj.startswith("_:") \
            else ("NamedNode", subj)
        p = ("NamedNode", cols["pred"][i])
        kind = cols["obj_kind"][i]
        if kind == "literal":
            o = ("Literal", cols["obj_value"][i],
                 cols["obj_datatype"][i], cols["obj_lang"][i])
        elif kind == "bnode":
            o = ("BlankNode", cols["obj_value"][i])
        else:
            o = ("NamedNode", cols["obj_value"][i])
        gname = cols["graph"][i]
        if gname == "@default":
            g = ("DefaultGraph", "")
        elif gname.startswith("_:"):
            g = ("BlankNode", gname)
        else:
            g = ("NamedNode", gname)
        quads.append((s, p, o, g))
    return quads


def terms_to_rows(quads: list[tuple],
                  conv_id: str | None = None) -> pa.Table:
    """Engine term tuples → quad-table rows (inverse of rows_to_terms)."""
    data: dict[str, list] = {c: [] for c in _QUAD_COLUMNS}
    for s, p, o, g in quads:
        data["subj"].append(s[1])
        data["pred"].append(p[1])
        if o[0] == "Literal":
            data["obj_kind"].append("literal")
            data["obj_value"].append(o[1])
            data["obj_datatype"].append(o[2])
            data["obj_lang"].append(o[3])
        else:
            data["obj_kind"].append("bnode" if o[0] == "BlankNode"
                                    else "iri")
            data["obj_value"].append(o[1])
            data["obj_datatype"].append(None)
            data["obj_lang"].append(None)
        data["graph"].append("@default" if g[0] == "DefaultGraph" else g[1])
    if conv_id is None:
        return pa.table(data, schema=_WIRE_SCHEMA)
    data["conv_id"] = [conv_id] * len(data["subj"])
    return pa.table(data, schema=QUAD_SCHEMA)


def serialize_batch_rows(batch: pa.Table) -> pa.Table:
    """Quad rows → N-Quads lines, one core ``serialize_quad`` call per
    quad. Not on any production path: it is the referee that the tests
    hold ``serialize_batch`` byte-equal to."""
    lines = [_nq.serialize_quad(q).rstrip("\n")
             for q in rows_to_terms(batch)]
    return pa.table({"line": pa.array(lines, pa.large_string())})


def _join(*parts) -> pa.ChunkedArray:
    """Row-wise concatenation of large-string columns and str literals."""
    return pc.binary_join_element_wise(
        *(pa.scalar(p, pa.large_string()) if isinstance(p, str) else p
          for p in parts), pa.scalar("", pa.large_string()))


def serialize_batch(batch: pa.Table) -> pa.Table:
    """Quad rows → one N-Quads line per row, in Arrow string kernels:
    the four literal escapes as ``replace_substring`` passes (backslash
    first), terms assembled with ``if_else`` over joined pieces. Same
    term rules as ``rows_to_terms``: a ``_:`` subject or graph is a
    blank node, ``@default`` is the default graph, and an ``obj_kind``
    other than ``literal``/``bnode`` serializes as an IRI."""
    col = {c: batch[c].cast(pa.large_string()) for c in _QUAD_COLUMNS}

    def iri(c):
        return _join("<", c, ">")

    subj, value, graph = col["subj"], col["obj_value"], col["graph"]
    esc = value
    for raw, escaped in (("\\", "\\\\"), ('"', '\\"'), ("\n", "\\n"),
                         ("\r", "\\r")):
        esc = pc.replace_substring(esc, raw, escaped)
    lang = pc.fill_null(col["obj_lang"], "")
    dt = pc.fill_null(col["obj_datatype"], "")
    typed = pc.and_(pc.not_equal(dt, ""), pc.not_equal(dt, XSD_STRING))
    suffix = pc.if_else(pc.not_equal(lang, ""), _join("@", lang),
                        pc.if_else(typed, _join("^^<", dt, ">"), ""))
    kind = col["obj_kind"]
    obj = pc.if_else(pc.equal(kind, "literal"), _join('"', esc, '"', suffix),
                     pc.if_else(pc.equal(kind, "bnode"), value, iri(value)))
    gpart = pc.if_else(pc.equal(graph, "@default"), "",
                       pc.if_else(pc.starts_with(graph, "_:"),
                                  _join(" ", graph), _join(" <", graph, ">")))
    subj = pc.if_else(pc.starts_with(subj, "_:"), subj, iri(subj))
    return pa.table({"line": _join(subj, " ", iri(col["pred"]), " ", obj,
                                   gpart, " .")})


def parse_batch(batch: pa.Table) -> pa.Table:
    """``read_text`` lines → quad rows: one core ``parse`` over the
    batch's non-null lines joined by newlines. Comments and blank lines
    are dropped, duplicate quads are dropped keep-first, and a malformed
    line raises ``JsonLdError`` naming its line within the batch."""
    text = "\n".join(batch["text"].drop_null().to_pylist())
    return terms_to_rows(_nq.parse(text))


def write_nquads(quads_ds, out_dir: str,
                 inputs: list[str] | None = None):
    """Quad Dataset → directory of .nq part files via the shared
    tmp+rename shard writer (sources/lineio.py); returns the manifest
    (path, rows) as an Arrow table. Pass ``inputs=`` (the source
    files the quads derive from) to make the write resumable: a
    completed prior write of the same input fingerprint is skipped
    (lineio lineage contract)."""
    from .lineio import write_line_shards

    lines = quads_ds.map_batches(serialize_batch, batch_format="pyarrow",
                                 batch_size=65536)
    return write_line_shards(lines, out_dir, "nq", "rows", inputs=inputs)


def read_nquads(paths,
                file_extensions=("nq", "nquads",
                                 "nt")) -> "ray.data.Dataset":  # noqa: F821
    """N-Quads files → quad Dataset. By default the conventional
    N-Quads/N-Triples extensions are read and everything else — in
    particular an orphaned ``.tmp`` shard from a crashed write task —
    is skipped; pass ``file_extensions=None`` to ingest arbitrary
    file names (only safe for inputs this engine did not write)."""
    import ray.data as rd

    text = rd.read_text(
        paths,
        file_extensions=(list(file_extensions)
                         if file_extensions is not None else None))

    return text.map_batches(parse_batch, batch_format="pyarrow",
                            batch_size=65536)

"""N-Quads text source/sink for quad Datasets.

Mirrors the reference's (removed) NQuads surface (lib/NQuads.js:7) as Ray
Data stages: a regex batch parser over ``read_text`` lines and a
vectorized serializer writing partitioned ``.nq`` shards.
"""

from __future__ import annotations

import pyarrow as pa

from ..core import nquads as _nq
from ..core.constants import XSD_STRING
from ..core.errors import JsonLdError
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
    """Reference serializer: per-quad Python through the core term
    codec. Kept as the semantic referee for the vectorized path
    (tests/test_jsonld_lines.py asserts byte-equality) and as the
    shape that handles any future term kind the fast path doesn't."""
    lines = [_nq.serialize_quad(q).rstrip("\n")
             for q in rows_to_terms(batch)]
    return pa.table({"line": pa.array(lines, pa.large_string())})


def serialize_batch(batch: pa.Table) -> pa.Table:
    """Quad rows → one N-Quads line per row, VECTORIZED: pandas
    C-string kernels end-to-end (escape = four literal replace
    passes over the value column; term assembly = masked concats) —
    no per-quad Python on this corpus-scaled export path. Byte-equal
    to serialize_batch_rows (pytest-pinned on the real quad table)."""
    import numpy as np

    df = batch.select(_QUAD_COLUMNS).to_pandas()
    kinds = df["obj_kind"].to_numpy(object)
    if not np.isin(kinds, ("iri", "bnode", "literal")).all():
        # unknown term kind: defer to the core codec, the single
        # owner of that semantic, instead of guessing
        return serialize_batch_rows(batch)
    subj = df["subj"].astype(object)
    s = np.where(df["subj"].str.startswith("_:"),
                 subj, "<" + subj + ">")
    p = "<" + df["pred"].astype(object) + ">"
    kind = df["obj_kind"].to_numpy(object)
    v = df["obj_value"].astype(object)
    esc = (df["obj_value"]
           .str.replace("\\", "\\\\", regex=False)
           .str.replace('"', '\\"', regex=False)
           .str.replace("\n", "\\n", regex=False)
           .str.replace("\r", "\\r", regex=False).astype(object))
    lang = df["obj_lang"].fillna("").astype(object)
    dt = df["obj_datatype"].fillna("").astype(object)
    lit_suffix = np.where(
        lang != "", "@" + lang,
        np.where((dt != "") & (dt != XSD_STRING),
                 "^^<" + dt + ">", ""))
    o = np.where(kind == "iri", "<" + v + ">",
                 np.where(kind == "bnode", v,
                          '"' + esc + '"' + lit_suffix))
    g = df["graph"].astype(object)
    gpart = np.where(g == "@default", "",
                     np.where(df["graph"].str.startswith("_:"),
                              " " + g, " <" + g + ">"))
    lines = s + " " + p + " " + o + gpart + " ."
    return pa.table({"line": pa.array(lines, pa.large_string())})


def parse_batch_rows(batch: pa.Table) -> pa.Table:
    """Reference parser: the core grammar codec over the joined batch.
    Kept as the semantic referee for the vectorized path and as the
    fallback that owns error reporting and escape handling."""
    text = "\n".join(t for t in batch["text"].to_pylist() if t is not None)
    quads = _nq.parse(text)
    return terms_to_rows(quads)


# The core grammar (core/nquads._QUAD_RE) with terms captured WITH
# their delimiters so an unparticipating group ("" from RE2
# extract_regex) is distinguishable from a legitimately empty term
# (`<>` → "<>", `""` → '""'). RE2-compatible: no backrefs/lookarounds.


def _fast_iri(name: str) -> str:
    # ONE copy of the IRI character class for all five positions
    return rf"(?P<{name}><[^\x00-\x20<>\"{{}}|^`\\]*>)"


_FAST_BN = r"(?:_:(?:[A-Za-z0-9_]|[^\x00-\x7F])(?:[A-Za-z0-9_.\-]|[^\x00-\x7F])*)"
_FAST_QUAD_PAT = (
    r"^[ \t]*(?:" + _fast_iri("si") + r"|(?P<sb>" + _FAST_BN + r"))[ \t]+"
    + _fast_iri("pi") + r"[ \t]+"
    r"(?:" + _fast_iri("oi") + r"|(?P<ob>" + _FAST_BN + r")|"
    r'(?P<ol>"(?:[^"\\\n\r]|\\.)*")'
    r"(?:\^\^" + _fast_iri("dt")
    + r"|@(?P<lg>[a-zA-Z]+(?:-[a-zA-Z0-9]+)*))?)"
    r"(?:[ \t]+(?:" + _fast_iri("gi") + r"|(?P<gb>" + _FAST_BN + r")))?"
    r"[ \t]*\.[ \t]*$"
)
_RDF_LANGSTRING = \
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"


def parse_batch(batch: pa.Table) -> pa.Table:
    """read_text lines → quad rows (comments / blank lines dropped).

    VECTORIZED fast path: one RE2 ``extract_regex`` pass over the
    escape-free lines (backslash-free means unescaping is the
    identity) plus masked column assembly — no per-line Python on the
    common shape. Lines that DO contain a backslash are parsed
    individually through the core codec and spliced back at their
    original positions, so a sparse escaped literal costs per-line
    Python only for itself, not for its whole 65k-line batch. A
    fast-path line that fails the grammar (malformed, or a trailing
    comment the fast pattern deliberately omits) falls back wholesale
    to the core codec, which owns error reporting. Within-batch
    duplicate quads are dropped keep-first, exactly like the
    joined-text core parse. Byte-parity with the core codec is
    pytest-pinned on the real corpus and on crafted edge cases."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    lines = batch["text"].combine_chunks() \
        if isinstance(batch["text"], pa.ChunkedArray) else batch["text"]
    if lines.null_count:
        lines = lines.drop_null()
    n = len(lines)
    if n == 0:
        return terms_to_rows([])
    blank = pc.match_substring_regex(lines, r"^[ \t]*(?:#.*)?$")
    work = lines.filter(pc.invert(blank))
    if len(work) == 0:
        return terms_to_rows([])
    esc_mask = pc.match_substring(work, "\\").to_numpy(
        zero_copy_only=False)
    fast_lines = work.filter(pa.array(~esc_mask))
    slow_rows: list[pa.Table] = []
    if esc_mask.any():
        slow_pos = np.nonzero(esc_mask)[0]
        for p in slow_pos:
            # one quad per line; a malformed escaped line falls back
            # to the joined core parse so the error carries the real
            # batch-relative line number instead of "line 1"
            try:
                q = _nq.parse(work[int(p)].as_py())
            except JsonLdError:
                return parse_batch_rows(batch)
            slow_rows.append(
                terms_to_rows(q).append_column(
                    "_pos", pa.array([int(p)], pa.int64())))
    if len(fast_lines) == 0:
        out = pa.concat_tables(slow_rows).to_pandas() \
            .sort_values("_pos").drop(columns="_pos") \
            .drop_duplicates(keep="first")
        return _quad_rows_table(out)
    ex = pc.extract_regex(fast_lines, _FAST_QUAD_PAT)
    if ex.null_count:
        # a malformed line (or one with a trailing comment, which the
        # fast pattern deliberately omits): let the core codec parse
        # and report it
        return parse_batch_rows(batch)

    df = {f: ex.field(f).to_numpy(zero_copy_only=False).astype(object)
          for f in ("si", "sb", "pi", "oi", "ob", "ol", "dt", "lg",
                    "gi", "gb")}

    def inner(v):  # strip the captured <...> / "..." delimiters
        # vectorized C slice; "" (unparticipating group) stays ""
        return pd.Series(v, dtype=object).str.slice(1, -1) \
            .to_numpy(object)

    si, oi, dt, gi = (inner(df[k]) for k in ("si", "oi", "dt", "gi"))
    pred = inner(df["pi"])
    subj = np.where(df["si"] != "", si, df["sb"])
    is_oi = df["oi"] != ""
    is_ob = df["ob"] != ""
    kind = np.where(is_oi, "iri", np.where(is_ob, "bnode", "literal"))
    lit_val = inner(df["ol"])
    obj_value = np.where(is_oi, oi, np.where(is_ob, df["ob"], lit_val))
    has_dt = df["dt"] != ""
    has_lg = df["lg"] != ""
    obj_datatype = np.where(
        kind != "literal", None,
        np.where(has_dt, dt,
                 np.where(has_lg, _RDF_LANGSTRING, XSD_STRING)))
    obj_lang = np.where(has_lg, df["lg"], None)
    obj_lang = np.where(kind == "literal", obj_lang, None)
    graph = np.where(df["gi"] != "", gi,
                     np.where(df["gb"] != "", df["gb"], "@default"))

    fast = pd.DataFrame({
        "subj": subj, "pred": pred, "obj_kind": kind,
        "obj_value": obj_value, "obj_datatype": obj_datatype,
        "obj_lang": obj_lang, "graph": graph,
    })
    if slow_rows:
        # splice the escaped lines' quads back at their original
        # positions before the keep-first dedup
        pos = np.arange(len(work))
        fast["_pos"] = pos[~esc_mask]
        out = pd.concat(
            [fast] + [t.to_pandas() for t in slow_rows],
            ignore_index=True).sort_values("_pos") \
            .drop(columns="_pos")
    else:
        out = fast
    out = out.drop_duplicates(keep="first")
    return _quad_rows_table(out)


def _quad_rows_table(out) -> pa.Table:
    return pa.table({c: out[c] for c in _QUAD_COLUMNS}, schema=_WIRE_SCHEMA)


def write_nquads(quads_ds, out_dir: str,
                 inputs: list[str] | None = None):
    """Quad Dataset → directory of .nq part files via the shared
    tmp+rename shard writer (sources/lineio.py); manifest (path,
    rows) returned as a pandas DataFrame. Pass ``inputs=`` (the source
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

    def to_rows(batch: pa.Table) -> pa.Table:
        return parse_batch(batch)

    return text.map_batches(to_rows, batch_format="pyarrow",
                            batch_size=65536)

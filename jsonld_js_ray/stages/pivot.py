"""Quad-stream → wide node property table (the KG "entity export").

A KG-construction pipeline's last mile is usually relational again:
pivot the (subj, pred, obj) triple stream into one row per node with
a column per selected predicate, so downstream consumers (feature
joins, training-data filters) read a plain table instead of walking
triples. The reference produces the same shape via frame/compact over
the node map (jsonld.js lib/frame.js + lib/compact.js — one node
object per subject with its properties inlined); here it is a single
bucketed exchange over the quad Dataset.

Contract (SQL-mirrored, see ``property_table_sql``): for every
subject holding at least one selected predicate, emit the MIN
obj_value per predicate (min = deterministic pick under duplicate
assertions, matching SQL ``min(CASE WHEN ...)`` VARCHAR semantics);
predicates the subject lacks are NULL.

Scale shape: rows are pre-filtered to the selected predicates at the
batch level (the shuffle carries only pivotable triples), keyed by
hash(subj) so each subject's triples co-locate once; the in-bucket
kernel is one lexsort + run-start gather per predicate — no per-row
Python. Output rows = distinct subjects; never materialized on the
driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .assemble import CONV_VOCAB
from .entity_merge import _hashed_strings
from .groupkit import run_starts

PIVOT_BUCKETS = 64

# the turn-node export: (column name → predicate IRI)
TURN_PROPS = {
    "role": f"{CONV_VOCAB}role",
    "tool": f"{CONV_VOCAB}tool",
    "position": f"{CONV_VOCAB}position",
    "part_of": f"{CONV_VOCAB}partOf",
}


def property_table(quads, props: dict[str, str] | None = None):
    """quad table → (node, <one column per selected predicate>):
    min obj_value per (subject, predicate), NULL where absent."""
    props = dict(props or TURN_PROPS)
    wanted = pa.array(list(props.values()), pa.string())

    def prep(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_in(batch["pred"], value_set=wanted))
        subj = np.asarray(t["subj"].to_pylist(), dtype=object)
        return pa.table({
            "subj": pa.array(subj, pa.string()),
            "pred": t["pred"],
            "val": t["obj_value"],
            "bucket": pa.array(
                (_hashed_strings(list(subj))
                 % np.uint64(PIVOT_BUCKETS)).astype(np.int32)),
        })

    def pivot_in_bucket(g) -> pa.Table:
        subj = g["subj"].to_numpy()
        pred = g["pred"].to_numpy()
        val = g["val"].to_numpy()
        uniq = np.unique(subj)
        cols = {"node": pa.array(uniq, pa.string())}
        for name, piri in props.items():
            m = pred == piri
            ss, vv = subj[m], val[m]
            order = np.lexsort((vv, ss))
            ss, vv = ss[order], vv[order]
            starts = run_starts(ss)          # min val = first of run
            out = np.full(len(uniq), None, object)
            out[np.searchsorted(uniq, ss[starts])] = vv[starts]
            cols[name] = pa.array(out, pa.string())
        return pa.table(cols)

    return quads.map_batches(prep, batch_format="pyarrow") \
        .groupby("bucket").map_groups(pivot_in_bucket,
                                      batch_format="pandas")


def property_table_sql(quads_sql: str,
                       props: dict[str, str] | None = None) -> str:
    props = dict(props or TURN_PROPS)
    cases = ",\n       ".join(
        f"min(CASE WHEN pred = '{piri}' THEN obj_value END) AS {name}"
        for name, piri in props.items())
    in_list = ", ".join(f"'{p}'" for p in props.values())
    return f"""
WITH q AS ({quads_sql})
SELECT subj AS node,
       {cases}
FROM q WHERE pred IN ({in_list})
GROUP BY subj
"""


def property_unpivot(quads, props: dict[str, str] | None = None):
    """The pivot's inverse (UNPIVOT / melt): the wide node table back
    to long (node, pred, val) rows, NULL cells dropped — i.e. the
    min-deduplicated selected-predicate triple set. Pure 1→N flat map
    over the wide rows (no extra exchange past the pivot's one);
    round-trip contract: unpivot(pivot(q)) equals q filtered to the
    selected predicates with min-per-(subj, pred) dedup, which is
    exactly the SQL mirror."""
    props = dict(props or TURN_PROPS)
    wide = property_table(quads, props)

    def melt(batch: pa.Table) -> pa.Table:
        nodes, preds, vals = [], [], []
        node = batch["node"].to_numpy(zero_copy_only=False)
        for name, piri in props.items():
            col = batch[name]
            valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
            nodes.append(node[valid])
            preds.append(np.full(int(valid.sum()), piri, object))
            vals.append(col.to_numpy(zero_copy_only=False)[valid])
        return pa.table({
            "node": pa.array(np.concatenate(nodes), pa.string()),
            "pred": pa.array(np.concatenate(preds), pa.string()),
            "val": pa.array(np.concatenate(vals), pa.string()),
        })

    return wide.map_batches(melt, batch_format="pyarrow")


def property_unpivot_sql(quads_sql: str,
                         props: dict[str, str] | None = None) -> str:
    props = dict(props or TURN_PROPS)
    in_list = ", ".join(f"'{p}'" for p in props.values())
    return f"""
WITH q AS ({quads_sql})
SELECT subj AS node, pred, min(obj_value) AS val
FROM q WHERE pred IN ({in_list})
GROUP BY subj, pred
"""

"""Output checks. None of them runs the engine's JSON-LD code.

* ``KgOracle``: DuckDB evaluates ``pipelines.oracle.KG_QUADS_ORACLE_SQL``
  over the generated events; the engine's sink must hold the same quad
  multiset, and its lineage manifests must account for every shard and
  every quad.
* ``BnodesOracle``: the generator's own expected quads, compared per
  document up to blank-node naming (colour refinement), plus the label
  format ``_:{fp}-c14nN`` and the invariance of renamed copies.

Each ``check`` returns a list of failure strings; empty means correct.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from collections import Counter, defaultdict

QUAD_COLS = ("subj", "pred", "obj_kind", "obj_value", "obj_datatype",
             "obj_lang", "graph", "conv_id")


def _sql_str(s: str) -> str:
    return "'" + s.replace("'", "''") + "'"


def _digest_sql(relation: str) -> str:
    """Order-independent multiset digest: row count and sum of row hashes."""
    return (f"SELECT count(*), coalesce(sum(hash({', '.join(QUAD_COLS)})), 0)"
            f" FROM {relation}")


class KgOracle:
    def __init__(self, files: list[str]) -> None:
        import duckdb

        from jsonld_js_ray.pipelines.oracle import KG_QUADS_ORACLE_SQL

        self.files = files
        self.con = duckdb.connect()
        listed = ", ".join(_sql_str(f) for f in files)
        self.con.execute(
            f"CREATE VIEW events AS SELECT * FROM read_parquet([{listed}])")
        self.expected = self.con.execute(
            _digest_sql(f"({KG_QUADS_ORACLE_SQL})")).fetchone()

    @property
    def quads(self) -> int:
        return self.expected[0]

    def check(self, out_dir: str, first: dict, resumed: dict) -> list[str]:
        bad = []
        n = len(self.files)
        parts = os.path.join(out_dir, "shard=*", "*.parquet")
        if not glob.glob(parts):
            return [f"no quad files under {out_dir}"]
        got = self.con.execute(_digest_sql(
            f"read_parquet({_sql_str(parts)}, hive_partitioning=false)"
        )).fetchone()
        if tuple(got) != tuple(self.expected):
            bad.append(f"quads differ from the oracle: (count, hash) "
                       f"{tuple(got)} != {tuple(self.expected)}")
        manifest_total = 0
        for shard, path in enumerate(self.files):
            mpath = os.path.join(out_dir, "_manifest",
                                 f"shard-{shard:05d}.json")
            try:
                with open(mpath) as f:
                    rec = json.load(f)
            except (OSError, json.JSONDecodeError) as e:
                bad.append(f"shard {shard}: no readable manifest ({e})")
                continue
            data = os.path.join(out_dir, f"shard={shard:05d}", "*.parquet")
            rows, lo, hi = self.con.execute(
                f"SELECT count(*), min(part_id), max(part_id) FROM "
                f"read_parquet({_sql_str(data)}, hive_partitioning=false)"
            ).fetchone()
            if rec.get("inputs") != [path]:
                bad.append(f"shard {shard}: manifest inputs {rec.get('inputs')}")
            if rec.get("quads") != rows:
                bad.append(f"shard {shard}: manifest says {rec.get('quads')} "
                           f"quads, files hold {rows}")
            if rows and (lo, hi) != (shard, shard):
                bad.append(f"shard {shard}: part_id range {(lo, hi)}")
            manifest_total += rec.get("quads") or 0
        extra = len(glob.glob(os.path.join(out_dir, "_manifest", "*.json")))
        if extra != n:
            bad.append(f"{extra} manifests for {n} shards")
        if manifest_total != self.quads:
            bad.append(f"manifests account for {manifest_total} quads, "
                       f"oracle has {self.quads}")
        if first.get("quads") != self.quads:
            bad.append(f"run reported {first.get('quads')} quads")
        if resumed.get("shards_skipped") != n or resumed.get("quads"):
            bad.append(f"resume did not skip every shard: {resumed}")
        return bad


def wl_signature(rows) -> Counter:
    """Quad multiset with every blank node replaced by its colour after
    refinement to a stable partition. Isomorphic graphs get equal
    signatures; a dropped, added or altered quad changes it."""
    rows = [tuple(r) for r in rows]
    bnodes = {r[0] for r in rows if r[0].startswith("_:")}
    bnodes |= {r[3] for r in rows if r[2] == "bnode"}
    colour = dict.fromkeys(bnodes, "")
    classes = 1
    for _ in range(len(bnodes)):
        sig: dict[str, list[str]] = {b: [] for b in bnodes}
        for s, p, k, v, dt, lang, g in rows:
            subj = colour.get(s, s)
            if k == "bnode":
                sig[v].append(f"in|{p}|{subj}|{g}")
                obj = "b:" + colour[v]
            else:
                obj = f"{k}|{v}|{dt}|{lang}"
            if s in colour:
                sig[s].append(f"out|{p}|{obj}|{g}")
        colour = {b: hashlib.sha1(
            (colour[b] + "#" + "\n".join(sorted(sig[b]))).encode()
        ).hexdigest()[:20] for b in bnodes}
        refined = len(set(colour.values()))
        if refined == classes:
            break
        classes = refined
    return Counter((colour.get(s, s), p, k,
                    colour[v] if k == "bnode" else v, dt, lang, g)
                   for s, p, k, v, dt, lang, g in rows)


def _fingerprint(conv_id: str) -> str:
    return hashlib.sha1(conv_id.encode("utf-8")).hexdigest()[:10]


class BnodesOracle:
    def __init__(self, spec: dict) -> None:
        import duckdb

        self.con = duckdb.connect()
        self.verified = None       # digest of an output that passed
        self.copies = spec["copies"]
        self.expected = {}
        self.n_bnodes = {}
        for cid, quads in spec["expected"].items():
            rows = [q + ("@default",) for q in quads]
            self.expected[cid] = wl_signature(rows)
            self.n_bnodes[cid] = len(
                {r[0] for r in rows if r[0].startswith("_:")} |
                {r[3] for r in rows if r[2] == "bnode"})
        self.quads = sum(len(q) for q in spec["expected"].values())

    def check(self, table) -> list[str]:
        """Full check, skipped for an output identical (by digest) to
        one that already passed: canonical output is deterministic."""
        self.con.register("quads", table)
        digest = self.con.execute(_digest_sql("quads")).fetchone()
        self.con.unregister("quads")
        if digest == self.verified:
            return []
        bad = self._check(table)
        if not bad:
            self.verified = digest
        return bad

    def _check(self, table) -> list[str]:
        cols = [table[c].to_pylist() for c in QUAD_COLS]
        by_conv: dict[str, list[tuple]] = defaultdict(list)
        for row in zip(*cols):
            by_conv[row[7]].append(row[:7])
        bad = []
        missing = self.expected.keys() - by_conv.keys()
        extra = by_conv.keys() - self.expected.keys()
        if missing or extra:
            bad.append(f"{len(missing)} documents missing, "
                       f"{len(extra)} unexpected")
        stripped = {}
        for cid in sorted(self.expected.keys() & by_conv.keys()):
            rows = by_conv[cid]
            if wl_signature(rows) != self.expected[cid]:
                bad.append(f"{cid}: quads differ from the generator's "
                           f"up to blank-node naming")
            prefix = f"_:{_fingerprint(cid)}-"
            labels = {r[0] for r in rows if r[0].startswith("_:")} | \
                {r[3] for r in rows if r[2] == "bnode"}
            want = {f"{prefix}c14n{i}" for i in range(self.n_bnodes[cid])}
            if labels != want:
                bad.append(f"{cid}: labels {sorted(labels)[:3]} are not "
                           f"{prefix}c14n0..{self.n_bnodes[cid] - 1}")
            if cid in self.copies or cid in self.copies.values():
                stripped[cid] = {tuple(
                    x.replace(prefix, "_:", 1) if isinstance(x, str) and
                    x.startswith(prefix) else x for x in r) for r in rows}
        for copy, orig in self.copies.items():
            if copy in stripped and orig in stripped and \
                    stripped[copy] != stripped[orig]:
                bad.append(f"{copy}: renamed copy of {orig} has other "
                           f"canonical quads")
        return bad

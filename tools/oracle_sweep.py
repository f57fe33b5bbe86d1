"""Full oracle sweep: run EVERY ``queries()`` entry and its
``oracle_sql()`` twin side-by-side over one sf directory and record
per-query rows / schema / value-hash agreement.

This is the committed, mechanical form of the closing gate BASELINE.md
used to describe in prose (VERDICT r4 task #8): the driver's
CORRECTNESS_r{N}.json samples ~50 of the registered queries; this tool
covers all of them so the judge can verify the rest.

Usage:
    python tools/oracle_sweep.py [--sf-dir /root/testdata/sf0.01]
        [--out SWEEP_r05.json] [--only q1,q2,...]

Comparison mirrors the driver: columns sorted by name, rows sorted by
all columns, values canonicalized (floats rounded to 10 significant
digits) and md5-hashed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))


def _to_pandas(res):
    import pandas as pd
    import pyarrow as pa

    try:
        import ray.data as rd
        if isinstance(res, rd.Dataset):
            return res.to_pandas()
    except ImportError:
        pass
    if isinstance(res, pa.Table):
        return res.to_pandas()
    if isinstance(res, pd.DataFrame):
        return res
    raise TypeError(f"unexpected result type {type(res)}")


def _canon(df):
    """Columns sorted by name, rows sorted by every column — the
    driver-shaped canonical form. Floats are canonicalized at hash
    time by the CSV writer's ``%.10g`` (10 significant digits), and
    float columns are cast to float64 here so engine/oracle dtype
    width differences can't change the formatting."""
    import pandas as pd

    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        s = df[c]
        if pd.api.types.is_float_dtype(s):
            df[c] = s.astype("float64")
        elif pd.api.types.is_bool_dtype(s) or s.dtype == object:
            # normalize arrow-backed bools/None for stable repr
            df[c] = s.map(lambda v: None if v is None or v is pd.NA
                          else v)
    if len(df):
        df = df.sort_values(by=list(df.columns), kind="mergesort") \
            .reset_index(drop=True)
    return df


def _value_hash(df) -> str:
    import pandas as pd

    buf = df.to_csv(index=False, float_format="%.10g").encode()
    return hashlib.md5(buf).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    ap.add_argument("--out", default=None)
    ap.add_argument("--only", default=None)
    args = ap.parse_args()

    import logging

    import duckdb
    import ray

    logging.getLogger("ray.data").setLevel(logging.WARNING)
    logging.getLogger("ray").setLevel(logging.WARNING)
    # the CPUs this process may run on, not the machine's count: a
    # larger num_cpus oversubscribes the box and the walls mean little
    num_cpus = len(os.sched_getaffinity(0))
    loadavg = [round(x, 2) for x in os.getloadavg()]   # before the sweep
    print(f"num_cpus={num_cpus} loadavg={loadavg}", flush=True)
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 ignore_reinit_error=True)

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    only = set(args.only.split(",")) if args.only else None
    if only:
        unknown = only - set(qs)
        if unknown:
            # a typo must not make the gate false-pass with 0 queries
            print(f"unknown query names in --only: {sorted(unknown)}",
                  file=sys.stderr)
            return 2

    from jsonld_js_ray.rayutil import event_files

    # the events the engine reads: one file or an events/ directory
    con = duckdb.connect()
    con.execute("CREATE VIEW events AS SELECT * FROM read_parquet("
                f"{event_files(args.sf_dir)!r})")

    results = {}
    n_pass = n_noor = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        rec: dict = {}
        t0 = time.time()
        try:
            got = _canon(_to_pandas(fn(args.sf_dir)))
            rec["rows"] = int(len(got))
            rec["wall_sec"] = round(time.time() - t0, 3)
            sql = oracles.get(name)
            if sql is None:
                rec["status"] = "no_oracle"
                n_noor += 1
            else:
                exp = _canon(con.execute(sql).fetchdf())
                rec["oracle_rows"] = int(len(exp))
                rows_ok = len(got) == len(exp)
                schema_ok = list(got.columns) == list(exp.columns)
                hash_ok = False
                if rows_ok and schema_ok:
                    hash_ok = _value_hash(got) == _value_hash(exp)
                rec["rows_match"] = rows_ok
                rec["schema_match"] = schema_ok
                rec["hash_match"] = hash_ok
                if rows_ok and schema_ok and hash_ok:
                    rec["status"] = "pass"
                    n_pass += 1
                else:
                    rec["status"] = "FAIL"
                    n_fail += 1
                    rec["got_cols"] = list(got.columns)
                    rec["exp_cols"] = list(exp.columns)
        except Exception as e:                        # noqa: BLE001
            rec["status"] = "ERROR"
            rec["error"] = f"{type(e).__name__}: {e}"
            rec["traceback"] = traceback.format_exc()[-2000:]
            n_fail += 1
        results[name] = rec
        print(f"{rec.get('status', '?'):>9}  {name}  "
              f"rows={rec.get('rows')}  {rec.get('wall_sec', '')}",
              flush=True)

    summary = {
        "sf_dir": args.sf_dir,
        "num_cpus": num_cpus,
        "loadavg": loadavg,
        "n_queries": len(results),
        "n_pass": n_pass,
        "n_no_oracle": n_noor,
        "n_fail": n_fail,
        "queries": results,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1))
        print(f"wrote {args.out}")
    print(f"TOTAL {len(results)}: {n_pass} pass, {n_noor} no_oracle, "
          f"{n_fail} fail")
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())

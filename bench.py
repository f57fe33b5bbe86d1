"""Benchmark harness (driver contract).

Default: time the headline pipeline and the registered queries on
$GRAFT_SF_DIR (default sf0.1) with ray.init(num_cpus=$RAY_GRAFT_CPUS,
default os.cpu_count()). The full record, with every query's wall
time, goes to RECORD_PATH; the last stdout line is a compact JSON
object: the headline figures plus the record's path.

--scaling: run the headline pipeline in fresh subprocesses at TWO
cpu pairs on the same replicated input — the criterion pair
$GRAFT_SCALING_LO→$GRAFT_SCALING_HI (default 4→16, the linear region)
and a second $GRAFT_SCALING_LO2→$GRAFT_SCALING_HI2 (default 8→32,
which crosses the single-box memory-bandwidth ceiling) — and report
throughputs plus scaling efficiency = T(LO)/T(HI)/(HI/LO) per pair;
the sandbox stand-in for the N vs 4N cluster-size rule; see
BASELINE.md.

Headline timing: after a warm-up pass (Ray worker processes + package
import + operator compilation — startup, not throughput), kg_quads is
timed $GRAFT_HEADLINE_REPS times (default 3) and the MEDIAN is reported
(box variance is +/-20-40%; all runs are included as kg_quads_runs).
Scaling subprocesses use 1 rep (the 100+ s runs amortize constants).
"""

from __future__ import annotations

import json
from typing import Any
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count() or 1))
RECORD_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "bench_record.json")
HEADLINE_KEYS = ("metric", "value", "unit", "quads", "turns",
                 "triples_per_sec", "turns_per_sec", "kg_quads_runs",
                 "num_cpus", "sf")


def _warm_cache(sf_dir: str) -> None:
    path = f"{sf_dir}/events.parquet"
    if os.path.exists(path):
        with open(path, "rb") as f:
            while f.read(1 << 24):
                pass


def run_bench() -> dict:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    import __ray_entry__ as _entry0
    from jsonld_js_ray.pipelines.kg import build_quads
    from jsonld_js_ray.sources.transcripts import read_transcripts

    _warm_cache(SF_DIR)
    # Warm-up before timing (startup is not throughput): a trivial job
    # spawns the worker processes, then one tiny REAL pipeline run pays
    # the per-worker package import and the operator-compilation cost.
    import ray.data as rd
    rd.range(10_000).map_batches(lambda b: b).count()
    warm_dir = "/root/testdata/sf0.001"
    if os.path.isdir(warm_dir):
        build_quads(warm_dir).count()

    queries: dict[str, float] = {}
    extras: dict[str, Any] = {}

    # headline: flagship transcripts → canonical RDF quads.
    # Median of GRAFT_HEADLINE_REPS runs (box variance is +/-20-40% at
    # sf0.1 where the job is ~1.5 s; the scaling path uses 1 rep).
    reps = max(1, int(os.environ.get("GRAFT_HEADLINE_REPS", "3")))
    runs: list[float] = []
    for _ in range(reps):
        t0 = time.perf_counter()
        n_quads = build_quads(SF_DIR).count()
        runs.append(time.perf_counter() - t0)
    headline = sorted(runs)[len(runs) // 2]
    queries["kg_quads"] = round(headline, 3)
    if reps > 1:
        extras["kg_quads_runs"] = [round(r, 3) for r in runs]

    if os.environ.get("GRAFT_HEADLINE_ONLY"):
        ray.shutdown()
        return {
            "metric": "kg_quads pipeline wall time",
            "value": round(headline, 3), "unit": "sec",
            "queries": queries, "sf": SF_DIR, "num_cpus": NUM_CPUS,
            "quads": n_quads,
            "triples_per_sec": round(n_quads / headline, 1),
            **extras,
        }

    t0 = time.perf_counter()
    n_turns = read_transcripts(SF_DIR).count()
    queries["transcripts"] = round(time.perf_counter() - t0, 3)

    t0 = time.perf_counter()
    build_quads(SF_DIR, entity_mapping={}).count()
    queries["kg_quads_with_mentions"] = round(time.perf_counter() - t0, 3)

    # flagship pipeline over the reference's native document format:
    # assemble → write sharded JSON-LD lines → read back → ToRdf
    import shutil as _sh

    t0 = time.perf_counter()
    _entry0.queries()["kg_quads_jsonl"](SF_DIR).count()
    queries["kg_quads_jsonl"] = round(time.perf_counter() - t0, 3)
    # the connector queries mkdtemp per invocation (no fixed path to
    # race on) and record their paths in SCRATCH_DIRS; the count above
    # fully consumed the lazy read, so exactly THOSE dirs are reclaimed
    # here (a /tmp glob could delete a concurrent process's live
    # scratch, and would miss dirs when TMPDIR is not /tmp)
    for d in _entry0.SCRATCH_DIRS:
        _sh.rmtree(d, ignore_errors=True)
    _entry0.SCRATCH_DIRS.clear()

    for name in ("kg_entities", "kg_entities_canonical"):
        t0 = time.perf_counter()
        _entry0.queries()[name](SF_DIR).count()
        queries[name] = round(time.perf_counter() - t0, 3)

    # full north-star run incl. entity canonicalization + sharded sink
    import shutil as _shutil

    from jsonld_js_ray.pipelines.kg import run_full_kg_pipeline
    out_dir = "/tmp/bench_kg_full"
    _shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    full_metrics = run_full_kg_pipeline(SF_DIR, out_dir)
    queries["kg_full_write"] = round(time.perf_counter() - t0, 3)
    extras["kg_full_quads"] = full_metrics["quads"]

    from jsonld_js_ray.pipelines.kg import conv_entity_mentions

    t0 = time.perf_counter()
    conv_entity_mentions(SF_DIR).count()
    queries["kg_conv_entity_mentions"] = round(time.perf_counter() - t0, 3)

    extras["quads"] = n_quads
    extras["turns"] = n_turns
    extras["triples_per_sec"] = round(n_quads / headline, 1)
    extras["turns_per_sec"] = round(n_turns / headline, 1)

    ray.shutdown()
    record = {
        "metric": "kg_quads pipeline wall time (events->transcripts->"
                  "JSON-LD->expand->toRDF->URDNA2015 quads)",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        **extras,
    }
    with open(RECORD_PATH, "w") as f:
        json.dump(record, f, indent=1)
    return {**{k: record[k] for k in HEADLINE_KEYS if k in record},
            "record": RECORD_PATH}


SCALING_COPIES = int(os.environ.get("GRAFT_SCALING_COPIES", "32"))
SCALING_LO = int(os.environ.get("GRAFT_SCALING_LO", "4"))
SCALING_HI = int(os.environ.get("GRAFT_SCALING_HI", "16"))
SCALING_LO2 = int(os.environ.get("GRAFT_SCALING_LO2", "8"))
SCALING_HI2 = int(os.environ.get("GRAFT_SCALING_HI2", "32"))


def _build_scaling_input() -> str:
    """Replicate the sf0.1 events table SCALING_COPIES× (conv ids
    shifted per copy, identical rows otherwise) into /tmp.

    The scaling criterion compares the SAME job on the SAME input at two
    parallelism levels; sf0.1 alone finishes in ~3 s, so constant
    scheduling overhead (~1.5 s) floors the ratio. Replication restores
    enough work to measure compute/shuffle scaling rather than the
    constant term — a sandbox stand-in for the 100 TB regime where per-
    run constants are negligible. Deterministic: derived only from the
    provided input."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    src_path = os.path.join(SF_DIR, "events.parquet")
    st = os.stat(src_path)
    src_key = (f"{os.path.basename(os.path.normpath(SF_DIR))}-"
               f"{st.st_size}-{int(st.st_mtime)}")
    out_dir = f"/tmp/graft_scaling_input_{src_key}_x{SCALING_COPIES}"
    events_dir = os.path.join(out_dir, "events")
    marker = os.path.join(out_dir, "_COMPLETE")
    if os.path.exists(marker):
        return out_dir
    os.makedirs(events_dir, exist_ok=True)
    src = pq.read_table(src_path)
    n = src.num_rows
    for copy in range(SCALING_COPIES):
        shifted = src.set_column(
            src.schema.get_field_index("user_id"), "user_id",
            pa.compute.add(src["user_id"], copy * 10_000_000))
        shifted = shifted.set_column(
            src.schema.get_field_index("event_id"), "event_id",
            pa.compute.add(src["event_id"], copy * 100_000_000))
        pq.write_table(shifted,
                       os.path.join(events_dir, f"copy-{copy:02d}.parquet"))
    with open(marker, "w") as f:
        f.write(str(n * SCALING_COPIES))
    return out_dir


def run_scaling() -> dict:
    scaled_dir = _build_scaling_input()

    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_SF_DIR=scaled_dir, GRAFT_HEADLINE_ONLY="1",
                   GRAFT_HEADLINE_REPS="1")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)], env=env,
            capture_output=True, text=True, check=True, timeout=3600,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    def pair(lo_n: int, hi_n: int) -> dict:
        lo, hi = run(lo_n), run(hi_n)
        t_lo, t_hi = lo["value"], hi["value"]
        return {
            "num_cpus_lo": lo_n, "num_cpus_hi": hi_n,
            "sec_lo": t_lo, "sec_hi": t_hi,
            "triples_per_sec_lo": lo.get("triples_per_sec"),
            "triples_per_sec_hi": hi.get("triples_per_sec"),
            "scaling_efficiency": round((t_lo / t_hi) / (hi_n / lo_n),
                                        3),
        }

    # primary criterion pair (N vs 4N in the linear region) plus a
    # second 8→32 datapoint so the record carries the full curve: on
    # ONE box the 16→32 half of the upper pair runs into the
    # single-node memory-bandwidth ceiling (measured r2: 16→32 gains
    # only ~1.13×), which a real multi-node cluster does not share —
    # every node brings its own memory channels
    primary = pair(SCALING_LO, SCALING_HI)
    second = pair(SCALING_LO2, SCALING_HI2)
    return {
        "metric": "scaling efficiency kg_quads",
        "sf": SF_DIR,
        **primary,
        "pairs": [primary, second],
        "bandwidth_note": (
            "4->16 is the linear region the cluster-size criterion "
            "measures; the 8->32 pair crosses the single-box memory-"
            "bandwidth ceiling above ~16 cpus (16->32 gains ~1.13x on "
            "this node), which multi-node clusters do not share"),
        "scaling_efficiency": primary["scaling_efficiency"],
        "value": primary["scaling_efficiency"],
        "unit": "efficiency",
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))

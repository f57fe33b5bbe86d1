"""Self-test of the benchmark's generators and output checks.

    python3 kgbench/selftest.py

* Each check accepts the engine's output and rejects it when one quad
  is dropped or altered (plus a label-only and a copy-only mutation for
  the two extra ``jsonld_bnodes`` checks).
* A seed writes byte-identical files; another seed writes different
  bytes with the same size distribution.
* Known defect: ``pipelines.kg.build_entity_mapping`` does not finish
  on a small input with one CPU. The test expects the hang; if the call
  finishes within the deadline it fails, so that the fix gets noticed
  and ``stages.linker`` gets a workload (see NOTES.md).

Exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import filecmp
import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(1, ROOT)

import box  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402

ENTITY_DEADLINE_S = 60


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        raise SystemExit(1)


def _files(d: str) -> list[str]:
    return sorted(glob.glob(os.path.join(d, "*", "*.*")))


def _size_profile(workload: str, spec: dict):
    """What must not depend on the seed: rows per shard, turns per
    conversation and text lengths for kg_*; lines per shard and quads
    per document for jsonld_bnodes."""
    if workload == "jsonld_bnodes":
        lines = []
        for path in spec["files"]:
            with open(path, encoding="utf-8") as f:
                lines.append(sum(1 for _ in f))
        return lines, sorted(Counter(
            len(q) for q in spec["expected"].values()).items())
    import pyarrow.parquet as pq

    out = []
    for f in spec["files"]:
        t = pq.read_table(f).to_pydict()
        out.append((len(t["event_id"]),
                    sorted(Counter(t["user_id"]).values()),
                    sorted(Counter(len(p) for p in t["props"]).items())))
    return out


def test_generators(tmp: str) -> None:
    for w in gen.WORKLOADS:
        a = gen.generate(w, 7, os.path.join(tmp, w, "a"))
        b = gen.generate(w, 7, os.path.join(tmp, w, "b"))
        c = gen.generate(w, 8, os.path.join(tmp, w, "c"))
        fa, fb, fc = (_files(os.path.join(tmp, w, x)) for x in "abc")
        expect(len(fa) == len(fb) and all(
            filecmp.cmp(x, y, shallow=False) for x, y in zip(fa, fb)),
            f"{w}: the same seed writes byte-identical files")
        expect(not any(filecmp.cmp(x, y, shallow=False)
                       for x, y in zip(fa, fc)),
               f"{w}: another seed writes different bytes")
        expect(_size_profile(w, a) == _size_profile(w, c),
               f"{w}: ... with the same size distribution")


def _mutate(table, column: str, row: int, value):
    import pyarrow as pa

    i = table.schema.get_field_index(column)
    values = table[column].to_pylist()
    values[row] = value
    return table.set_column(i, column, pa.array(values,
                                                table.schema.field(i).type))


def test_kg_check(tmp: str) -> None:
    import pyarrow.parquet as pq

    from jsonld_js_ray.pipelines.kg import run_kg_pipeline

    spec = gen.generate("kg_short", 3, os.path.join(tmp, "kg"))
    check = oracle.KgOracle(spec["files"])
    out = os.path.join(tmp, "kg-out")
    first = run_kg_pipeline(spec["sf_dir"], out)
    resumed = run_kg_pipeline(spec["sf_dir"], out)
    expect(check.check(out, first, resumed) == [],
           "kg: the oracle accepts the engine's output")
    expect(check.check(out, first, first) != [],
           "kg: ... and rejects a resume that re-ran shards")
    part = sorted(glob.glob(os.path.join(out, "shard=00002", "*.parquet")))[0]
    original = pq.read_table(part)
    for name, table in (
            ("dropped", original.slice(1)),
            ("altered", _mutate(original, "obj_value", 0,
                                original["obj_value"][0].as_py() + "x"))):
        pq.write_table(table, part)
        expect(check.check(out, first, resumed) != [],
               f"kg: ... and rejects it with one quad {name}")
    pq.write_table(original, part)
    expect(check.check(out, first, resumed) == [],
           "kg: ... and accepts it again once restored")


def test_bnodes_check(tmp: str) -> None:
    import pyarrow as pa

    from jsonld_js_ray.sources.jsonld_lines import \
        build_quads_from_jsonld_lines

    spec = gen.generate("jsonld_bnodes", 3, os.path.join(tmp, "bn"))
    check = oracle.BnodesOracle(spec)
    table = pa.concat_tables(list(build_quads_from_jsonld_lines(
        spec["files"]).iter_batches(batch_size=None, batch_format="pyarrow")))
    expect(check.check(table) == [],
           "jsonld_bnodes: the checks accept the engine's output")
    expect(check.check(table.slice(1)) != [],
           "jsonld_bnodes: ... and reject it with one quad dropped")
    lit = table["obj_kind"].to_pylist().index("literal")
    expect(check.check(_mutate(table, "obj_value", lit, "altered")) != [],
           "jsonld_bnodes: ... and with one quad altered")

    # label format only: rename one document's labels consistently to a
    # wrong scheme; the graph stays isomorphic
    involved = set(check.copies) | set(check.copies.values())
    conv = next(c for c in check.n_bnodes
                if check.n_bnodes[c] and c not in involved)
    prefix = f"_:{oracle._fingerprint(conv)}-"
    bad = check.check(_relabel(table, {
        f"{prefix}c14n{i}": f"{prefix}b{i}"
        for i in range(check.n_bnodes[conv])}))
    expect(len(bad) == 1 and "labels" in bad[0],
           "jsonld_bnodes: the label check alone rejects _:{fp}-bN labels")

    # copy invariance only: swap two canonical labels inside one renamed
    # copy; it stays isomorphic with the same label set. Swaps that are
    # automorphisms of the copy leave its quads unchanged, so try until
    # one is not.
    for copy in check.copies:
        cp = f"_:{oracle._fingerprint(copy)}-"
        bad = check.check(_relabel(table, {cp + "c14n0": cp + "c14n1",
                                           cp + "c14n1": cp + "c14n0"}))
        if bad:
            break
    expect(len(bad) == 1 and "renamed copy" in bad[0],
           "jsonld_bnodes: the copy check alone rejects a relabelled copy")


def _relabel(table, mapping: dict):
    import pyarrow as pa

    for col in ("subj", "obj_value"):
        i = table.schema.get_field_index(col)
        values = [mapping.get(v, v) for v in table[col].to_pylist()]
        table = table.set_column(i, col,
                                 pa.array(values, table.schema.field(i).type))
    return table


_ENTITY_SCRIPT = """
import sys, ray
ray.init(num_cpus=int(sys.argv[2]), include_dashboard=False,
         logging_level="ERROR", log_to_driver=False,
         object_store_memory=256 * 1024 * 1024, _temp_dir=sys.argv[3])
from jsonld_js_ray.pipelines.kg import build_entity_mapping
print(len(build_entity_mapping(sys.argv[1])), flush=True)
ray.shutdown()
"""


def test_entity_mapping_defect(tmp: str, ray_tmp: str) -> None:
    spec = gen.generate("kg_short", 3, os.path.join(tmp, "ent"))
    sf = os.path.join(tmp, "ent-sf")
    os.makedirs(sf)
    shutil.copy(spec["files"][0], os.path.join(sf, "events.parquet"))
    env = dict(os.environ, PYTHONPATH=ROOT, RAY_USAGE_STATS_ENABLED="0")
    proc = subprocess.Popen(
        [sys.executable, "-c", _ENTITY_SCRIPT, sf, str(box.nproc()),
         ray_tmp], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL)
    try:
        proc.wait(timeout=ENTITY_DEADLINE_S)
        finished = proc.returncode == 0
    except subprocess.TimeoutExpired:
        finished = False
    finally:
        box.kill_tree(proc.pid)
    expect(not finished,
           f"known defect: build_entity_mapping does not finish within "
           f"{ENTITY_DEADLINE_S} s at num_cpus=nproc (if this fails, the "
           f"defect is fixed: update NOTES.md and give stages.linker a "
           f"workload)")


def main() -> None:
    import ray

    box.make_subreaper()
    state = os.path.join(ROOT, ".kgbench")
    os.makedirs(state, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=state)
    ray_tmp = os.path.join(state, "ray-st")
    if len(ray_tmp) > 44:
        ray_tmp = tempfile.mkdtemp(prefix="kgb-")
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ["PYTHONPATH"] = ROOT
    try:
        test_generators(tmp)
        ray.init(num_cpus=box.nproc(), include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=256 * 1024 * 1024, _temp_dir=ray_tmp)
        try:
            test_kg_check(tmp)
            test_bnodes_check(tmp)
        finally:
            ray.shutdown()
        test_entity_mapping_defect(tmp, ray_tmp)
    finally:
        box.kill_tree(os.getpid(), include_root=False)
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
    print(json.dumps({"selftest": "passed"}))


if __name__ == "__main__":
    main()

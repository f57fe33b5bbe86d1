"""Benchmark of the transcript -> quad pipeline.

    python3 kgbench/run.py --workload kg_short --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Generates the workload's inputs from
the seed under ``.kgbench/``, starts ``session.py`` in a child process
(three Ray sessions in turn, ``num_cpus`` = nproc), runs one job at a
time in a closed loop for ``--seconds`` of job time, checks every
job's output against an oracle, and prints a run record line and, as
the last line, the result JSON. ``--trace 1`` reports the per-layer metrics
instead of the end-to-end ones. Metric names and units come from
``BENCHMARK.json``; ``NOTES.md`` explains the workloads and metrics.

Every step of the session has a deadline: a hung set-up or job is
killed, with the whole process tree, and counted as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import box

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STEP_DEADLINE_S = 60.0      # any one set-up, job or replay
RUN_LIMIT_S = 110.0         # no job starts after this
TOTAL_LIMIT_S = 165.0       # the session is killed at this point
# Ray binds AF_UNIX sockets (107-byte paths) under
# <tmp>/session_<date>_<pid>/sockets/, about 63 bytes below <tmp>
RAY_TMP_MAX = 44


class Child:
    """The session process, read line by line with deadlines."""

    def __init__(self, cfg: dict, log_path: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [ROOT] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
        env["RAY_USAGE_STATS_ENABLED"] = "0"
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "session.py"),
             json.dumps(cfg)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log,
            env=env, cwd=ROOT)
        self.buf = b""

    def next_event(self, timeout_s: float) -> dict | None:
        """Next protocol event; None on deadline or end of stream."""
        deadline = time.monotonic() + timeout_s
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 65536)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def reply(self, go: bool) -> None:
        try:
            if go:
                self.proc.stdin.write(b"go\n")
                self.proc.stdin.flush()
            else:
                self.proc.stdin.close()
        except (BrokenPipeError, ValueError):
            pass

    def finish(self, timeout_s: float) -> None:
        """Wait up to ``timeout_s`` for the session to exit, then kill
        whatever is left of its process tree."""
        try:
            self.proc.wait(timeout=max(0.0, timeout_s))
        except subprocess.TimeoutExpired:
            pass
        box.kill_tree(self.proc.pid)
        self.log.close()


def _percentile(walls: list[float]) -> dict | None:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(walls)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1 - p / 100) >= 10:
            rank = min(n - 1, int(p / 100 * n))
            return {"p": p, "value": sorted(walls)[rank]}
    return None


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    def __init__(self, args, spec: dict, oracle, t0: float) -> None:
        self.args = args
        self.spec = spec
        self.oracle = oracle
        self.setups: list[float] = []
        self.jobs: list[dict] = []
        self.failures: list[str] = []
        self.attempted = self.failed = 0
        self.rss_mb = 0.0
        self.replay: dict = {}
        self.t0 = t0
        self.timeline: dict[str, float] = {}

    def mark(self, what: str) -> None:
        self.timeline[what] = round(time.monotonic() - self.t0, 2)

    def check(self, ev: dict) -> list[str]:
        if "error" in ev:
            return [ev["error"]]
        if self.args.workload.startswith("kg_"):
            bad = self.oracle.check(ev["out"], ev["first"], ev["resumed"])
            size = sum(os.path.getsize(os.path.join(d, f))
                       for d, _, fs in os.walk(ev["out"])
                       for f in fs if f.endswith(".parquet"))
            ev["bytes_per_quad"] = size / max(1, self.oracle.quads)
            return bad
        import pyarrow.parquet as pq

        table = pq.read_table(os.path.join(ev["out"], "quads.parquet"))
        return self.oracle.check(table)

    def left_s(self) -> float:
        return self.t0 + TOTAL_LIMIT_S - time.monotonic()

    def drive(self, child: Child) -> bool:
        """Feed the session until it is done (True) or fails to report
        within its deadline or exits early (False)."""
        start = time.monotonic()
        while True:
            ev = child.next_event(min(STEP_DEADLINE_S, self.left_s()))
            if ev is None:        # hung past the deadline, or crashed
                self.attempted += 1
                self.failed += 1
                self.failures.append(
                    "session hung past the step deadline"
                    if child.proc.poll() is None else
                    f"session exited with {child.proc.returncode}")
                self.jobs.append({"wall": time.monotonic() - start,
                                  "ok": False})
                return False
            self.mark(f"setup{len(self.setups) + 1}"
                      if ev["ev"] == "setup" else ev["ev"])
            if ev["ev"] == "setup":
                self.setups.append(ev["s"])
                start = time.monotonic()
            elif ev["ev"] == "job":
                bad = self.check(ev)
                shutil.rmtree(ev.get("out", ""), ignore_errors=True)
                ev["ok"] = not bad
                self.attempted += 1
                if bad:
                    self.failed += 1
                    self.failures += bad[:3]
                self.jobs.append(ev)
                child.reply(time.monotonic() - self.t0 < RUN_LIMIT_S)
                start = time.monotonic()
            elif ev["ev"] == "rss":
                self.rss_mb = ev["mb"]
            elif ev["ev"] == "replay":
                self.replay = ev["layers"]
                if self.replay["quads"] != self.oracle.quads:
                    self.attempted += 1
                    self.failed += 1
                    self.failures.append(
                        f"replay made {self.replay['quads']} quads, the "
                        f"oracle has {self.oracle.quads}")
            elif ev["ev"] == "done":
                return True

    def end_to_end(self) -> dict:
        untraced = [j for j in self.jobs if not j.get("traced")]
        walls = [j["wall"] for j in untraced]
        wall = _median(walls)
        return {
            "wall_s": wall,
            "quads_per_s": self.oracle.quads / wall if wall else 0.0,
            "cpu_s": _median([j["cpu"] for j in untraced if "cpu" in j]),
            "peak_rss_mb": self.rss_mb,
            "setup_s": _median(self.setups),
        }

    def per_layer(self) -> dict:
        traced = [j for j in self.jobs if j.get("traced") and j["ok"]]
        out: dict = {}
        for key in (traced[0]["layers"] if traced else {}):
            out[key] = _median([j["layers"][key] for j in traced])
        if self.args.workload.startswith("kg_"):
            out["state.checkpoint.shards_skipped"] = _median(
                [j["resumed"]["shards_skipped"] for j in traced])
            out["state.checkpoint.bytes_per_quad"] = _median(
                [j["bytes_per_quad"] for j in traced])
        out.update(self.replay)
        untraced = [j["wall"] for j in self.jobs
                    if not j.get("traced") and j["ok"]]
        out["trace.overhead_s"] = _median([j["wall"] for j in traced]) - \
            _median(untraced)
        return out

    def record(self, box_record: dict, metrics: dict) -> dict:
        walls = [j["wall"] for j in self.jobs if not j.get("traced")]
        return {
            "workload": self.args.workload, "seed": self.args.seed,
            "seconds": self.args.seconds, "trace": self.args.trace,
            "input": {k: v for k, v in self.spec.items()
                      if isinstance(v, int)},
            "quads_per_job": self.oracle.quads,
            "jobs": len(walls), "walls_s": walls,
            "tail": _percentile(walls),
            "setups_s": self.setups,
            "timeline_s": self.timeline,
            "attempted": self.attempted, "failed": self.failed,
            "fail_ratio": self.failed / max(1, self.attempted),
            "failures": self.failures[:10],
            "box": box_record,
            "metrics": metrics,
        }


def _ray_tmp(state: str) -> str:
    path = os.path.join(state, "ray")
    if len(path) <= RAY_TMP_MAX:
        os.makedirs(path, exist_ok=True)
        return path
    # the checkout path is too long for Ray's socket paths
    return tempfile.mkdtemp(prefix="kgb-")


def _interrupted(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "jsonld_js_ray")):
        print(f"kgbench: no jsonld_js_ray package under {ROOT}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sys.path.insert(1, ROOT)
    import gen
    import oracle as oracles

    if args.workload not in gen.WORKLOADS:
        print(f"kgbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2

    t0 = time.monotonic()
    signal.signal(signal.SIGTERM, _interrupted)
    box.make_subreaper()
    box_record = box.BoxRecord(ROOT)
    state = os.path.join(ROOT, ".kgbench")
    work = os.path.join(state, f"{args.workload}-{args.seed}-{os.getpid()}")
    ray_tmp = _ray_tmp(state)
    log = os.path.join(state, f"session-{os.getpid()}.log")
    child = None
    try:
        spec = gen.generate(args.workload, args.seed, work)
        if args.workload.startswith("kg_"):
            oracle = oracles.KgOracle(spec["files"])
        else:
            oracle = oracles.BnodesOracle(spec)
        run = Run(args, spec, oracle, t0)
        child = Child({"workload": args.workload, "work": work,
                       "files": spec["files"], "seconds": args.seconds,
                       "trace": args.trace, "ray_tmp": ray_tmp,
                       "num_cpus": box_record.record["nproc"]}, log)
        run.mark("started")
        if run.drive(child):
            child.finish(run.left_s())
        else:
            child.finish(0)
        child = None
        run.mark("stopped")
    finally:
        if child is not None:
            child.finish(0)
        box.kill_tree(os.getpid(), include_root=False)
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)

    values = run.per_layer() if args.trace else run.end_to_end()
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    rec = run.record(box_record.close(), metrics)
    os.makedirs(os.path.join(state, "records"), exist_ok=True)
    with open(os.path.join(state, "records", f"{args.workload}-seed"
                           f"{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(rec, f, indent=1)
    if run.failures:
        print("kgbench: failures: " + "; ".join(run.failures[:5]) +
              f" (session log: {log})", file=sys.stderr)
    else:
        os.remove(log)
    print(json.dumps({"record": {k: v for k, v in rec.items()
                                 if k != "metrics"}}))
    print(json.dumps({"correct": run.attempted > 0 and run.failed == 0,
                      "attempted": max(1, run.attempted),
                      "failed": run.failed if run.attempted else 1,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

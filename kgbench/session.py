"""Ray sessions for one run: set-ups, the closed job loop, tracing, replay.

Started by ``run.py`` as a child process; ``argv[1]`` is a JSON config.
Protocol: one JSON object per line on the original stdout (events
``setup``, ``job``, ``rss``, ``replay``, ``done``); after each ``job`` the
session blocks until the supervisor, having checked the output, writes
a line to its stdin. Everything else the session or Ray prints goes to
stderr, which the supervisor sends to a log file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

N_SETUPS = 3


class Session:
    def __init__(self, cfg: dict, proto) -> None:
        self.cfg = cfg
        self.proto = proto
        self.workload = cfg["workload"]
        self.work = cfg["work"]
        self.files = cfg["files"]
        self.kg = self.workload.startswith("kg_")
        self.jobs = 0

    def send(self, **msg) -> None:
        self.proto.write(json.dumps(msg) + "\n")
        self.proto.flush()

    # -- set-up ---------------------------------------------------------

    def start_ray(self) -> None:
        import ray

        ray.init(num_cpus=self.cfg["num_cpus"], include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=256 * 1024 * 1024,
                 _temp_dir=self.cfg["ray_tmp"])
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False

    def warm_up(self) -> None:
        """One-shard job of the workload's shape: spawns the worker,
        imports the package there and runs every operator once."""
        if self.kg:
            warm = os.path.join(self.work, "warm")
            if not os.path.isdir(warm):
                os.makedirs(os.path.join(warm, "events"))
                shutil.copy(self.files[0], os.path.join(warm, "events"))
            out = os.path.join(self.work, "warm-out")
            shutil.rmtree(out, ignore_errors=True)
            from jsonld_js_ray.pipelines.kg import run_kg_pipeline

            run_kg_pipeline(warm, out)
            run_kg_pipeline(warm, out)
            shutil.rmtree(out, ignore_errors=True)
        else:
            self.bnodes_job(self.files[:1])

    # -- jobs -----------------------------------------------------------

    def bnodes_job(self, files):
        """Quads streamed back to the driver. (``to_arrow_refs`` would
        run the plan a second time to fetch the schema.)"""
        import pyarrow as pa

        from jsonld_js_ray.sources.jsonld_lines import \
            build_quads_from_jsonld_lines

        ds = build_quads_from_jsonld_lines(files)
        table = pa.concat_tables(list(
            ds.iter_batches(batch_size=None, batch_format="pyarrow")))
        return ds, table

    def run_job(self, i: int, tracer) -> tuple[float, float, dict]:
        """Run job ``i``; returns (wall, cpu, result for the checker)."""
        from box import tree_cpu_s

        out = os.path.join(self.work, f"out-{i}")
        shutil.rmtree(out, ignore_errors=True)
        me = os.getpid()
        cpu0 = tree_cpu_s(me)
        t0 = time.perf_counter()
        if self.kg:
            from jsonld_js_ray.pipelines.kg import run_kg_pipeline

            first = run_kg_pipeline(self.work, out)
            resumed = run_kg_pipeline(self.work, out)
            wall = time.perf_counter() - t0
            cpu = tree_cpu_s(me) - cpu0
            result = {"out": out, "first": first, "resumed": resumed}
        else:
            ds, table = self.bnodes_job(self.files)
            wall = time.perf_counter() - t0
            cpu = tree_cpu_s(me) - cpu0
            import pyarrow.parquet as pq

            os.makedirs(out)
            pq.write_table(table, os.path.join(out, "quads.parquet"))
            result = {"out": out}
            if tracer is not None:
                tracer.datasets.append(ds)
        return wall, cpu, result

    def job_loop(self, budget_s: float, tracer) -> bool:
        """Closed loop, one client: the next job starts when the
        previous one has been checked. Runs at least one job, and no job
        that would likely end past ``budget_s`` of summed job walls.
        False once the supervisor says stop."""
        spent = last = 0.0
        while not spent or spent + last / 2 < budget_s:
            if tracer is not None:
                tracer.begin_job()
            t0 = time.perf_counter()
            try:
                wall, cpu, result = self.run_job(self.jobs, tracer)
            except Exception as e:           # reported, counted as failed
                self.send(ev="job", i=self.jobs,
                          wall=time.perf_counter() - t0,
                          error=f"{type(e).__name__}: {e}")
                spent = last = budget_s
            else:
                layers = None if tracer is None else tracer.end_job(wall)
                spent += wall
                last = wall
                self.send(ev="job", i=self.jobs, wall=wall, cpu=cpu,
                          traced=tracer is not None, layers=layers,
                          **result)
            self.jobs += 1
            if not sys.stdin.readline():
                return False
        return True

    # -- main -----------------------------------------------------------

    def main(self) -> None:
        """N_SETUPS Ray sessions, each set up and then measured for an
        equal share of ``seconds``: the jobs sample a window about three
        times as long as ``seconds``, so a burst of load from outside
        moves the medians less. With tracing on, the last session's jobs
        are traced and the kernel replay follows."""
        import ray

        from box import reap, tree_peak_rss_mb

        share = self.cfg["seconds"] / N_SETUPS
        for k in range(N_SETUPS):
            t0 = time.perf_counter()
            self.start_ray()
            self.warm_up()
            self.send(ev="setup", s=time.perf_counter() - t0)
            if self.cfg["trace"] and k == N_SETUPS - 1:
                from tracing import Tracer

                with Tracer(self.kg) as tracer:
                    go = self.job_loop(share, tracer)
            else:
                go = self.job_loop(share, None)
            if k == N_SETUPS - 1 or not go:
                break
            ray.shutdown()
            reap()            # Ray actors we inherited as their subreaper
        if self.cfg["trace"]:
            from tracing import replay

            self.send(ev="replay", layers=replay(self.workload, self.files))
        else:
            self.send(ev="rss", mb=tree_peak_rss_mb(os.getpid()))
        ray.shutdown()
        reap()
        self.send(ev="done")


def _main() -> None:
    cfg = json.loads(sys.argv[1])
    # protocol on the original stdout; everything else to stderr
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    from box import make_subreaper

    make_subreaper()
    Session(cfg, proto).main()


if __name__ == "__main__":
    _main()

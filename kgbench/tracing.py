"""Per-layer figures, taken from outside the engine.

``Tracer`` wraps public entry points for the duration of the traced
jobs (``state.checkpoint.write_shard_atomic`` and Ray Data's
``Dataset.write_parquet``, to keep hold of the executed datasets) and
turns each job's ``Dataset.stats()`` operator summaries into layer
figures.

``replay`` re-runs the kernel in this process over the same inputs,
with spans around ``stages.assemble.derive_and_assemble_events_group``,
``json.loads``, ``sources.jsonld_lines`` parsing,
``stages.to_rdf_stage.ToRdfActor.rows_from_docs`` and, inside it,
``core.expand.expand``, ``core.to_rdf.to_rdf`` and
``core.canonize.relabel_dataset``; the context cache is counted through
``core.context.ContextResolver.process_cache``. Emit (bnode namespacing
and the Arrow build) is ``rows_from_docs`` minus those three spans.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

REPLAYS = 3
BATCH = 256          # conversations per ToRdf batch, as in build_quads
LAYER_SPANS = ("stages.assemble", "stages.to_rdf_stage.loads",
               "sources.jsonld_lines.parse", "core.expand", "core.to_rdf",
               "core.canonize", "stages.to_rdf_stage.emit")


class Tracer:
    def __init__(self, kg: bool) -> None:
        self.kg = kg
        self.datasets: list = []
        self._undo: list = []

    def _wrap(self, owner, name: str, after=None, timer=None) -> None:
        orig = getattr(owner, name)

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                if timer is not None:
                    timer(time.perf_counter() - t0)
                if after is not None:
                    after(args)

        setattr(owner, name, wrapper)
        self._undo.append((owner, name, orig))

    def __enter__(self) -> "Tracer":
        if self.kg:
            from ray.data import Dataset

            from jsonld_js_ray.state import checkpoint

            def wrote(dt: float) -> None:
                self.write_s += dt
                self.shards_written += 1

            def executed(dt: float) -> None:
                self.execute_s += dt

            self._wrap(checkpoint, "write_shard_atomic", timer=wrote)
            self._wrap(Dataset, "write_parquet", timer=executed,
                       after=lambda args: self.datasets.append(args[0]))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)

    def begin_job(self) -> None:
        self.datasets = []
        self.write_s = self.execute_s = 0.0
        self.shards_written = 0

    def end_job(self, wall: float) -> dict:
        read_s = read_rows = udf_s = map_udf = 0.0
        map_tasks = shuffle_s = spilled = 0
        blocks: list[int] = []
        for ds in self.datasets:
            executed = ds._write_ds if ds._write_ds is not None else ds
            stats = executed._plan.stats()
            summary = stats.to_summary()
            spilled += summary.dataset_bytes_spilled
            for op in _operators(summary):
                name = op.operator_name
                udf = (op.udf_time or {}).get("sum", 0.0)
                udf_s += udf
                if name.startswith("Read"):
                    read_s += op.time_total_s
                    read_rows += (op.output_num_rows or {}).get("sum", 0)
                elif name in ("SortMap", "SortReduce"):
                    shuffle_s += op.time_total_s
                elif name.startswith("MapBatches(strip_meta)"):
                    continue
                else:
                    map_udf += udf
                    map_tasks += (op.task_rows or {}).get("count", 0)
            blocks += _reduce_block_rows(stats)
        layers = {
            "sources.read.wall_s": read_s,
            "sources.read.rows": read_rows,
            "pipelines.kg.map.udf_s": map_udf,
            "pipelines.kg.map.tasks": map_tasks,
            "pipelines.kg.ray_overhead_s": wall - udf_s,
            "pipelines.kg.shuffle.wall_s": shuffle_s,
            "pipelines.kg.shuffle.blocks": len(blocks),
            "pipelines.kg.shuffle.block_skew":
                max(blocks) / statistics.median(blocks) if blocks else 0.0,
            "pipelines.kg.shuffle.spilled_mb": spilled / 2 ** 20,
        }
        if self.kg:
            # self time: the lazy dataset executes inside write_parquet,
            # which write_shard_atomic calls
            layers["state.checkpoint.write_s"] = \
                self.write_s - self.execute_s
            layers["state.checkpoint.shards_written"] = self.shards_written
        return layers


def _operators(summary):
    """Operator summaries of a dataset and all its parents."""
    seen = set()
    stack = [summary]
    while stack:
        s = stack.pop()
        if id(s) in seen:
            continue
        seen.add(id(s))
        yield from s.operators_stats
        stack.extend(s.parents)


def _reduce_block_rows(stats) -> list[int]:
    """Rows of each block the shuffle's reduce side produced."""
    out, stack = [], [stats]
    while stack:
        s = stack.pop()
        for name, blocks in s.metadata.items():
            if name == "SortReduce":
                out += [b.num_rows or 0 for b in blocks]
        stack.extend(s.parents)
    return out


class _CountingCache(dict):
    """``ContextResolver.process_cache`` that counts lookups."""

    def __init__(self) -> None:
        super().__init__()
        self.hits = self.misses = 0

    def get(self, key, default=None):
        if key in self:
            self.hits += 1
        else:
            self.misses += 1
        return super().get(key, default)


class _Spans:
    """Wraps module functions; times only the outermost call, since
    ``expand`` recurses through its own module attribute."""

    def __init__(self) -> None:
        self.s: dict[str, float] = defaultdict(float)
        self._undo: list = []

    def wrap(self, module, name: str, span: str) -> None:
        orig = getattr(module, name)
        depth = [0]

        def wrapper(*args, **kwargs):
            if depth[0]:
                return orig(*args, **kwargs)
            depth[0] += 1
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                self.s[span] += time.perf_counter() - t0
                depth[0] -= 1

        setattr(module, name, wrapper)
        self._undo.append((module, name, orig))

    def restore(self) -> None:
        for module, name, orig in reversed(self._undo):
            setattr(module, name, orig)


def _kg_docs(files: list[str], spans: _Spans) -> tuple[list, list]:
    """Per shard, per user: derive turns + assemble + json.dumps."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from jsonld_js_ray.stages.assemble import \
        derive_and_assemble_events_group

    conv_ids, doc_jsons = [], []
    for path in files:
        events = pq.read_table(path, columns=[
            "event_id", "ts", "user_id", "event_type", "props"])
        events = events.replace_schema_metadata(None)
        events = events.take(pc.sort_indices(events, [("user_id",
                                                       "ascending")]))
        users = events["user_id"].to_numpy()
        starts = [0] + [i for i in range(1, len(users))
                        if users[i] != users[i - 1]] + [len(users)]
        for a, b in zip(starts, starts[1:]):
            group = events.slice(a, b - a)
            t0 = time.perf_counter()
            rows = derive_and_assemble_events_group(group)
            spans.s["stages.assemble"] += time.perf_counter() - t0
            conv_ids += rows["conv_id"].to_pylist()
            doc_jsons += rows["doc_json"].to_pylist()
    return conv_ids, doc_jsons


def _replay_once(workload: str, files: list[str]) -> dict:
    from jsonld_js_ray.core import canonize, expand, to_rdf
    from jsonld_js_ray.sources import jsonld_lines
    from jsonld_js_ray.stages.to_rdf_stage import ToRdfActor

    spans = _Spans()
    if workload.startswith("kg_"):
        conv_ids, doc_jsons = _kg_docs(files, spans)
        t0 = time.perf_counter()
        docs = [json.loads(d) for d in doc_jsons]
        spans.s["stages.to_rdf_stage.loads"] = time.perf_counter() - t0
    else:
        lines = []
        for path in files:
            with open(path, encoding="utf-8") as f:
                lines += f.read().split("\n")
        t0 = time.perf_counter()
        parsed = list(jsonld_lines._scan_lines(lines))
        spans.s["sources.jsonld_lines.parse"] = time.perf_counter() - t0
        conv_ids = [p[0] for p in parsed]
        docs = [p[1] for p in parsed]

    # the per-worker state a Ray worker keeps: one actor, warm caches
    actor = ToRdfActor()
    cache = actor.resolver.process_cache = _CountingCache()
    spans.wrap(expand, "expand", "core.expand")
    spans.wrap(to_rdf, "to_rdf", "core.to_rdf")
    spans.wrap(canonize, "relabel_dataset", "core.canonize")
    quads = bnodes = 0
    try:
        rfd = 0.0
        for k in range(0, len(docs), BATCH):
            t0 = time.perf_counter()
            table = actor.rows_from_docs(conv_ids[k:k + BATCH],
                                         docs[k:k + BATCH], parsed=True)
            rfd += time.perf_counter() - t0
            quads += table.num_rows
            labels = set(table["subj"].to_pylist())
            labels.update(v for v, kind in zip(
                table["obj_value"].to_pylist(),
                table["obj_kind"].to_pylist()) if kind == "bnode")
            bnodes += sum(1 for x in labels if x.startswith("_:"))
    finally:
        spans.restore()
    s = spans.s
    s["stages.to_rdf_stage.emit"] = rfd - s["core.expand"] - \
        s["core.to_rdf"] - s["core.canonize"]
    out = {f"{name}.us_per_quad": s.get(name, 0.0) / quads * 1e6
           for name in LAYER_SPANS}
    out["kernel.us_per_quad"] = sum(out.values())
    out.update({
        "docs": len(docs),
        "quads": quads,
        "core.context.process_calls": cache.hits + cache.misses,
        "core.context.cache_hit_ratio":
            cache.hits / max(1, cache.hits + cache.misses),
        "core.canonize.bnodes": bnodes,
    })
    return out


def replay(workload: str, files: list[str]) -> dict:
    """Median over REPLAYS in-process replays of each layer figure."""
    runs = [_replay_once(workload, files) for _ in range(REPLAYS)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}

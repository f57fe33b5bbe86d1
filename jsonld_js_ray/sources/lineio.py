"""Shared sharded line-file sink for text-based sources (N-Quads,
newline-delimited JSON-LD).

One writer so crash-safety fixes apply to every line sink. Two
guarantees, with NO extra exchange (a Ray ``Datasink`` write fuses
onto the upstream map stage):

1. **No torn shards**: each part is written to a ``.tmp`` file and
   atomically renamed; the paired readers filter to the final
   extension, so a killed task's orphan is never ingested.
2. **No duplicate shards on retry or re-run**: parts are named by the
   write task's deterministic ``ctx.task_idx`` (stable across Ray
   retries of the same input bundle, unlike a uuid) and installed
   with ``os.replace`` — a task retried after its rename already
   succeeded rewrites the same file instead of emitting a second
   differently-named copy a glob-based reader would double-ingest —
   and ``on_write_start`` clears prior ``part-*.{ext}`` files so a
   re-run into the same directory (different task count → different
   name set) can never leave stale parts from the previous run
   behind. One write owns a directory at a time.

Within a run, retries are idempotent. ACROSS runs, the part layout
(which lines land in which file) follows Ray's block partitioning —
same dataset written at different parallelism yields a different
file split with identical total content, like write_parquet. A
caller needing a bit-reproducible shard LAYOUT must repartition
deterministically upstream.

**Lineage + resume** (the parquet sink's ``state/checkpoint.py``
contract, applied at directory granularity — one line write owns one
directory): when the caller passes ``inputs=`` (the source files the
written lines derive from), a ``_manifest/write.manifest`` (JSON
content; see _write_manifest_path for why not ``.json``) records
``{inputs, input_fingerprint, parts: [(name, rows, bytes)], rows,
wall_ms}`` after the write completes, installed atomically
(tmp+rename, ``checkpoint.write_json_atomic``). A re-run with the SAME
input fingerprint whose recorded parts are all present at their
recorded sizes (``checkpoint.parts_intact``, the check the Parquet
shards use) SKIPS the write entirely; any mismatch rewrites from
scratch. ``on_write_start`` deletes the manifest BEFORE clearing
parts, so a write killed midway can never leave a "complete" manifest
over torn output.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
from ray.data import Datasink
from ray.data.datasource.datasink import WriteResult

from ..state.checkpoint import (fingerprint_inputs, parts_intact,
                                write_json_atomic)


def _write_manifest_path(out_dir: str) -> str:
    # .manifest extension (JSON content): the paired readers filter to
    # their data extensions (jsonl/nq/...), so the record can live in
    # the written directory without ever being ingested as data (a
    # .json name WOULD match the jsonld-lines reader's defaults)
    return os.path.join(out_dir, "_manifest", "write.manifest")


def read_write_manifest(out_dir: str) -> dict | None:
    """The line-write lineage record for ``out_dir``, or None."""
    try:
        with open(_write_manifest_path(out_dir)) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None


class _LineShardDatasink(Datasink):
    """Writes the ``line`` column of each incoming block to
    ``part-{task_idx}-{block_idx}.{ext}``; collects a (path, rows,
    bytes) manifest on the driver in ``on_write_complete``."""

    def __init__(self, out_dir: str, ext: str) -> None:
        self.out_dir = out_dir
        self.ext = ext
        self.manifest_rows: list[tuple[str, int, int]] = []

    def on_write_start(self) -> None:
        import glob

        os.makedirs(self.out_dir, exist_ok=True)
        # lineage first: a manifest must never outlive the parts it
        # describes (a kill between here and on_write_complete leaves
        # NO manifest → the next run rewrites from scratch)
        try:
            os.remove(_write_manifest_path(self.out_dir))
        except OSError:
            pass
        # a previous run with more write tasks left part files this
        # run's name set won't overwrite — clear them so glob readers
        # see exactly this write's output
        # ...and orphaned .tmp files from tasks killed mid-write in a
        # prior run: readers already skip them by extension, but they
        # would otherwise accumulate forever in a reused directory
        for stale in glob.glob(
                os.path.join(self.out_dir, f"part-*.{self.ext}")) \
                + glob.glob(os.path.join(
                    self.out_dir, f"part-*.{self.ext}.*.tmp")):
            os.remove(stale)

    def write(self, blocks, ctx) -> list[tuple[str, int, int]]:
        out: list[tuple[str, int, int]] = []
        for i, block in enumerate(blocks):
            lines = block["line"].to_pylist()
            if not lines:
                continue
            name = os.path.join(
                self.out_dir,
                f"part-{ctx.task_idx:06d}-{i:04d}.{self.ext}")
            tmp = f"{name}.{os.getpid()}.tmp"
            data = ("\n".join(lines) + "\n").encode("utf-8")
            with open(tmp, "wb") as f:
                f.write(data)
            os.replace(tmp, name)
            out.append((name, len(lines), len(data)))
        return out

    def on_write_complete(
            self, write_result: "WriteResult") -> None:
        for rows in write_result.write_returns:
            self.manifest_rows.extend(rows)


def _manifest_table(paths: list[str], counts: list[int],
                    count_col: str) -> pa.Table:
    return pa.table({"path": pa.array(paths, pa.string()),
                     count_col: pa.array(counts, pa.int64())})


def write_line_shards(lines_ds, out_dir: str, ext: str,
                      count_col: str, inputs: list[str] | None = None):
    """Dataset with a ``line`` column → ``part-*.{ext}`` files in
    ``out_dir``. Executes eagerly (the write is a side effect; blocks
    stream through as-is) and returns the manifest (path, {count_col})
    as an Arrow table.

    ``inputs``: source files these lines derive from. When given, a
    completed prior write of the same input fingerprint whose parts
    are all intact is SKIPPED (resume — no read, no write) and the
    recorded manifest is returned; and this write commits its own
    lineage record for the next run to consult."""
    import time

    fp = fingerprint_inputs(inputs) if inputs is not None else None
    if fp is not None:
        prior = read_write_manifest(out_dir)
        if prior and prior.get("input_fingerprint") == fp \
                and parts_intact(out_dir, prior.get("parts", [])):
            return _manifest_table(
                [os.path.join(out_dir, p[0]) for p in prior["parts"]],
                [p[1] for p in prior["parts"]], count_col)

    t0 = time.time()
    sink = _LineShardDatasink(out_dir, ext)
    lines_ds.write_datasink(sink)
    rows = sorted(sink.manifest_rows)
    if fp is not None:
        record = {
            "inputs": sorted(inputs),
            "input_fingerprint": fp,
            "parts": [(os.path.basename(r[0]), r[1], r[2])
                      for r in rows],
            "rows": int(sum(r[1] for r in rows)),
            "wall_ms": int((time.time() - t0) * 1000),
        }
        write_json_atomic(_write_manifest_path(out_dir), record)
    return _manifest_table([r[0] for r in rows], [r[1] for r in rows],
                           count_col)

"""Resumable partitioned output with per-shard lineage records.

Layout (north rule: "partitioned Parquet n-quad tables with per-partition
lineage records and resumable checkpoints"):

    out_dir/
      shard=00042/part-*.parquet     (atomic: written to .tmp-*, renamed)
      _manifest/shard-00042.json     ({shard_id, inputs, input_fingerprint,
                                       rows, quads, wall_ms, parts, ...})

A shard is the resume unit — one input file (or file group) of the source
table. A rerun consults the manifest: a shard whose input fingerprint
matches and whose recorded parts are all present at their recorded sizes
is SKIPPED entirely (no read, no shuffle, no write); a shard whose files
were lost is redone. At 100 TB the source is many thousands of Parquet
files, so shard granularity is fine-grained; a single-file toy input
degenerates to one shard.

All pending shards of a run are computed by ONE execution; the shards are
committed one by one after it (``write_shard_atomic``). A shard is done
only once its manifest exists, so a run killed between two commits
resumes with the uncommitted shards, and a run killed mid-execution
redoes every pending shard. ``reconcile_shards`` clears the temp dirs a
killed run leaves behind.

``parts_intact`` and ``write_json_atomic`` are the one parts check and
the one record writer; the line sinks (``sources/lineio.py``) use them
too.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import asdict, dataclass, field


@dataclass
class ShardRecord:
    shard_id: int
    inputs: list[str]
    input_fingerprint: str
    rows: int
    quads: int
    wall_ms: int
    # [(file name in the shard dir, rows, bytes)], from the part footers
    parts: list = field(default_factory=list)


def fingerprint_inputs(paths: list[str]) -> str:
    """Cheap, deterministic input identity: path + size + mtime digest."""
    h = hashlib.sha256()
    for p in sorted(paths):
        st = os.stat(p)
        h.update(f"{p}|{st.st_size}|{st.st_mtime_ns}".encode())
    return h.hexdigest()[:16]


def manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def shard_manifest_path(out_dir: str, shard_id: int) -> str:
    return os.path.join(manifest_dir(out_dir), f"shard-{shard_id:05d}.json")


def shard_data_dir(out_dir: str, shard_id: int) -> str:
    return os.path.join(out_dir, f"shard={shard_id:05d}")


def parts_intact(data_dir: str, parts) -> bool:
    """Every recorded ``(name, rows, bytes)`` part is present in
    ``data_dir`` at its recorded size."""
    for name, _rows, nbytes in parts:
        try:
            if os.stat(os.path.join(data_dir, name)).st_size != nbytes:
                return False
        except OSError:
            return False
    return True


def write_json_atomic(path: str, record: dict) -> None:
    """Install a JSON record at ``path`` via tmp + rename, so a reader
    sees the old record or the whole new one, never a torn file."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(record, f, indent=1)
    os.replace(tmp, path)


def is_shard_done(out_dir: str, shard_id: int, fingerprint: str) -> bool:
    try:
        with open(shard_manifest_path(out_dir, shard_id)) as f:
            rec = json.load(f)
    except (json.JSONDecodeError, OSError):
        return False
    # a manifest without a parts list cannot vouch for its data
    return rec.get("input_fingerprint") == fingerprint \
        and "parts" in rec \
        and parts_intact(shard_data_dir(out_dir, shard_id), rec["parts"])


def temp_dir(out_dir: str, what: str) -> str:
    """A fresh temp path under ``out_dir``. The dot prefix keeps it
    invisible to shard=* globs and pyarrow/ray dataset discovery even
    if a hard kill leaves it behind (``reconcile_shards`` removes it)."""
    return os.path.join(out_dir, f".tmp-{what}-{os.getpid()}-"
                                 f"{int(time.time() * 1000)}")


def write_shard_atomic(out_dir: str, shard_id: int, write_fn,
                       record: ShardRecord) -> ShardRecord:
    """Run ``write_fn(tmp_dir)`` then atomically rename into place and
    commit the lineage record. ``write_fn`` must put all shard output
    files into the given temp directory (and may fill in ``record``)."""
    final_dir = shard_data_dir(out_dir, shard_id)
    tmp_dir = temp_dir(out_dir, f"shard-{shard_id:05d}")
    os.makedirs(tmp_dir)
    try:
        write_fn(tmp_dir)
        if os.path.isdir(final_dir):
            shutil.rmtree(final_dir)
        os.rename(tmp_dir, final_dir)
    except BaseException:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise
    write_json_atomic(shard_manifest_path(out_dir, shard_id),
                      asdict(record))
    return record


def read_manifest(out_dir: str) -> list[dict]:
    mdir = manifest_dir(out_dir)
    if not os.path.isdir(mdir):
        return []
    out = []
    for name in sorted(os.listdir(mdir)):
        if name.endswith(".json"):
            with open(os.path.join(mdir, name)) as f:
                out.append(json.load(f))
    return out


def reconcile_shards(out_dir: str, n_shards: int) -> list[int]:
    """Remove the temp dirs of killed runs, and shard outputs +
    manifests whose shard_id is no longer in the input set (inputs
    deleted/renamed between runs) so consumers of ``out_dir`` never
    read stale quads. Returns removed shard ids. One run owns
    ``out_dir`` at a time."""
    import warnings

    for name in os.listdir(out_dir):
        if name.startswith(".tmp-"):
            shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)
    removed = []
    mdir = manifest_dir(out_dir)
    if not os.path.isdir(mdir):
        return removed
    for name in os.listdir(mdir):
        if not name.startswith("shard-") or not name.endswith(".json"):
            continue
        shard_id = int(name[len("shard-"):-len(".json")])
        if shard_id >= n_shards:
            shutil.rmtree(shard_data_dir(out_dir, shard_id),
                          ignore_errors=True)
            os.remove(os.path.join(mdir, name))
            removed.append(shard_id)
            warnings.warn(
                f"removed orphaned shard {shard_id} (input no longer "
                f"present)")
    return removed

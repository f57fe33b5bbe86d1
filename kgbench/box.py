"""Process-tree accounting and the per-run box record, read from /proc.

The benchmark owns every process it starts: ``make_subreaper`` makes
orphans (a Ray worker whose raylet died first) reparent to us instead
of init, so ``descendants`` sees them and ``kill_tree`` can stop them.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import signal
import subprocess
import time

_PR_SET_CHILD_SUBREAPER = 36
_TICK = os.sysconf("SC_CLK_TCK")


def make_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    # comm (field 2) may contain spaces; fields resume after the last ')'
    return raw[raw.rindex(")") + 2:].split()


def descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(int(name))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(name))
    out, stack = [], [root]
    while stack:
        for child in children.get(stack.pop(), []):
            out.append(child)
            stack.append(child)
    return out


def tree_cpu_s(root: int) -> float:
    """CPU seconds of ``root`` and all live descendants, plus what
    ``root`` collected from descendants it has already reaped."""
    ticks = 0
    for i, pid in enumerate([root] + descendants(root)):
        fields = _stat_fields(pid)
        if fields is None:
            continue
        # utime, stime are fields 14, 15; cutime, cstime 16, 17 (1-based)
        ticks += int(fields[11]) + int(fields[12])
        if i == 0:
            ticks += int(fields[13]) + int(fields[14])
    return ticks / _TICK


def tree_peak_rss_mb(root: int) -> float:
    """Sum over the tree of each process's peak resident set (VmHWM).
    An upper bound on the simultaneous peak; it never misses a spike
    that sampling would."""
    kib = 0
    for pid in [root] + descendants(root):
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return kib / 1024.0


def kill_tree(root: int, include_root: bool = True,
              timeout_s: float = 10.0) -> None:
    """SIGKILL every descendant of ``root`` (and ``root``), reaping
    whatever becomes our zombie, until none is left or time runs out."""
    deadline = time.monotonic() + timeout_s
    while True:
        pids = descendants(root) + ([root] if include_root else [])
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        reap()
        pids = [p for p in pids if _stat_fields(p) is not None
                and _stat_fields(p)[0] != "Z"]
        if not pids or time.monotonic() > deadline:
            return
        time.sleep(0.05)


def reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def steal_ticks() -> int:
    """Steal ticks summed over all CPUs (8th field of /proc/stat's cpu
    line)."""
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:]
    return int(fields[7]) if len(fields) > 7 else 0


def nproc() -> int:
    """What coreutils ``nproc`` prints: the affinity mask's CPU count,
    lowered by OMP_NUM_THREADS / OMP_THREAD_LIMIT when they are set."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True,
                             timeout=5)
        return int(out.stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return len(os.sched_getaffinity(0))


def _git_commit(root: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def source_digest(root: str) -> str:
    """sha256 over the engine's sources: identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "jsonld_js_ray")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


class BoxRecord:
    """What the run measured on: taken at start, closed at the end."""

    # steal above 3% of all CPUs' time: on the 4-vCPU box this benchmark
    # was built on, quiet runs read 1-2% and runs with slow jobs 5-8%
    STEAL_FLAG = 0.03

    def __init__(self, root: str) -> None:
        from importlib.metadata import version

        self.t0 = time.monotonic()
        self.steal0 = steal_ticks()
        self.record = {
            "nproc": nproc(),
            "os_cpu_count": os.cpu_count(),
            "loadavg_before": list(os.getloadavg()),
            "python": platform.python_version(),
            "ray": version("ray"),
            "pyarrow": version("pyarrow"),
            "git_commit": _git_commit(root),
            "source_digest": source_digest(root),
            "platform": platform.platform(),
        }

    def close(self) -> dict:
        run_s = time.monotonic() - self.t0
        steal_s = (steal_ticks() - self.steal0) / _TICK
        share = steal_s / (run_s * os.cpu_count())
        self.record.update({
            "loadavg_after": list(os.getloadavg()),
            "run_s": round(run_s, 3),
            "steal_s": round(steal_s, 3),
            "steal_share": round(share, 4),
            "steal_high": share > self.STEAL_FLAG,
        })
        return self.record


"""Process control, summaries and the run record shared by every workload.

Nothing here imports numpy or the program at module level: the CLI workload
keeps its parent process small, because a spawned child's peak RSS starts
from the parent's resident size.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    if not values:
        raise ValueError("no values to summarize")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


# ---------------------------------------------------------------------------
# Child processes, one at a time
# ---------------------------------------------------------------------------

def run_forked(body) -> tuple[dict, float]:
    """Run ``body()`` in a forked child; return its JSON result and peak RSS in MB.

    The parent waits for the child before returning, so only one process
    works at a time. A child that raises reports the traceback as
    ``{"error": ...}`` instead of a result.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            payload = json.dumps(body())
        except BaseException:
            payload = json.dumps({"error": traceback.format_exc()})
            code = 1
        with os.fdopen(write_fd, "w") as out:
            out.write(payload)
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        payload = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    try:
        result = json.loads(payload)
    except json.JSONDecodeError:
        result = {"error": f"child exited with status {status} and no result"}
    return result, usage.ru_maxrss / 1024.0


def run_child(argv: list[str], cwd: Path, stderr_path: Path) -> tuple[int, float, float]:
    """Run one command to completion; return (exit code, wall s, peak RSS MB)."""
    with open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)  # wait4, not wait: it gives the rusage
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def _cpu_jiffies() -> tuple[int, int] | None:
    """(busy, total) jiffies of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    idle = fields[3] + (fields[4] if len(fields) > 4 else 0)
    total = sum(fields[:8])
    return total - idle, total


def _own_cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def reference_loop_s(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: the speed the machine gives
    this process. It moves when other tenants of a shared host slow the CPU,
    which the jiffy count, covering only this machine's processes, misses."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class LoadProbe:
    """Measures how much CPU other processes used while the run was going,
    and the reference loop's time at its start and end."""

    def __init__(self) -> None:
        self.reference_start = reference_loop_s()
        self.jiffies = _cpu_jiffies()
        self.own = _own_cpu_s()

    def finish(self) -> dict:
        doc = {"others_cpu_share": None,
               "reference_loop_s": [self.reference_start, reference_loop_s()]}
        end = _cpu_jiffies()
        if self.jiffies is not None and end is not None and end[1] > self.jiffies[1]:
            tick = os.sysconf("SC_CLK_TCK")
            busy_s = (end[0] - self.jiffies[0]) / tick
            capacity_s = (end[1] - self.jiffies[1]) / tick
            others = busy_s - (_own_cpu_s() - self.own)
            doc["others_cpu_share"] = max(0.0, others / capacity_s)
        return doc


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports in this process, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest(src: Path) -> str:
    """SHA-256 over the program's source files, standing in for a commit id
    in checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_record(root: Path, workload: str, seed: int, trace: bool, blas_threads: str,
               load: dict) -> dict:
    import numpy as np  # imported late: see the module docstring

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_requested": int(blas_threads), "threads_reported": _blas_threads()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "commit": _commit(root),
        "source_sha256": source_digest(root / "src"),
        "load": load,
    }

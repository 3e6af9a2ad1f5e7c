"""Host fingerprint printed beside every result.

Everything here is standard library only: ``run.py`` imports this module
at top level, and the process backend's spawned workers re-import
``run.py``, so nothing heavy may load at import time.
"""

from __future__ import annotations

import ctypes
import hashlib
import multiprocessing
import os
import pathlib
import platform
import subprocess
import sys
import time

#: Iterations of the fixed pure-Python probe loop (about 25 ms on a
#: 2-core Xeon VM): short enough to run before and after every timed
#: phase, long enough to show host drift between runs.
PROBE_ITERATIONS = 300_000
#: Probe loops per process when measuring two-process parallel capacity.
CAPACITY_LOOPS = 12


def cpu_probe_ms() -> float:
    """Wall time of one fixed CPU loop, in milliseconds."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return (time.perf_counter() - start) * 1e3


def _capacity_child(loops: int, go, out) -> None:
    out.send("ready")
    go.wait()
    start = time.perf_counter()
    for _ in range(loops):
        cpu_probe_ms()
    out.send(time.perf_counter() - start)
    out.close()


def parallel_capacity() -> float:
    """Aggregate throughput of two concurrent CPU-bound processes over one.

    2.0 means two full cores; a shared or throttled host reads lower.
    The children start their fixed loop together once all are up, and
    each is joined before return.
    """
    ctx = multiprocessing.get_context("spawn")

    def run(count: int) -> float:
        go = ctx.Event()
        pipes, procs = [], []
        for _ in range(count):
            parent, child = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_capacity_child, args=(CAPACITY_LOOPS, go, child)
            )
            proc.start()
            child.close()
            pipes.append(parent)
            procs.append(proc)
        try:
            for pipe in pipes:
                pipe.recv()
            go.set()
            seconds = [pipe.recv() for pipe in pipes]
        finally:
            for proc in procs:
                proc.join(timeout=30)
                if proc.is_alive():
                    proc.kill()
                    proc.join()
        return max(seconds)

    single = run(1)
    double = run(2)
    return 2.0 * single / double


def _source_hash(src: pathlib.Path) -> str:
    """sha256 over the program's Python sources (stable without git)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha(root: pathlib.Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    # A checkout that is not itself a git work tree reports "unknown",
    # not the sha of some enclosing repository.
    if out.returncode != 0 or len(lines) != 2 or pathlib.Path(lines[0]) != root:
        return "unknown"
    return lines[1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    """OpenBLAS version and thread count of the BLAS numpy loaded."""
    import numpy as np

    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": config.get("name"), "version": config.get("version")}
    threads = None
    try:
        with open("/proc/self/maps") as handle:
            libs = {
                line.split()[-1]
                for line in handle
                if "openblas" in line.lower() and line.rstrip().endswith(".so")
            }
    except OSError:
        libs = set()
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    info["threads"] = threads
    return info


def fingerprint(root: pathlib.Path) -> dict:
    """Static facts about the host and the program under test."""
    import numpy as np
    import scipy

    return {
        "git_sha": _git_sha(root),
        "src_sha256": _source_hash(root / "src"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
    }

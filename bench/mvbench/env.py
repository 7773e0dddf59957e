"""Process set-up that must happen before numpy is imported.

Nothing here imports numpy, scipy or multivital: the thread variables are
read by the BLAS/OpenMP runtimes when those libraries load.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import os
import platform
import sys
import time
from pathlib import Path

THREAD_VARS = (
    "MULTIVITAL_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
)

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"

# A fixed pure-Python loop; its time shows how fast the host ran around a
# run. It is reported next to the metrics and never used to scale them.
REF_LOOP_N = 1_500_000


def configure_threads() -> dict[str, str]:
    """Run on one CPU and size every thread pool to the CPUs left to us.

    The process keeps the last CPU it may run on and leaves the others to
    the OS and whatever else runs. On a shared 2-CPU VM a phantom op on two
    threads took ~10 % more CPU time than on one even on a quiet host. The
    thread variables then follow the usable CPU count, which is 1.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    n = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = n
    return {var: os.environ[var] for var in THREAD_VARS}


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_MAX = -4


def keep_freed_memory() -> str:
    """Make malloc keep freed memory in the process instead of unmapping it.

    Every op allocates and frees arrays of hundreds of MB. By default glibc
    maps each of them afresh and unmaps it on free, so every op faults its
    pages in again (~130 000 faults and 1-2 s of system time per phantom op),
    and on a shared VM the cost of a fault moves with host load. With mmap
    off and trimming off, later ops reuse pages the first ops faulted in.
    Returns what was set.
    """
    name = ctypes.util.find_library("c")
    libc = ctypes.CDLL(name) if name else None
    if libc is None or not hasattr(libc, "mallopt"):
        return "default"
    # glibc reads the threshold as a size_t, so -1 means never trim
    ok = libc.mallopt(_M_MMAP_MAX, 0) and libc.mallopt(_M_TRIM_THRESHOLD, -1)
    return "mmap_max=0,trim=off" if ok else "default"


def use_checkout_sources() -> None:
    """Import multivital from this checkout's src/, never from elsewhere.

    Raises SystemExit when the checkout holds no sources, so a copy of the
    benchmark alone fails before it measures anything.
    """
    if not (SRC_DIR / "multivital" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no multivital sources under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))


def ref_loop_s() -> float:
    t = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP_N):
        acc += i
    return time.perf_counter() - t


def describe_host(threads: dict[str, str]) -> str:
    import numpy
    import scipy

    fields = dict(threads)
    fields.update(
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        python=platform.python_version(),
    )
    return " ".join(f"{k}={v}" for k, v in fields.items())

"""Small shared helpers: thread-count resolution, atomic file writes,
giving back the pages of a read-only file mapping."""

from __future__ import annotations

import mmap
import os
import tempfile
from collections.abc import Iterable

import numpy as np

from .errors import ConfigError

THREADS_ENV = "MULTIVITAL_THREADS"


def thread_count() -> int:
    """Worker thread cap from the MULTIVITAL_THREADS environment variable.

    Unset or 0 means auto: the CPUs this process may run on (its affinity
    set where the platform has one, else the cpu count), capped at 8.
    Values below 0 or non-integers are rejected.
    """
    raw = os.environ.get(THREADS_ENV, "0")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    if n < 0:
        raise ConfigError(f"{THREADS_ENV} must be >= 0, got {n}")
    if n == 0:
        if hasattr(os, "sched_getaffinity"):
            usable = len(os.sched_getaffinity(0))
        else:
            usable = os.cpu_count() or 1
        return min(usable, 8)
    return n


def atomic_write_bytes(path: str, chunks: Iterable) -> None:
    """Write byte chunks in order to path via a temp file in the same directory plus rename.

    A chunk is any C-contiguous buffer (bytes, a numpy array), written from
    its own memory without a copy. Each chunk is written before the next is
    taken from chunks, so a generator may hand out one reused buffer. If
    chunks raises, nothing is renamed and the temp file is removed.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    except FileNotFoundError as exc:  # it names the temp file, not path
        raise FileNotFoundError(exc.errno, "no such directory", path) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, [text.encode("utf-8")])


def release_pages(a: np.ndarray) -> None:
    """Give back the resident pages of the read-only file mapping that the
    numpy array a views; do nothing when a views anything else.

    Only a mapping opened read-only (mmap.ACCESS_READ, so shared) is
    released: the page cache keeps its data, and the next read faults the
    pages back in from there. A writable private mapping's pages hold the
    only copy of what was written to them, and MADV_DONTNEED would drop it.
    """
    base = a
    while isinstance(base, np.ndarray):
        base = base.base
    mapping = base.obj if isinstance(base, memoryview) else None
    if not isinstance(mapping, mmap.mmap) or not hasattr(mmap, "MADV_DONTNEED"):
        return
    with memoryview(mapping) as view:
        if view.readonly:
            mapping.madvise(mmap.MADV_DONTNEED)

"""Small shared helpers: thread-count resolution, CSV cells and lines, atomic file writes."""

from __future__ import annotations

import csv
import io
import itertools
import os
import tempfile

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


def csv_cells(*cells: str) -> str:
    """cells as they appear inside a CSV row, quoted exactly as csv.writer quotes them.

    Formatted between two empty cells so the one-field special case of
    csv.writer never applies.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(["", *cells, ""])
    return buf.getvalue()[1:-1]


def csv_data_line(path: str, k: int) -> int:
    """Line on which the k-th non-blank row after the header of a CSV file ends."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        ends = (reader.line_num for row in reader if row)
        return next(itertools.islice(ends, k + 1, None))


def atomic_write_bytes(path: str, *chunks) -> None:
    """Write byte chunks in order to path via a temp file in the same directory plus rename.

    A chunk is any C-contiguous buffer (bytes, a numpy array), written from
    its own memory without a copy.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
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
    atomic_write_bytes(path, text.encode("utf-8"))

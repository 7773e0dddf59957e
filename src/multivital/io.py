"""File formats: MVDC raw-cube binary, trace CSV, SCG input and output CSV,
angle-map CSV, report JSON.

MVDC layout (little-endian, 72-byte header):

    offset  size  field
    0       4     magic "MVDC"
    4       4     u32 version (currently 1)
    8       16    u32 n_frames, n_tx, n_rx, n_samples
    24      40    f64 fc, fs, k_chirp, prt, t_frame
    64      8     u64 seed

followed by the samples as complex64 (interleaved float32 I, Q) in frame,
tx, rx, sample order. Chirps-per-frame is not stored: cubes hold one chirp
per frame, and the frame timing lives in t_frame.
"""

from __future__ import annotations

import csv
import io as _io
import itertools
import json
import math
import mmap
import os
import struct
from collections.abc import Iterable

import numpy as np

from ._util import atomic_write_bytes, atomic_write_text
from .config import ChirpConfig
from .doa import AngleMap
from .errors import ConfigError, CubeFormatError, ProcessingError
from .geometry import ArrayGeometry
from .scg import ScgChannel, ScgTrace
from .simulate import RawDataCube, _check_seed
from .vitals import DisplacementTrace

_CHUNK_CELLS = 32768  # CSV cells converted at a time: 8192 rows of a 4-column trace CSV
_SCG_AXES = ("x", "y", "z")  # <region>_a<axis> columns of an SCG recording

MVDC_MAGIC = b"MVDC"
MVDC_VERSION = 1
_HEADER = struct.Struct("<4s5I5dQ")  # 72 bytes


def save_cube(cube: RawDataCube, path: str) -> None:
    """Write a RawDataCube to an MVDC file (atomic replace).

    Raises
    ------
    ConfigError
        a cube that does not validate; no file is written.
    """
    cube.validate()
    write_cube(path, cube.chirp, cube.geometry, cube.seed, [cube.samples])


def write_cube(
    path: str, chirp: ChirpConfig, geometry: ArrayGeometry, seed: int,
    chunks: Iterable[np.ndarray],
) -> None:
    """Write a cube's frames, given in consecutive chunks, to an MVDC file
    (atomic replace).

    Each chunk is a complex array (frames, n_tx, n_rx, n_adc), written
    before the next is taken from chunks, so a generator may hand out one
    reused buffer (simulate_chunks does). save_cube is the one-chunk case.

    Raises
    ------
    ConfigError
        a seed that is not an integer in [0, 2**64), a chunk whose channels
        or samples do not match geometry and chirp, or chunks whose frames
        do not add up to chirp.n_frames; the file at path is then left as
        it was.
    """
    chirp.validate()
    _check_seed(seed, "cube")
    shape = (geometry.n_tx, geometry.n_rx, chirp.n_adc)

    def payload():
        yield _HEADER.pack(
            MVDC_MAGIC, MVDC_VERSION, chirp.n_frames, *shape,
            chirp.fc, chirp.fs, chirp.k_chirp, chirp.prt, chirp.t_frame, seed,
        )
        frames = 0
        for chunk in chunks:
            if chunk.shape[1:] != shape:
                raise ConfigError(f"cube chunk shape {chunk.shape} does not match meta {shape}")
            frames += len(chunk)
            yield np.ascontiguousarray(chunk, dtype="<c8")
        if frames != chirp.n_frames:
            raise ConfigError(f"cube chunks hold {frames} frames, meta says {chirp.n_frames}")

    atomic_write_bytes(path, payload())


def load_cube(path: str, geometry: ArrayGeometry) -> RawDataCube:
    """Read an MVDC file back into a RawDataCube.

    The file carries no antenna positions: geometry is the array the cube
    was recorded or simulated with.

    The samples are a read-only view of the file, mapped (mmap.ACCESS_READ)
    rather than read: nothing is copied, pages are read as they are first
    touched, and run_pipeline gives them back a frame chunk at a time.
    Writing to them raises ValueError; .copy() them to modify. Replacing
    the file by a rename (as save_cube does) leaves the mapping valid;
    truncating it in place while it is mapped makes a later read of the
    cut pages raise SIGBUS.

    Raises
    ------
    CubeFormatError
        bad magic, unsupported version, truncated header, a payload whose
        size does not match the header, a geometry whose channel count
        does not match the header, or chirp values that are not finite and
        positive or whose ADC window exceeds the PRT.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise CubeFormatError(
                f"{path}: truncated header, {len(head)} bytes < {_HEADER.size}"
            )
        magic, version, n_frames, n_tx, n_rx, n_samples, fc, fs, k_chirp, prt, t_frame, seed = (
            _HEADER.unpack(head)
        )
        if magic != MVDC_MAGIC:
            raise CubeFormatError(f"{path}: bad magic {magic!r}, expected {MVDC_MAGIC!r}")
        if version != MVDC_VERSION:
            raise CubeFormatError(
                f"{path}: unsupported version {version}, this build reads {MVDC_VERSION}"
            )
        expected = 8 * n_frames * n_tx * n_rx * n_samples
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != expected:
            raise CubeFormatError(
                f"{path}: payload is {size} bytes, the header implies {expected}"
            )
        if (geometry.n_tx, geometry.n_rx) != (n_tx, n_rx):
            raise CubeFormatError(
                f"{path}: geometry is {geometry.n_tx}x{geometry.n_rx} but the "
                f"header says {n_tx}x{n_rx}"
            )
        chirp = ChirpConfig(
            fc=fc, prt=prt, t_frame=t_frame, n_adc=n_samples, fs=fs,
            k_chirp=k_chirp, n_frames=n_frames,
        )
        try:
            chirp.validate()
        except ConfigError as exc:
            raise CubeFormatError(f"{path}: {exc}") from None
        mapping = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    got = len(mapping) - _HEADER.size
    if got != expected:  # the file changed size since it was checked
        mapping.close()
        raise CubeFormatError(f"{path}: payload is {got} bytes, the header implies {expected}")
    samples = np.frombuffer(mapping, dtype="<c8", count=expected // 8, offset=_HEADER.size)
    return RawDataCube(
        samples=samples.reshape(n_frames, n_tx, n_rx, n_samples).astype(np.complex64, copy=False),
        chirp=chirp, geometry=geometry, seed=int(seed),
    ).validate()


def export_traces(traces: list[DisplacementTrace], path: str) -> None:
    """Write displacement traces as CSV: time_s, region, phase_rad, displacement_mm.

    Rows are region-major in the given trace order; floats use repr
    precision so a reload reproduces them exactly. Each trace's rows are
    encoded as one chunk and written before the next is made, so no more
    than one trace is held as text.
    """
    if not traces:
        raise ProcessingError("no traces to export")

    def chunks():
        yield b"time_s,region,phase_rad,displacement_mm\n"
        for tr in traces:
            region = _csv_cells(tr.region)
            yield "".join([
                f"{t!r},{region},{ph!r},{d!r}\n"
                for t, ph, d in zip(tr.times.tolist(), tr.phase.tolist(), tr.displacement.tolist())
            ]).encode("utf-8")

    atomic_write_bytes(path, chunks())


def export_scg_traces(traces: list[ScgTrace], ecg: np.ndarray, path: str) -> None:
    """Write SCG displacement traces as CSV: time_s, region, axis, displacement_mm, ecg.

    One block of rows per trace in the given order. Every trace spans the
    recording, so its row i carries ecg[i]. The time cells are formatted
    once per (fs, length), as the traces of one recording share them. Each
    trace's rows are encoded as one chunk and written before the next is
    made, so no more than one trace is held as text. A trace whose length
    is not the ecg's is a ProcessingError, raised before anything is written.
    """
    for tr in traces:
        if len(tr.displacement) != len(ecg):
            raise ProcessingError(
                f"SCG trace {tr.region}.{tr.axis} has {len(tr.displacement)} samples "
                f"but the ecg has {len(ecg)}"
            )
    ecg_cells = [repr(v) for v in ecg.tolist()]
    time_cells: dict[tuple[float, int], list[str]] = {}

    def chunks():
        yield b"time_s,region,axis,displacement_mm,ecg\n"
        for tr in traces:
            n = len(tr.displacement)
            if (tr.fs, n) not in time_cells:
                time_cells[tr.fs, n] = [f"{i / tr.fs!r}" for i in range(n)]
            keys = [_csv_cells(tr.region, tr.axis)] * n
            rows = zip(time_cells[tr.fs, n], keys, map(repr, tr.displacement.tolist()),
                       ecg_cells, strict=True)
            yield ("\n".join(map(",".join, rows)) + "\n").encode("utf-8")

    atomic_write_bytes(path, chunks())


def read_trace_table(path: str) -> dict[str, dict[str, np.ndarray]]:
    """Read a trace CSV back, grouped by region (plus axis when present).

    Accepts the radar trace schema (time_s, region, phase_rad,
    displacement_mm) and the SCG schema (time_s, region, axis,
    displacement_mm, ...). Keys are the region id, or "region.axis".
    Blank lines and fields past the ones read are ignored.

    Returns
    -------
    dict key -> {"time_s": ndarray, "displacement_mm": ndarray, ...}

    Raises
    ------
    ProcessingError
        Naming the file, and the line where there is one, when the file is
        not UTF-8 CSV, lacks a required column or data rows, names a column
        it reads more than once, has a row too short for the columns read,
        holds a value that is not a finite number, or has a key whose
        time_s does not strictly increase.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        chunks = _csv_chunks(path, fh)
        header = next(chunks)
        missing = {"time_s", "region", "displacement_mm"} - set(header)
        if missing:
            raise ProcessingError(f"{path}: missing columns {sorted(missing)}")
        _check_unique(path, header, ("time_s", "region", "axis", "displacement_mm", "phase_rad"))
        columns = {name: header.index(name)
                   for name in ("time_s", "displacement_mm", "phase_rad") if name in header}
        region = header.index("region")
        axis = header.index("axis") if "axis" in header else None
        width = 1 + max(region, axis or 0, *columns.values())
        group_of: dict[str, int] = {}  # key -> group number, in first-seen order
        groups: list[int] = []  # group number of every data row
        parts: dict[str, list[np.ndarray]] = {name: [] for name in columns}
        for chunk in chunks:
            if min(map(len, chunk)) < width:
                i = next(i for i, row in enumerate(chunk) if len(row) < width)
                raise ProcessingError(
                    f"{path}, line {_data_row(path, len(groups) + i)[0]}: {len(chunk[i])} "
                    f"fields, the columns read need {width}"
                )
            if axis is None:
                keys = (row[region] for row in chunk)
            else:
                keys = (f"{row[region]}.{row[axis]}" for row in chunk)
            for name, col in columns.items():
                parts[name].append(
                    _finite_column(path, [row[col] for row in chunk], name, len(groups))
                )
            groups += [group_of.setdefault(key, len(group_of)) for key in keys]
    if not group_of:
        raise ProcessingError(f"{path}: no data rows")
    number = np.array(groups)
    values = {name: np.concatenate(p) for name, p in parts.items()}
    table = {}
    for key, g in group_of.items():
        rows = np.flatnonzero(number == g)
        table[key] = entry = {name: v[rows] for name, v in values.items()}
        _check_time_increases(path, entry["time_s"], rows, columns["time_s"], f"{key} ")
    return table


def load_scg_csv(path: str) -> tuple[list[ScgChannel], np.ndarray, np.ndarray]:
    """Read a multi-channel SCG recording.

    Expected columns: time_s, then three acceleration columns per region
    named <region>_ax, <region>_ay, <region>_az, then ecg. The ECG column
    is returned untouched. Blank lines are ignored.

    Returns
    -------
    (channels, ecg, time_s)

    Raises
    ------
    ProcessingError
        For an empty file, a wrong header, one that names a column more
        than once or one with no acceleration columns, fewer than 2 rows or
        time steps that imply no finite rate, and, naming the line, for
        text that is not UTF-8 CSV, a row whose field count differs from
        the header's, a cell that is not a finite number or a time_s that
        does not strictly increase.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        chunks = _csv_chunks(path, fh)
        header = [h.strip() for h in next(chunks)]
        if header[0] != "time_s" or header[-1] != "ecg" or len(header) < 3:
            raise ProcessingError(
                f"{path}: expected columns time_s, <region>_a[xyz]..., ecg; got {header}"
            )
        _check_unique(path, header, header)
        width = len(header)
        parts: list[list[np.ndarray]] = [[] for _ in header]
        n = 0  # data rows read
        for chunk in chunks:
            ragged = next((i for i, row in enumerate(chunk) if len(row) != width), None)
            if ragged is not None:
                raise ProcessingError(
                    f"{path}, line {_data_row(path, n + ragged)[0]}: ragged rows, "
                    f"{len(chunk[ragged])} fields under {width} columns"
                )
            for part, name, cells in zip(parts, header, zip(*chunk)):
                part.append(_finite_column(path, cells, name, n))
            n += len(chunk)
    if n < 2:
        raise ProcessingError(f"{path}: need at least 2 samples")
    time_s, *accel, ecg = map(np.concatenate, parts)
    _check_time_increases(path, time_s, range(n), 0)
    try:
        fs = trace_rate_hz(time_s)
    except ProcessingError as exc:
        raise ProcessingError(f"{path}: {exc}") from None

    regions: dict[str, dict[str, np.ndarray]] = {}
    for name, values in zip(header[1:-1], accel):
        if "_a" not in name or name[-1] not in _SCG_AXES:
            raise ProcessingError(f"{path}: unrecognized column {name!r}")
        region, axis = name.rsplit("_a", 1)
        regions.setdefault(region, {})[axis] = values
    channels = []
    for region, cols in regions.items():
        missing = [ax for ax in _SCG_AXES if ax not in cols]
        if missing:
            raise ProcessingError(f"{path}: region {region} lacks axes {missing}")
        channels.append(
            ScgChannel(
                fs=fs, ax=cols["x"], ay=cols["y"], az=cols["z"], region=region
            ).validate()
        )
    return channels, ecg, time_s


def _csv_chunks(path: str, fh):
    """Non-blank rows of an open CSV text file: the header row, then lists
    of data rows, as many per list as fit _CHUNK_CELLS cells at the
    header's width.

    Rows are converted a chunk at a time, so the cell strings held at once
    are bounded by the chunk size, not the file size, whatever the width.
    Each list is emptied before the next is read, so the rows of one chunk
    are freed before the next chunk's are made: keep nothing of a chunk
    but what is taken out of it.
    """
    reader = csv.reader(fh)
    rows = filter(None, reader)
    try:
        if (header := next(rows, None)) is None:
            raise ProcessingError(f"{path}: empty file")
        yield header
        size = max(1, _CHUNK_CELLS // len(header))
        while chunk := list(itertools.islice(rows, size)):
            yield chunk
            chunk.clear()
    except csv.Error as exc:
        raise ProcessingError(f"{path}, line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _not_utf8(path: str) -> ProcessingError:
    """The error for a file that is not UTF-8, naming the line of its first bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return ProcessingError(f"{path}, line {line}: not UTF-8 text")
    return ProcessingError(f"{path}: not UTF-8 text")  # the file changed since


def _csv_cells(*cells: str) -> str:
    """cells as they appear inside a CSV row, quoted exactly as csv.writer quotes them.

    Formatted between two empty cells so the one-field special case of
    csv.writer never applies.
    """
    buf = _io.StringIO()
    csv.writer(buf, lineterminator="").writerow(["", *cells, ""])
    return buf.getvalue()[1:-1]


def _data_row(path: str, k: int) -> tuple[int, list[str]]:
    """The k-th non-blank row after the header of a CSV file: the line it ends on, and its cells."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = ((reader.line_num, row) for row in reader if row)
        return next(itertools.islice(rows, k + 1, None))


def _check_unique(path: str, header: list[str], names: Iterable[str]) -> None:
    """Raise ProcessingError naming the first of names that header holds
    more than once: which of its columns is meant cannot be told."""
    for name in names:
        if header.count(name) > 1:
            raise ProcessingError(f"{path}: column {name!r} appears more than once")


def _check_time_increases(
    path: str, time_s: np.ndarray, rows: np.ndarray | range, col: int, key: str = "",
) -> None:
    """Raise ProcessingError naming the line where time_s, read from cell
    col of data rows rows (one per value), first fails to strictly
    increase; key prefixes the column name in the message."""
    increasing = time_s[1:] > time_s[:-1]
    if not increasing.all():
        k = int(np.argmin(increasing)) + 1
        line, row = _data_row(path, int(rows[k]))
        before = _data_row(path, int(rows[k - 1]))[1][col]
        raise ProcessingError(
            f"{path}, line {line}: {key}time_s {row[col]!r} "
            f"does not increase on the {before!r} before it"
        )


def _finite_column(path: str, cells: list[str] | tuple[str, ...], name: str, first: int) -> np.ndarray:
    """Cells of consecutive data rows, from data row first on, as float64.

    Raises ProcessingError naming the line of the first cell that is not a
    finite number.
    """
    try:
        out = np.fromiter(map(float, cells), np.float64, count=len(cells))
    except ValueError:
        out = np.array([_float_or_nan(c) for c in cells])
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        k = int(bad[0])
        raise ProcessingError(
            f"{path}, line {_data_row(path, first + k)[0]}: {name} {cells[k]!r} "
            "is not a finite number"
        )
    return out


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def trace_rate_hz(time_s: np.ndarray) -> float:
    """Sample rate implied by a time column; it must be finite and positive."""
    if len(time_s) < 2:
        raise ProcessingError("need at least 2 samples to infer a rate")
    with np.errstate(over="ignore", divide="ignore"):  # past the float range reads as inf
        fs = float(1.0 / np.median(np.diff(time_s)))
    if not 0 < fs < math.inf:
        raise ProcessingError(f"time_s steps imply a sample rate of {fs} Hz")
    return fs


def export_angle_map(am: AngleMap, path: str) -> None:
    """Write an angle map as a CSV grid, angles in degrees on the margins.

    Every cell is a float's repr, which never needs CSV quoting, so each
    row is joined as it stands and the bytes are those csv.writer gives.
    """
    lines = [",".join(["azimuth_deg\\elevation_deg",
                       *map(repr, np.degrees(am.elevation_grid).tolist())])]
    for az, row in zip(np.degrees(am.azimuth_grid).tolist(), am.power.tolist(), strict=True):
        lines.append(",".join([repr(az), *map(repr, row)]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_report(report: dict, path: str) -> None:
    """Serialize a report dict as pretty JSON (atomic replace)."""
    atomic_write_text(path, json.dumps(report, indent=2, sort_keys=False) + "\n")

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
import os
import struct

import numpy as np

from ._util import atomic_write_bytes, atomic_write_text
from .config import ChirpConfig
from .doa import AngleMap
from .errors import ConfigError, CubeFormatError, ProcessingError
from .geometry import ArrayGeometry
from .scg import ScgChannel, ScgTrace
from .simulate import RawDataCube
from .vitals import DisplacementTrace

_CHUNK_CELLS = 32768  # CSV cells converted at a time: 8192 rows of a 4-column trace CSV
_SCG_AXES = ("x", "y", "z")  # <region>_a<axis> columns of an SCG recording

MVDC_MAGIC = b"MVDC"
MVDC_VERSION = 1
_HEADER = struct.Struct("<4s5I5dQ")  # 72 bytes


def save_cube(cube: RawDataCube, path: str) -> None:
    """Write a RawDataCube to an MVDC file (atomic replace)."""
    cube.validate()
    n_frames, n_tx, n_rx, n_samples = cube.samples.shape
    header = _HEADER.pack(
        MVDC_MAGIC,
        MVDC_VERSION,
        n_frames,
        n_tx,
        n_rx,
        n_samples,
        cube.chirp.fc,
        cube.chirp.fs,
        cube.chirp.k_chirp,
        cube.chirp.prt,
        cube.chirp.t_frame,
        cube.seed & 0xFFFFFFFFFFFFFFFF,
    )
    atomic_write_bytes(path, header, np.ascontiguousarray(cube.samples, dtype="<c8"))


def load_cube(path: str, geometry: ArrayGeometry | None = None) -> RawDataCube:
    """Read an MVDC file back into a RawDataCube.

    The file carries no antenna positions; pass the geometry used when the
    cube was simulated. Without one, a 12x16 channel layout is assumed to
    be the cascade board.

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
        if geometry is None:
            if (n_tx, n_rx) != (12, 16):
                raise CubeFormatError(
                    f"{path}: no geometry given and {n_tx}x{n_rx} channels do not "
                    "match the cascade layout"
                )
            geometry = ArrayGeometry.ti_cascade()
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
        # Read the payload straight into the array that the cube keeps.
        samples = np.empty((n_frames, n_tx, n_rx, n_samples), dtype="<c8")
        got = fh.readinto(samples.reshape(-1).view(np.uint8))
    if got != expected:
        raise CubeFormatError(
            f"{path}: truncated payload, expected {expected} bytes, got {got}"
        )
    return RawDataCube(
        samples=samples.astype(np.complex64, copy=False), chirp=chirp, geometry=geometry,
        seed=int(seed),
    ).validate()


def export_traces(traces: list[DisplacementTrace], path: str) -> None:
    """Write displacement traces as CSV: time_s, region, phase_rad, displacement_mm.

    Rows are region-major in the given trace order; floats use repr
    precision so a reload reproduces them exactly. Each trace's rows are
    encoded as one chunk, so no more than one trace is held as text.
    """
    if not traces:
        raise ProcessingError("no traces to export")
    chunks = [b"time_s,region,phase_rad,displacement_mm\n"]
    for tr in traces:
        region = _csv_cells(tr.region)
        chunks.append("".join([
            f"{t!r},{region},{ph!r},{d!r}\n"
            for t, ph, d in zip(tr.times.tolist(), tr.phase.tolist(), tr.displacement.tolist())
        ]).encode("utf-8"))
    atomic_write_bytes(path, *chunks)


def export_scg_traces(traces: list[ScgTrace], ecg: np.ndarray, path: str) -> None:
    """Write SCG displacement traces as CSV: time_s, region, axis, displacement_mm, ecg.

    One block of rows per trace in the given order. Every trace spans the
    recording, so its row i carries ecg[i]. Each trace's rows are encoded
    as one chunk, so no more than one trace is held as text.
    """
    ecg_cells = [repr(v) for v in ecg.tolist()]
    chunks = [b"time_s,region,axis,displacement_mm,ecg\n"]
    for tr in traces:
        key = _csv_cells(tr.region, tr.axis)
        chunks.append("".join([
            f"{i / tr.fs!r},{key},{d!r},{e}\n"
            for i, (d, e) in enumerate(zip(tr.displacement.tolist(), ecg_cells, strict=True))
        ]).encode("utf-8"))
    atomic_write_bytes(path, *chunks)


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
        not UTF-8 CSV, lacks a required column or data rows, has a row too
        short for the columns read, or holds a value that is not a finite
        number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        chunks = _csv_chunks(path, fh)
        header = next(chunks)
        missing = {"time_s", "region", "displacement_mm"} - set(header)
        if missing:
            raise ProcessingError(f"{path}: missing columns {sorted(missing)}")
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
                keys = [row[region] for row in chunk]
            else:
                keys = [f"{row[region]}.{row[axis]}" for row in chunk]
            for name, col in columns.items():
                parts[name].append(
                    _finite_column(path, [row[col] for row in chunk], name, len(groups))
                )
            groups += [group_of.setdefault(key, len(group_of)) for key in keys]
    if not group_of:
        raise ProcessingError(f"{path}: no data rows")
    number = np.array(groups)
    values = {name: np.concatenate(p) for name, p in parts.items()}
    return {
        key: {name: v[number == g] for name, v in values.items()}
        for key, g in group_of.items()
    }


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
        For an empty file, a wrong header, fewer than 2 rows or time steps
        that imply no finite rate, and, naming the line, for text that is
        not UTF-8 CSV, a row whose field count differs from the header's, a
        cell that is not a finite number or a time_s that does not strictly
        increase.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        chunks = _csv_chunks(path, fh)
        header = [h.strip() for h in next(chunks)]
        if header[0] != "time_s" or header[-1] != "ecg":
            raise ProcessingError(
                f"{path}: expected columns time_s, <region>_a[xyz]..., ecg; got {header}"
            )
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
    increasing = time_s[1:] > time_s[:-1]
    if not increasing.all():
        k = int(np.argmin(increasing)) + 1
        line, row = _data_row(path, k)
        raise ProcessingError(
            f"{path}, line {line}: time_s {row[0]!r} does not "
            f"increase on the {_data_row(path, k - 1)[1][0]!r} before it"
        )
    with np.errstate(over="ignore"):  # a step past the float range reads as inf
        fs = 1.0 / float(np.median(np.diff(time_s)))
    if not 0 < fs < math.inf:
        raise ProcessingError(f"{path}: time_s steps imply a sample rate of {fs} Hz")

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


def _finite_column(path: str, cells: list[str] | tuple[str, ...], name: str, first: int) -> np.ndarray:
    """Cells of consecutive data rows, from data row first on, as float64.

    Raises ProcessingError naming the line of the first cell that is not a
    finite number.
    """
    try:
        out = np.array(cells, dtype=np.float64)
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
    """Sample rate implied by a time column."""
    if len(time_s) < 2:
        raise ProcessingError("need at least 2 samples to infer a rate")
    return 1.0 / float(np.median(np.diff(time_s)))


def export_angle_map(am: AngleMap, path: str) -> None:
    """Write an angle map as a CSV grid, angles in degrees on the margins."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["azimuth_deg\\elevation_deg"]
        + [repr(float(np.degrees(e))) for e in am.elevation_grid]
    )
    for i, az in enumerate(am.azimuth_grid):
        writer.writerow(
            [repr(float(np.degrees(az)))] + [repr(float(v)) for v in am.power[i]]
        )
    atomic_write_text(path, buf.getvalue())


def write_report(report: dict, path: str) -> None:
    """Serialize a report dict as pretty JSON (atomic replace)."""
    atomic_write_text(path, json.dumps(report, indent=2, sort_keys=False) + "\n")

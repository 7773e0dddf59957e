"""File formats: MVDC raw-cube binary, trace CSV, angle-map CSV, report JSON.

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
import json
import os
import struct

import numpy as np

from ._util import atomic_write_bytes, atomic_write_text
from .config import ChirpConfig
from .doa import AngleMap
from .errors import ConfigError, CubeFormatError, ProcessingError
from .geometry import ArrayGeometry
from .simulate import RawDataCube
from .vitals import DisplacementTrace

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
    precision so a reload reproduces them exactly.
    """
    if not traces:
        raise ProcessingError("no traces to export")
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["time_s", "region", "phase_rad", "displacement_mm"])
    for tr in traces:
        for t, ph, d in zip(tr.times, tr.phase, tr.displacement):
            writer.writerow([repr(float(t)), tr.region, repr(float(ph)), repr(float(d))])
    atomic_write_text(path, buf.getvalue())


def read_trace_table(path: str) -> dict[str, dict[str, np.ndarray]]:
    """Read a trace CSV back, grouped by region (plus axis when present).

    Accepts the radar trace schema (time_s, region, phase_rad,
    displacement_mm) and the SCG schema (time_s, region, axis,
    displacement_mm, ...). Keys are the region id, or "region.axis".

    Returns
    -------
    dict key -> {"time_s": ndarray, "displacement_mm": ndarray, ...}
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ProcessingError(f"{path}: empty file")
        required = {"time_s", "region", "displacement_mm"}
        missing = required - set(reader.fieldnames)
        if missing:
            raise ProcessingError(f"{path}: missing columns {sorted(missing)}")
        has_axis = "axis" in reader.fieldnames
        has_phase = "phase_rad" in reader.fieldnames
        grouped: dict[str, dict[str, list[float]]] = {}
        for row in reader:
            key = row["region"] + ("." + row["axis"] if has_axis else "")
            g = grouped.setdefault(
                key, {"time_s": [], "displacement_mm": [], "phase_rad": []}
            )
            try:
                g["time_s"].append(float(row["time_s"]))
                g["displacement_mm"].append(float(row["displacement_mm"]))
                if has_phase:
                    g["phase_rad"].append(float(row["phase_rad"]))
            except (TypeError, ValueError):
                raise ProcessingError(f"{path}: non-numeric row {row}") from None
    if not grouped:
        raise ProcessingError(f"{path}: no data rows")
    return {
        key: {col: np.array(vals) for col, vals in g.items() if vals}
        for key, g in grouped.items()
    }


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

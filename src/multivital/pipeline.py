"""End-to-end processing: cube -> range -> angles -> region traces."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from ._util import release_pages
from .config import derive_waveform
from .doa import Beamformer, angle_map, select_region_signal
# Not called here (Beamformer.build makes the table): kept so
# multivital.pipeline.build_phase_error_table stays importable; the bench
# tracer wraps it at this name.
from .doa import build_phase_error_table  # noqa: F401
from .errors import ProcessingError
from .geometry import build_virtual_array, select_azimuth_ula
from .metrics import SensorLayout, compute_alignment
from .rangeproc import NOT_FINITE, extract_range_bin, locate_subject, range_fft
from .runconfig import PipelineConfig
from .simulate import RawDataCube
from .vitals import DisplacementTrace, region_signal_to_trace

_CHUNK_BYTES = 32 << 20  # frame data held at a time: simulate's raw frames, a chunk's range bins


@dataclass(frozen=True)
class PipelineResult:
    """Everything the processing stage produces for one cube."""

    range_bin: int
    range_m: float
    azimuth_peak_rad: float
    elevation_peak_rad: float
    region_points: dict[str, tuple[float, float, float]]  # m, as compute_alignment
    traces: list[DisplacementTrace]
    beamformer: Beamformer


def estimate_angles(bf: Beamformer, y: np.ndarray) -> tuple[float, float]:
    """Azimuth/elevation of the strongest return in subject-bin data y.

    Azimuth from the frame-averaged power of the ULA spectrum; elevation
    from frame 0 focused along that azimuth, swept in 0.25 degree steps.
    """
    n_fft = bf.n_fft
    u = 2.0 * (np.arange(n_fft) - n_fft // 2) / n_fft  # the grid's direction cosines
    power = np.mean(np.abs(bf.ula_spectrum(y)) ** 2, axis=1)
    u_peak = u[int(np.argmax(power))]
    grid = np.deg2rad(np.arange(-45.0, 45.25, 0.25))
    pattern = bf.directional_power(y, u_peak, np.sin(grid))
    return float(np.arcsin(u_peak)), float(grid[int(np.argmax(pattern))])


def _frames(cube: RawDataCube, start: int, stop: int) -> RawDataCube:
    """Frames start..stop - 1 of cube as a cube: a view, not a copy."""
    samples = cube.samples[start:stop]
    return replace(cube, samples=samples, chirp=replace(cube.chirp, n_frames=len(samples)))


def frames_per_chunk(frame_bytes: int) -> int:
    """Frames of frame_bytes each that fit in _CHUNK_BYTES, one at least."""
    return max(1, _CHUNK_BYTES // frame_bytes)


def _chunks(cube: RawDataCube, n_fft: int) -> Iterator[RawDataCube]:
    """Consecutive frame chunks of cube as views, each of at most
    _CHUNK_BYTES of range bins (one frame at least).

    Once a chunk has been used, the pages a file-mapped cube read for it
    are given back (release_pages), so a loaded cube keeps one chunk
    resident; an in-memory cube is left as it is.
    """
    step = frames_per_chunk(8 * n_fft * cube.geometry.n_tx * cube.geometry.n_rx)
    for start in range(0, len(cube.samples), step):
        yield _frames(cube, start, start + step)
        release_pages(cube.samples)


def _steered_subject(cube, pcfg, layout):
    """Subject location, wavelength, Beamformer and complex128 subject-bin
    slab for one cube, focused at the layout's z_a (its junction table on
    that depth plane), else at the subject's range (an error at 0 m).

    The cube is range-transformed a frame chunk at a time, and each chunk is
    folded into locate_subject's profile before the next is made, keeping
    its slow-time matrix at the bin leading the profile so far. The slab
    joins those matrices along frames. Only a chunk whose lead was not the
    final bin is transformed again, to take its matrix at that bin. No
    full-size range cube exists, and of a loaded cube one chunk's pages are
    resident at a time. Only when the profile is not finite are the samples
    read again, to name the cause: NaN or inf samples, or finite ones that
    overflowed the complex64 transform.
    """
    wavelength = derive_waveform(cube.chirp).wavelength
    geom = cube.geometry
    sel = select_azimuth_ula(build_virtual_array(geom))
    n_fft = pcfg.n_fft_range
    try:
        loc = locate_subject(range_fft(chunk, n_fft) for chunk in _chunks(cube, n_fft))
    except ProcessingError as err:
        if str(err) != NOT_FINITE:
            raise
        if all(np.isfinite(chunk.samples).all() for chunk in _chunks(cube, n_fft)):
            cause = "the cube's samples are finite but overflowed the complex64 range transform"
        else:
            cause = "the cube holds NaN or inf samples"
        raise ProcessingError(f"{NOT_FINITE}: {cause}") from err
    if not loc.range_m > 0:
        raise ProcessingError(
            f"subject located at {loc.range_m} m (range bin {loc.bin}): no range to focus at"
        )
    slab = np.concatenate([
        column if lead == loc.bin else extract_range_bin(range_fft(chunk, n_fft), loc.bin)
        for (lead, column), chunk in zip(loc.columns, _chunks(cube, n_fft))
    ], axis=1)
    range_z = layout.z_a if layout is not None else loc.range_m
    bf = Beamformer.build(sel, geom, pcfg.n_fft_azimuth, range_z / wavelength, layout is not None)
    return loc, wavelength, bf, slab.astype(np.complex128)


def run_pipeline(
    cube: RawDataCube,
    pcfg: PipelineConfig,
    layout: SensorLayout | None = None,
) -> PipelineResult:
    """Process a raw cube into per-region displacement traces.

    With a sensor layout, each region is focused on its scene point from
    the spatial alignment scheme. Without one, a single region "A" is
    focused at the subject's range R along the estimated azimuth and
    elevation peaks: R (sin az, sqrt(1 - sin^2 az - sin^2 el), sin el).
    """
    loc, wavelength, bf, y = _steered_subject(cube, pcfg, layout)
    az_peak, el_peak = estimate_angles(bf, y)
    if layout is not None:
        points = compute_alignment(layout)
    else:
        u, v, r = math.sin(az_peak), math.sin(el_peak), loc.range_m
        points = {"A": (r * u, r * math.sqrt(max(0.0, 1.0 - u * u - v * v)), r * v)}

    signals = select_region_signal(
        bf, y, {rid: np.divide(p, wavelength) for rid, p in points.items()}
    )
    frame_rate = cube.chirp.frame_rate
    traces = [region_signal_to_trace(s, wavelength, frame_rate) for s in signals]
    return PipelineResult(
        range_bin=loc.bin,
        range_m=loc.range_m,
        azimuth_peak_rad=az_peak,
        elevation_peak_rad=el_peak,
        region_points=points,
        traces=traces,
        beamformer=bf,
    )


def make_angle_map(cube: RawDataCube, pcfg: PipelineConfig, result: PipelineResult):
    """Angle map of frame 0 at result's subject bin, steered by result's
    Beamformer.

    Only frame 0 is range-transformed: a one-frame view of the cube.
    """
    rc = range_fft(_frames(cube, 0, 1), pcfg.n_fft_range)
    y = extract_range_bin(rc, result.range_bin).astype(np.complex128)
    return angle_map(result.beamformer, y)

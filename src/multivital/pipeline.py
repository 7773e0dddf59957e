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
from .rangeproc import NO_RETURN, NOT_FINITE, extract_range_bin, locate_subject, range_fft
from .runconfig import PipelineConfig
from .simulate import RawDataCube
from .vitals import DisplacementTrace, region_signal_to_trace

_CHUNK_BYTES = 32 << 20  # frame data held at a time: simulate's raw frames, a chunk's range bins
# (for the location subset, the gathered samples with their bins)
_SUBSET_BLOCK = 8  # the subject is first located from one frame per block of this many
_SUBSET_SEED = 8  # fixed, so every run of a cube locates from the same frames
# The whole cube is located again when the subset's profile is not clear: a
# runner-up (SubjectLocation.runner_up) above RUNNER_UP_MAX of its peak, a
# second return the subset may have misjudged (the bundled configs read 0
# and 0.007), or any other bin above SECOND_BIN_MAX of it, two bins too close
# for a subset to order (the bundled phantom's shoulder reads 0.93, A10's
# five-frequency scene 0.989, where the subset picks the shoulder).
RUNNER_UP_MAX = 0.5
SECOND_BIN_MAX = 0.95


@dataclass(frozen=True)
class PipelineResult:
    """Everything the processing stage produces for one cube."""

    range_bin: int
    range_m: float
    runner_up_ratio: float  # the location profile's SubjectLocation.runner_up
    located_frames: int  # frames the location profile was summed over
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


def _subset_frames(n_frames: int) -> np.ndarray:
    """The frames the subject is first located from, ascending: one drawn
    from each block of _SUBSET_BLOCK consecutive frames, the partial last
    block too, by a generator with a fixed seed, so every run of a cube
    draws the same frames. A jittered draw, unlike a fixed stride, does not
    alias periodic motion."""
    starts = np.arange(0, n_frames, _SUBSET_BLOCK)
    sizes = np.minimum(_SUBSET_BLOCK, n_frames - starts)
    return starts + np.random.default_rng(_SUBSET_SEED).integers(sizes)


def _subset_chunks(cube: RawDataCube, n_fft: int) -> Iterator[RawDataCube]:
    """The subset's frames of cube as copies, a chunk at a time, each chunk
    sized so that its gathered samples plus their range bins fit in
    _CHUNK_BYTES (one frame at least).

    A frame is copied in at a time, and the pages a file-mapped cube read
    for it are given back before the next (release_pages): a page fault
    maps a whole block of the file around a sparse frame (about 2 MiB), so
    gathering a chunk first would leave several times its size resident.
    """
    frames = _subset_frames(len(cube.samples))
    n_ch = cube.geometry.n_tx * cube.geometry.n_rx
    step = frames_per_chunk(8 * n_ch * (cube.chirp.n_adc + n_fft))
    for start in range(0, len(frames), step):
        picks = frames[start:start + step]
        samples = np.empty((len(picks),) + cube.samples.shape[1:], cube.samples.dtype)
        for row, frame in zip(samples, picks):
            row[...] = cube.samples[frame]
            release_pages(cube.samples)
        yield replace(cube, samples=samples, chirp=replace(cube.chirp, n_frames=len(samples)))


def _locate(cube: RawDataCube, n_fft: int):
    """locate_subject on the frame subset; on every frame instead when the
    subset's profile is all zero, its runner-up exceeds RUNNER_UP_MAX or its
    second bin SECOND_BIN_MAX."""
    try:
        loc = locate_subject(range_fft(chunk, n_fft) for chunk in _subset_chunks(cube, n_fft))
        if loc.runner_up <= RUNNER_UP_MAX and loc.second <= SECOND_BIN_MAX:
            return loc
    except ProcessingError as err:
        if str(err) != NO_RETURN:
            raise
    return locate_subject(range_fft(chunk, n_fft) for chunk in _chunks(cube, n_fft))


def _subject_column(cube: RawDataCube, n_fft: int, bin_idx: int) -> np.ndarray:
    """complex64 slow-time matrix (n_tx * n_rx, n_frames) of range bin
    bin_idx of the n_fft-point transform: each frame chunk's samples times
    the bin's n_adc twiddles, one GEMV per chunk. The twiddle phases are
    reduced in integers, (bin_idx * i) % n_fft, before scaling."""
    n_adc = cube.chirp.n_adc
    k = (bin_idx * np.arange(n_adc)) % n_fft
    w = np.exp(-2j * np.pi / n_fft * k).astype(np.complex64)
    with np.errstate(invalid="ignore", over="ignore"):  # the caller checks finiteness
        rows = [(chunk.samples.reshape(-1, n_adc) @ w).reshape(len(chunk.samples), -1)
                for chunk in _chunks(cube, n_fft)]
    return np.concatenate(rows).T


def _not_finite(cube: RawDataCube, n_fft: int) -> ProcessingError:
    """The NOT_FINITE error naming its cause, from a second read of the
    samples: NaN or inf samples, or finite ones that overflowed complex64."""
    if all(np.isfinite(chunk.samples).all() for chunk in _chunks(cube, n_fft)):
        cause = "the cube's samples are finite but overflowed the complex64 range transform"
    else:
        cause = "the cube holds NaN or inf samples"
    return ProcessingError(f"{NOT_FINITE}: {cause}")


def _steered_subject(cube, pcfg, layout):
    """Subject location, wavelength, Beamformer and complex128 subject-bin
    slab for one cube, focused at the layout's z_a (its junction table on
    that depth plane), else at the subject's range (an error at 0 m).

    The subject is located (_locate) on a seeded subset of one frame per
    block of _SUBSET_BLOCK, gathered and range-transformed a chunk at a
    time, and on every frame when the subset's profile is all zero or not
    clear (RUNNER_UP_MAX, SECOND_BIN_MAX). The slab is then read from every
    frame in one pass over the frame chunks, one complex64 GEMV with the
    bin's twiddles per chunk (_subject_column). No full-size range cube
    exists, and of a loaded cube one chunk's pages are resident at a time.
    Every sample reaches the slab through a unit-modulus weight, so a NaN or
    inf in any frame, subset or not, leaves it not finite. Only then, or
    when the profile is not finite, are the samples read again to name the
    cause: NaN or inf samples, or finite ones that overflowed complex64.
    """
    wavelength = derive_waveform(cube.chirp).wavelength
    geom = cube.geometry
    sel = select_azimuth_ula(build_virtual_array(geom))
    n_fft = pcfg.n_fft_range
    try:
        loc = _locate(cube, n_fft)
    except ProcessingError as err:
        if str(err) != NOT_FINITE:
            raise
        raise _not_finite(cube, n_fft) from err
    if not loc.range_m > 0:
        raise ProcessingError(
            f"subject located at {loc.range_m} m (range bin {loc.bin}): no range to focus at"
        )
    slab = _subject_column(cube, n_fft, loc.bin)
    if not np.isfinite(slab).all():
        raise _not_finite(cube, n_fft)
    range_z = layout.z_a if layout is not None else loc.range_m
    bf = Beamformer.build(sel, geom, pcfg.n_fft_azimuth, range_z / wavelength, layout is not None)
    return loc, wavelength, bf, slab.astype(np.complex128, order="C")


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
        runner_up_ratio=loc.runner_up,
        located_frames=loc.frames,
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

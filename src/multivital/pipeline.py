"""End-to-end processing: cube -> range -> angles -> region traces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import derive_waveform
from .doa import Beamformer, angle_map, build_phase_error_table, select_region_signal
from .geometry import build_virtual_array, select_azimuth_ula
from .metrics import SensorLayout, compute_alignment
from .rangeproc import extract_range_bin, locate_subject, range_fft
from .runconfig import PipelineConfig
from .simulate import RawDataCube
from .vitals import DisplacementTrace, region_signal_to_trace


@dataclass(frozen=True)
class PipelineResult:
    """Everything the processing stage produces for one cube."""

    range_bin: int
    range_m: float
    azimuth_peak_rad: float
    elevation_peak_rad: float
    region_angles: dict[str, tuple[float, float]]
    traces: list[DisplacementTrace]


def steer_subject(
    rc, loc, sel, geom, wavelength: float, n_fft: int,
    calibrate: bool, range_z: float | None = None,
) -> tuple[Beamformer, np.ndarray]:
    """Beamformer for the subject bin and its raw slow-time data.

    The one place a run builds its steering: with calibrate, the near-field
    phase table at range_z (the subject's range when None), then the
    Beamformer and the complex128 subject-bin slab (channels, frames).
    """
    table = None
    if calibrate:
        z = loc.range_m if range_z is None else range_z
        table = build_phase_error_table(sel, geom, wavelength, z, n_fft)
    bf = Beamformer.build(sel, geom, n_fft, table)
    return bf, extract_range_bin(rc, loc.bin).astype(np.complex128)


def estimate_angles(bf: Beamformer, y: np.ndarray) -> tuple[float, float]:
    """Azimuth/elevation of the strongest return in subject-bin data y.

    Azimuth from the frame-averaged power of the ULA spectrum; elevation
    from a matched sweep of the elevation rows at the azimuth peak, on
    frame 0.
    """
    n_fft = bf.n_fft
    power = np.mean(np.abs(bf.ula_spectrum(y)) ** 2, axis=1)
    l_hat = int(np.argmax(power)) - n_fft // 2
    azimuth = float(np.arcsin(2.0 * l_hat / n_fft))

    rows = bf.row_sums(y[:, :1], [2.0 * l_hat / n_fft])
    grid = np.deg2rad(np.arange(-45.0, 45.25, 0.25))
    pattern = np.abs(bf.combine(rows, np.sin(grid))[0, :, 0]) ** 2
    elevation = float(grid[int(np.argmax(pattern))])
    return azimuth, elevation


def _steered_subject(cube, pcfg, layout, near_field):
    """Range pass, subject location and steer_subject for one cube."""
    calibrate = pcfg.near_field if near_field is None else near_field
    wavelength = derive_waveform(cube.chirp).wavelength
    geom = cube.geometry
    sel = select_azimuth_ula(build_virtual_array(geom))
    rc = range_fft(cube, pcfg.n_fft_range)
    loc = locate_subject(rc)
    range_z = layout.z_a if layout is not None else None
    bf, y = steer_subject(
        rc, loc, sel, geom, wavelength, pcfg.n_fft_azimuth, calibrate, range_z
    )
    return loc, wavelength, bf, y


def run_pipeline(
    cube: RawDataCube,
    pcfg: PipelineConfig,
    layout: SensorLayout | None = None,
    near_field: bool | None = None,
) -> PipelineResult:
    """Process a raw cube into per-region displacement traces.

    With a sensor layout, region angles come from the spatial alignment
    scheme and the phase table is built at the layout's boresight range.
    Without one, a single region "A" is placed at the estimated azimuth
    and elevation peak.

    Parameters
    ----------
    cube : RawDataCube
    pcfg : PipelineConfig
    layout : SensorLayout, optional
    near_field : bool, optional
        Override pcfg.near_field when given.
    """
    loc, wavelength, bf, y = _steered_subject(cube, pcfg, layout, near_field)
    az_peak, el_peak = estimate_angles(bf, y)
    if layout is not None:
        regions = compute_alignment(layout)
    else:
        regions = {"A": (az_peak, el_peak)}

    signals = select_region_signal(bf, y, regions)
    frame_rate = cube.chirp.frame_rate
    traces = [region_signal_to_trace(s, wavelength, frame_rate) for s in signals]
    return PipelineResult(
        range_bin=loc.bin,
        range_m=loc.range_m,
        azimuth_peak_rad=az_peak,
        elevation_peak_rad=el_peak,
        region_angles=regions,
        traces=traces,
    )


def make_angle_map(
    cube: RawDataCube,
    pcfg: PipelineConfig,
    layout: SensorLayout | None = None,
    near_field: bool | None = None,
):
    """Angle map of frame 0 at the located subject bin."""
    _, _, bf, y = _steered_subject(cube, pcfg, layout, near_field)
    return angle_map(bf, y)

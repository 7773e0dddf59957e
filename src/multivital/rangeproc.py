"""Fast-time FFT, range profiles and subject localization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import thread_count
from .config import derive_waveform
from .errors import ConfigError, ProcessingError
from .simulate import RawDataCube

_ABS_CELLS = 1 << 20  # range cells locate_subject takes |.| of at a time: a 4 MiB float32 buffer


@dataclass(frozen=True)
class RangeCube:
    """Range-transformed cube indexed (frame, tx, rx, range bin)."""

    bins: np.ndarray  # complex64
    n_fft_range: int
    bin_width_m: float


@dataclass(frozen=True)
class SubjectLocation:
    """Range bin holding the subject, with its metric range."""

    bin: int
    range_m: float


def range_fft(cube: RawDataCube, n_fft_range: int) -> RangeCube:
    """Zero-padded FFT of every channel's fast-time vector.

    Parameters
    ----------
    cube : RawDataCube
    n_fft_range : int
        FFT length; >= n_adc and a power of two.

    Returns
    -------
    RangeCube
        complex64 bins, transformed in single precision with up to
        thread_count() workers; the only allocation is the output (scipy
        zero-pads into it). bin_width_m = range_resolution * n_adc /
        n_fft_range, so zero padding refines the grid without changing the
        resolution.
    """
    n_adc = cube.chirp.n_adc
    if n_fft_range < n_adc:
        raise ConfigError(
            f"n_fft_range {n_fft_range} is smaller than n_adc {n_adc}"
        )
    if n_fft_range & (n_fft_range - 1):
        raise ConfigError(f"n_fft_range must be a power of two, got {n_fft_range}")
    import scipy.fft  # deferred: only process and e2e run a range transform

    wf = derive_waveform(cube.chirp)
    bins = scipy.fft.fft(cube.samples, n=n_fft_range, axis=-1, workers=thread_count())
    return RangeCube(
        bins=bins,
        n_fft_range=n_fft_range,
        bin_width_m=wf.range_resolution * n_adc / n_fft_range,
    )


def locate_subject(rc: RangeCube) -> SubjectLocation:
    """Find the range bin with the largest magnitude summed over channels and frames.

    The cube is reduced a chunk of channel rows at a time: each chunk's
    magnitudes go into one reused float32 buffer of _ABS_CELLS cells and
    their column sums into a float64 profile, so no full-size |bins| is
    made. Ties resolve to the lowest bin (argmax returns the first maximum).

    Raises
    ------
    ProcessingError
        empty cube, or a non-finite or all-zero range profile. One NaN or
        inf sample spreads through the FFT to every bin of its channel, so
        checking the profile catches any non-finite input.
    """
    if rc.bins.size == 0:
        raise ProcessingError("empty range cube")
    n_bins = rc.bins.shape[-1]
    rows = rc.bins.reshape(-1, n_bins)
    step = max(1, _ABS_CELLS // n_bins)
    buf = np.empty((min(step, len(rows)), n_bins), dtype=np.float32)
    profile = np.zeros(n_bins)
    for start in range(0, len(rows), step):
        part = rows[start:start + step]
        profile += np.abs(part, out=buf[:len(part)]).sum(axis=0, dtype=np.float64)
    if not np.all(np.isfinite(profile)):
        raise ProcessingError("range profile is not finite: the cube holds NaN or inf samples")
    if not profile.any():
        raise ProcessingError("range profile is all zero: the cube holds no return")
    bin_idx = int(np.argmax(profile))
    return SubjectLocation(bin=bin_idx, range_m=bin_idx * rc.bin_width_m)


def extract_range_bin(rc: RangeCube, bin_idx: int) -> np.ndarray:
    """Slow-time matrix of one range bin.

    Returns
    -------
    ndarray, complex, shape (n_tx * n_rx, n_frames)
        Channel axis is row-major over (tx, rx).
    """
    n_bins = rc.bins.shape[-1]
    if not 0 <= bin_idx < n_bins:
        raise ProcessingError(f"range bin {bin_idx} outside 0..{n_bins - 1}")
    frames, n_tx, n_rx = rc.bins.shape[:3]
    slab = rc.bins[:, :, :, bin_idx]  # (frame, tx, rx)
    return slab.reshape(frames, n_tx * n_rx).T.copy()

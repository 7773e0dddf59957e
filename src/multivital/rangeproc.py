"""Fast-time FFT, range profiles and subject localization."""

from __future__ import annotations

from collections.abc import Iterable
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
    _check_fft_size(n_fft_range, n_adc)
    import scipy.fft  # deferred: only process and e2e run a range transform

    wf = derive_waveform(cube.chirp)
    bins = scipy.fft.fft(cube.samples, n=n_fft_range, axis=-1, workers=thread_count())
    return RangeCube(
        bins=bins,
        n_fft_range=n_fft_range,
        bin_width_m=wf.range_resolution * n_adc / n_fft_range,
    )


def locate_subject(rc: RangeCube | Iterable[RangeCube]) -> SubjectLocation:
    """Find the range bin with the largest magnitude summed over channels and frames.

    rc is a range cube, or consecutive frame chunks of one as an iterable
    (run_pipeline passes a generator, so only one chunk is held at a time).
    Each chunk is reduced a chunk of channel rows at a time: the rows'
    magnitudes go into one reused float32 buffer of _ABS_CELLS cells and
    their column sums into a float64 profile, so no full-size |bins| is
    made. The checks and the argmax run once, on the summed profile. Ties
    resolve to the lowest bin (argmax returns the first maximum).

    Raises
    ------
    ProcessingError
        empty cube, or a non-finite or all-zero range profile. One NaN or
        inf sample spreads through the FFT to every bin of its channel, and
        no sum of magnitudes turns it finite again, so checking the summed
        profile catches any non-finite input in any chunk.
    """
    profile = None
    for chunk in (rc,) if isinstance(rc, RangeCube) else rc:
        if chunk.bins.size:
            if profile is None:
                n_bins = chunk.bins.shape[-1]
                profile = np.zeros(n_bins)
                n_rows = min(max(1, _ABS_CELLS // n_bins), chunk.bins.size // n_bins)
                buf = np.empty((n_rows, n_bins), dtype=np.float32)
                bin_width_m = chunk.bin_width_m
            _add_magnitudes(profile, chunk.bins, buf)
        del chunk  # freed before a generator makes the next chunk
    if profile is None:
        raise ProcessingError("empty range cube")
    if not np.all(np.isfinite(profile)):
        raise ProcessingError("range profile is not finite: the cube holds NaN or inf samples")
    if not profile.any():
        raise ProcessingError("range profile is all zero: the cube holds no return")
    bin_idx = int(np.argmax(profile))
    return SubjectLocation(bin=bin_idx, range_m=bin_idx * bin_width_m)


def extract_range_bin(rc: RangeCube, bin_idx: int) -> np.ndarray:
    """Slow-time matrix of one range bin.

    Returns
    -------
    ndarray, complex, shape (n_tx * n_rx, n_frames)
        Channel axis is row-major over (tx, rx).
    """
    _check_bin(bin_idx, rc.bins.shape[-1])
    frames, n_tx, n_rx = rc.bins.shape[:3]
    slab = rc.bins[:, :, :, bin_idx]  # (frame, tx, rx)
    return slab.reshape(frames, n_tx * n_rx).T.copy()


def range_bin_dft(cube: RawDataCube, n_fft_range: int, bin_idx: int) -> np.ndarray:
    """extract_range_bin(range_fft(cube, n_fft_range), bin_idx) without the
    range cube.

    Bin k of the zero-padded FFT is each fast-time vector's dot product with
    the n_adc twiddles exp(-2 pi j k i / n_fft_range), i < n_adc: one
    complex64 matrix-vector product over the raw cube, whose result is the
    only allocation (the cube is copied first only if it is not contiguous).
    It agrees with the FFT bin to single precision.

    Returns
    -------
    ndarray, complex64, shape (n_tx * n_rx, n_frames)
        Channel axis is row-major over (tx, rx).

    Raises
    ------
    ConfigError
        n_fft_range smaller than n_adc or not a power of two.
    ProcessingError
        bin_idx outside 0..n_fft_range - 1.
    """
    n_adc = cube.chirp.n_adc
    _check_fft_size(n_fft_range, n_adc)
    _check_bin(bin_idx, n_fft_range)
    k_i = (bin_idx * np.arange(n_adc)) % n_fft_range  # reduced in integers: exact phases
    twiddle = np.exp(-2j * np.pi / n_fft_range * k_i).astype(np.complex64)
    frames = cube.samples.shape[0]
    slab = cube.samples.reshape(-1, n_adc) @ twiddle  # (frame * tx * rx,)
    return slab.reshape(frames, -1).T.copy()


def _add_magnitudes(profile: np.ndarray, bins: np.ndarray, buf: np.ndarray) -> None:
    """profile += |bins| summed over every axis but the last, len(buf) rows
    at a time through buf."""
    rows = bins.reshape(-1, bins.shape[-1])
    for start in range(0, len(rows), len(buf)):
        part = rows[start:start + len(buf)]
        profile += np.abs(part, out=buf[:len(part)]).sum(axis=0, dtype=np.float64)


def _check_fft_size(n_fft_range: int, n_adc: int) -> None:
    if n_fft_range < n_adc:
        raise ConfigError(
            f"n_fft_range {n_fft_range} is smaller than n_adc {n_adc}"
        )
    if n_fft_range & (n_fft_range - 1):
        raise ConfigError(f"n_fft_range must be a power of two, got {n_fft_range}")


def _check_bin(bin_idx: int, n_bins: int) -> None:
    if not 0 <= bin_idx < n_bins:
        raise ProcessingError(f"range bin {bin_idx} outside 0..{n_bins - 1}")

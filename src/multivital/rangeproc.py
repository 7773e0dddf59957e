"""Fast-time FFT, range profiles and subject localization."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from ._util import thread_count
from .config import derive_waveform
from .errors import ConfigError, ProcessingError
from .simulate import RawDataCube

_ABS_CELLS = 1 << 15  # range cells locate_subject sums |.| of at a time: a 128 KiB float32 buffer
# locate_subject's message for a non-finite profile; a caller holding the
# samples can name the cause.
NOT_FINITE = "range profile is not finite"
# locate_subject's message for an all-zero profile; a caller that located
# from some of the frames can try the rest.
NO_RETURN = "range profile is all zero: the cube holds no return"


@dataclass(frozen=True)
class RangeCube:
    """Range-transformed cube indexed (frame, tx, rx, range bin)."""

    bins: np.ndarray  # complex64
    bin_width_m: float


@dataclass(frozen=True)
class SubjectLocation:
    """Range bin holding the subject, with its metric range.

    frames is how many frames the profile was summed over. runner_up is the
    profile's largest local maximum other than the peak, over the peak: 0
    when the peak stands alone, 1 when another bin ties it. A local maximum
    is a bin above the bin before it and not below the bin after it, bins
    taken circularly (bin 0 follows the last). second is the largest bin
    other than the peak, over the peak, local maximum or not: the peak's own
    shoulder counts. Both come from float sums whose rounding depends on how
    the frames were chunked, so they take no part in equality.
    """

    bin: int
    range_m: float
    frames: int
    runner_up: float = field(compare=False)
    second: float = field(compare=False)


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
    return RangeCube(bins=bins, bin_width_m=wf.range_resolution * n_adc / n_fft_range)


def locate_subject(rc: RangeCube | Iterable[RangeCube]) -> SubjectLocation:
    """Find the range bin with the largest magnitude summed over channels and frames.

    rc is a range cube, or frame chunks of one as an iterable (run_pipeline
    passes a generator of chunks of a frame subset, or of every frame, so
    only one chunk is held at a time). Each chunk is reduced a block of
    channel rows at a time: the rows' magnitudes go into one reused float32
    buffer of _ABS_CELLS cells, each block is summed in float32, and the
    block sums go into a float64 profile, so no full-size |bins| is made.
    The checks, the argmax and the two ratios run once, on the summed
    profile. Ties resolve to the lowest bin (argmax returns the first
    maximum).

    Raises
    ------
    ProcessingError
        empty cube, or a non-finite (message NOT_FINITE) or all-zero
        (message NO_RETURN) range profile. One NaN or inf sample spreads
        through the FFT to every bin of its channel, and no sum of
        magnitudes turns it finite again, so checking the summed profile
        catches any non-finite bin in any chunk. Finite samples too large
        for complex64 overflow in the transform and are caught the same way.
    """
    profile = None
    frames = 0
    for chunk in (rc,) if isinstance(rc, RangeCube) else rc:
        if chunk.bins.size:
            if profile is None:
                n_bins = chunk.bins.shape[-1]
                profile = np.zeros(n_bins)
                n_rows = min(max(1, _ABS_CELLS // n_bins), chunk.bins.size // n_bins)
                buf = np.empty((n_rows, n_bins), dtype=np.float32)
                bin_width_m = chunk.bin_width_m
            _add_magnitudes(profile, chunk.bins, buf)
            frames += chunk.bins.shape[0]
        del chunk  # freed before a generator makes the next chunk
    if profile is None:
        raise ProcessingError("empty range cube")
    if not np.all(np.isfinite(profile)):
        raise ProcessingError(NOT_FINITE)
    if not profile.any():
        raise ProcessingError(NO_RETURN)
    bin_idx = int(np.argmax(profile))
    is_max = (profile > np.roll(profile, 1)) & (profile >= np.roll(profile, -1))
    is_max[bin_idx] = False
    peak = profile[bin_idx]
    return SubjectLocation(
        bin=bin_idx, range_m=bin_idx * bin_width_m, frames=frames,
        runner_up=float(profile[is_max].max(initial=0.0) / peak),
        second=float(np.delete(profile, bin_idx).max(initial=0.0) / peak),
    )


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


def _add_magnitudes(profile: np.ndarray, bins: np.ndarray, buf: np.ndarray) -> None:
    """profile += |bins| summed over every axis but the last, len(buf) rows
    at a time through buf.

    Each block of rows is summed in float32 and the block sums in float64.
    If that total is not finite, a float32 block sum may have overflowed
    where a float64 one would not, so bins is summed again with float64
    block sums: the result is finite whenever the float64 fold is.
    """
    rows = bins.reshape(-1, bins.shape[-1])
    with np.errstate(over="ignore"):
        total = _block_sums(rows, buf, np.float32)
    if not np.all(np.isfinite(total)):
        total = _block_sums(rows, buf, np.float64)
    profile += total


def _block_sums(rows: np.ndarray, buf: np.ndarray, dtype) -> np.ndarray:
    """|rows| summed along axis 0 into float64, each len(buf)-row block
    summed in dtype first."""
    total = np.zeros(rows.shape[-1])
    for start in range(0, len(rows), len(buf)):
        part = rows[start:start + len(buf)]
        total += np.abs(part, out=buf[:len(part)]).sum(axis=0, dtype=dtype)
    return total


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

"""Accelerometer-to-displacement calibration for SCG reference channels.

The chain per axis: detrend, remove mean, zero-phase high-pass, integrate
to velocity, repeat the conditioning, integrate to displacement, high-pass
once more. The repeated high-passing is what keeps double integration from
drifting when the accelerometer has a zero-point offset.

Record ends are cosine-tapered across the transient span before filtering.
Without the taper, whatever value the record happens to end on becomes an
edge step for the zero-phase filter, and at a 0.5 Hz cutoff that transient
takes several seconds to die instead of staying inside the flagged span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal
from scipy.integrate import cumulative_trapezoid

from .errors import ConfigError, ProcessingError


@dataclass(frozen=True)
class ScgChannel:
    """Triaxial acceleration record of one chest region."""

    fs: float  # Hz
    ax: np.ndarray  # m/s^2
    ay: np.ndarray
    az: np.ndarray
    region: str

    def validate(self) -> "ScgChannel":
        if not self.fs > 0:
            raise ConfigError(f"scg fs must be > 0, got {self.fs}")
        n = len(self.ax)
        if len(self.ay) != n or len(self.az) != n:
            raise ConfigError("scg axis vectors must have equal lengths")
        return self


@dataclass(frozen=True)
class FilterSpec:
    """Butterworth (maximally flat) high-pass filter used throughout the chain."""

    cutoff: float = 0.5  # Hz
    order: int = 4

    def validate(self, fs: float) -> "FilterSpec":
        if not 0 < self.cutoff < fs / 2:
            raise ConfigError(
                f"cutoff {self.cutoff} Hz must lie in (0, fs/2) = (0, {fs / 2}) Hz"
            )
        if self.order < 1:
            raise ConfigError("filter order must be >= 1")
        return self


@dataclass(frozen=True)
class ScgTrace:
    """Displacement derived from one accelerometer axis."""

    region: str
    axis: str  # x|y|z
    fs: float  # Hz
    displacement: np.ndarray  # mm
    transient_samples: int  # leading/trailing samples to discard

    @property
    def trimmed(self) -> np.ndarray:
        n = self.transient_samples
        return self.displacement[n:len(self.displacement) - n]


def detrend(x: np.ndarray) -> np.ndarray:
    """Subtract the least-squares straight line from x."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2:
        raise ProcessingError("detrend needs at least 2 samples")
    return signal.detrend(x, type="linear")


def _highpass(x: np.ndarray, fs: float, spec: FilterSpec) -> np.ndarray:
    sos = signal.butter(spec.order, spec.cutoff, btype="highpass", fs=fs, output="sos")
    # the default pad is a few dozen samples; at sub-Hz cutoffs the filter
    # memory is seconds, so pad three cutoff periods
    padlen = min(len(x) - 1, int(round(3.0 * fs / spec.cutoff)))
    return signal.sosfiltfilt(sos, x, padlen=padlen)


def _end_taper(n: int, transient: int) -> np.ndarray:
    m = min(transient, n // 2)
    wnd = np.ones(n)
    if m > 0:
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(m) / m)
        wnd[:m] = ramp
        wnd[n - m:] = ramp[::-1]
    return wnd


def scg_to_displacement(
    ch: ScgChannel,
    spec: FilterSpec = FilterSpec(),
    transient_s: float = 2.0,
    decimate_to: float | None = None,
) -> list[ScgTrace]:
    """Calibrate a triaxial acceleration record into displacement, mm.

    Parameters
    ----------
    ch : ScgChannel
    spec : FilterSpec
        High-pass applied three times along the chain.
    transient_s : float
        Seconds flagged as filter transient at each end. The same span is
        cosine-tapered before filtering so edge effects stay inside it.
    decimate_to : float, optional
        Target rate for polyphase decimation before the chain; content above
        the cutoff is preserved. Useful for 20 kHz recordings.

    Returns
    -------
    list of ScgTrace, one per axis (x, y, z).

    Raises
    ------
    ProcessingError
        If the record is shorter than 10 filter time constants.
    """
    ch.validate()
    fs = ch.fs
    axes = {"x": ch.ax, "y": ch.ay, "z": ch.az}
    if decimate_to is not None and fs > decimate_to:
        q = int(round(fs / decimate_to))
        axes = {k: signal.resample_poly(np.asarray(v, dtype=np.float64), 1, q)
                for k, v in axes.items()}
        fs = fs / q
    spec.validate(fs)
    n = len(axes["x"])
    duration = n / fs  # s
    min_duration = 10.0 / (2.0 * np.pi * spec.cutoff)  # 10 time constants
    if duration < min_duration:
        raise ProcessingError(
            f"record of {duration:.2f} s is shorter than 10 filter time "
            f"constants ({min_duration:.2f} s at {spec.cutoff} Hz cutoff)"
        )
    dt = 1.0 / fs
    transient = int(round(transient_s * fs))
    wnd = _end_taper(n, transient)
    out = []
    for axis, acc in axes.items():
        a = detrend(np.asarray(acc, dtype=np.float64))
        a = _highpass((a - a.mean()) * wnd, fs, spec)
        v = cumulative_trapezoid(a, dx=dt, initial=0.0)
        v = detrend(v)
        v = _highpass(v - v.mean(), fs, spec)
        d = cumulative_trapezoid(v, dx=dt, initial=0.0)
        d = _highpass(d, fs, spec)
        out.append(
            ScgTrace(
                region=ch.region,
                axis=axis,
                fs=fs,
                displacement=d * 1000.0,  # m -> mm
                transient_samples=transient,
            )
        )
    return out


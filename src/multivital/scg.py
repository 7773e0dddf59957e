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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ProcessingError

FILTER_ORDER = 4  # Butterworth (maximally flat) high-pass used throughout the chain
CUTOFF_HZ = 0.5  # of that high-pass, below resting heart rates
TRANSIENT_S = 2.0  # s flagged as filter transient, and tapered, at each record end


@dataclass(frozen=True)
class ScgChannel:
    """Triaxial acceleration record of one chest region."""

    fs: float  # Hz
    ax: np.ndarray  # m/s^2
    ay: np.ndarray
    az: np.ndarray
    region: str

    def validate(self) -> "ScgChannel":
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise ConfigError(f"scg fs must be finite and > 0, got {self.fs}")
        n = len(self.ax)
        if len(self.ay) != n or len(self.az) != n:
            raise ConfigError("scg axis vectors must have equal lengths")
        for axis, acc in (("ax", self.ax), ("ay", self.ay), ("az", self.az)):
            if not np.all(np.isfinite(acc)):
                raise ConfigError(f"scg region {self.region} {axis} has non-finite samples")
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
    from scipy import signal  # deferred: only the SCG chain pays its import

    return signal.detrend(x, type="linear")


def _highpass_design(fs: float, n: int):
    """The chain's zero-phase high-pass for n-sample arrays, as a function.

    The Butterworth SOS and the pad length are worked out here once, so the
    three stages of each axis filter with one design.
    """
    from scipy import signal  # deferred: only the SCG chain pays its import

    sos = signal.butter(FILTER_ORDER, CUTOFF_HZ, btype="highpass", fs=fs, output="sos")
    # the default pad is a few dozen samples; at sub-Hz cutoffs the filter
    # memory is seconds, so pad three cutoff periods
    padlen = min(n - 1, int(round(3.0 * fs / CUTOFF_HZ)))
    return lambda x: signal.sosfiltfilt(sos, x, padlen=padlen)


def _end_taper(n: int, transient: int) -> np.ndarray:
    m = min(transient, n // 2)
    wnd = np.ones(n)
    if m > 0:
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(m) / m)
        wnd[:m] = ramp
        wnd[n - m:] = ramp[::-1]
    return wnd


def scg_to_displacement(ch: ScgChannel) -> list[ScgTrace]:
    """Calibrate a triaxial acceleration record into displacement, mm.

    The first and last TRANSIENT_S seconds are flagged as filter transient;
    the same span is cosine-tapered before filtering so edge effects stay
    inside it.

    The high-pass at CUTOFF_HZ is applied three times along the chain.

    Returns
    -------
    list of ScgTrace, one per axis (x, y, z).

    Raises
    ------
    ConfigError
        If CUTOFF_HZ does not lie in (0, fs/2): a record sampled at 1 Hz or
        slower.
    ProcessingError
        If the record is shorter than 10 filter time constants.
    """
    # deferred: simulate and process never load scipy.integrate
    from scipy.integrate import cumulative_trapezoid

    ch.validate()
    fs = ch.fs
    if not 0 < CUTOFF_HZ < fs / 2:
        raise ConfigError(f"cutoff {CUTOFF_HZ} Hz must lie in (0, fs/2) = (0, {fs / 2}) Hz")
    n = len(ch.ax)
    duration = n / fs  # s
    min_duration = 10.0 / (2.0 * np.pi * CUTOFF_HZ)  # 10 time constants
    if duration < min_duration:
        raise ProcessingError(
            f"record of {duration:.2f} s is shorter than 10 filter time "
            f"constants ({min_duration:.2f} s at {CUTOFF_HZ} Hz cutoff)"
        )
    dt = 1.0 / fs
    transient = int(round(TRANSIENT_S * fs))
    wnd = _end_taper(n, transient)
    highpass = _highpass_design(fs, n)
    out = []
    for axis, acc in (("x", ch.ax), ("y", ch.ay), ("z", ch.az)):
        a = detrend(np.asarray(acc, dtype=np.float64))
        a = highpass((a - a.mean()) * wnd)
        v = cumulative_trapezoid(a, dx=dt, initial=0.0)
        v = detrend(v)
        v = highpass(v - v.mean())
        d = cumulative_trapezoid(v, dx=dt, initial=0.0)
        d = highpass(d)
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


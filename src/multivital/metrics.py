"""Sensor-to-radar spatial alignment and trace comparison metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np
from scipy.signal import resample_poly

from .errors import ConfigError, ProcessingError
from .vitals import spectral_peak_frequency


@dataclass(frozen=True)
class SensorLayout:
    """Chest-plane sensor positions relative to the radar boresight point A."""

    positions: Mapping[str, tuple[float, float]]  # region -> (x, y), m
    z_a: float  # boresight range of point A, m

    def validate(self) -> "SensorLayout":
        if "A" not in self.positions:
            raise ConfigError("sensor layout must include point A")
        if not self.z_a > 0:
            raise ConfigError(f"z_a must be > 0, got {self.z_a}")
        return self


@dataclass(frozen=True)
class RegionComparison:
    """Metrics for one radar/reference trace pair."""

    rho: float  # max normalized cross-correlation, [0, 1]
    lag: int  # samples; > 0 when the radar trace is delayed vs the reference
    delta_f_max: float  # Hz
    rate_hz: float  # common rate the comparison ran at


@dataclass(frozen=True)
class ComparisonReport:
    regions: Mapping[str, RegionComparison]

    def to_dict(self) -> dict:
        return {
            rid: {
                "rho": rc.rho,
                "lag_samples": rc.lag,
                "delta_f_max_hz": rc.delta_f_max,
                "rate_hz": rc.rate_hz,
            }
            for rid, rc in self.regions.items()
        }


def compute_alignment(layout: SensorLayout) -> dict[str, tuple[float, float]]:
    """Ground-truth radar angles of every sensor from its chest-plane offset.

    The radar boresight is centered on point A, so A maps to (0, 0) and any
    other sensor to arctan of its lateral offset over the boresight range:
    azimuth from the x offset, elevation from the y offset.

    Returns
    -------
    dict region -> (phi, theta) rad
    """
    layout.validate()
    xa, ya = layout.positions["A"]
    z = abs(layout.z_a)
    return {
        rid: (math.atan2(x - xa, z), math.atan2(y - ya, z))
        for rid, (x, y) in layout.positions.items()
    }


def normalized_xcorr_max(r: np.ndarray, x: np.ndarray) -> tuple[float, int]:
    """Peak of the normalized cross-correlation between two traces.

    Both signals are mean-removed; the correlation is evaluated at every
    lag and normalized by the zero-lag autocorrelations, so the result is
    scale- and shift-invariant and self-correlation gives exactly 1.0.

    Returns
    -------
    (rho, lag) : float in [0, 1], int
        lag > 0 means r is delayed relative to x.

    Raises
    ------
    ProcessingError
        If either input is constant.
    """
    r = np.asarray(r, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if r.size < 2 or x.size < 2:
        raise ProcessingError("cross-correlation needs at least 2 samples per input")
    rm = r - r.mean()
    xm = x - x.mean()
    if not np.any(rm) or not np.any(xm):
        raise ProcessingError("constant input has no normalized cross-correlation")
    c_rx = np.abs(np.correlate(rm, xm, mode="full"))
    # An autocorrelation peaks at zero lag (Cauchy-Schwarz), and "valid" mode
    # of a signal with itself computes only that lag.
    e_rr = np.correlate(rm, rm, mode="valid")[0]
    e_xx = np.correlate(xm, xm, mode="valid")[0]
    peak = int(np.argmax(c_rx))
    rho = float(c_rx[peak] / math.sqrt(e_rr * e_xx))
    return min(rho, 1.0), peak - (x.size - 1)


def max_freq_difference(
    r: np.ndarray,
    rate_r: float,
    x: np.ndarray,
    rate_x: float,
    band: tuple[float, float] = (0.5, 3.0),
) -> float:
    """Absolute difference of the two traces' dominant frequencies, Hz."""
    fr = spectral_peak_frequency(r, rate_r, band)
    fx = spectral_peak_frequency(x, rate_x, band)
    return abs(fr - fx)


def align_rates(
    r: np.ndarray, rate_r: float, x: np.ndarray, rate_x: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Resample the faster trace to the slower rate with a polyphase filter."""
    if rate_r == rate_x:
        return np.asarray(r, dtype=np.float64), np.asarray(x, dtype=np.float64), rate_r
    if rate_r > rate_x:
        x_aligned, r_aligned, rate = align_rates(x, rate_x, r, rate_r)
        return r_aligned, x_aligned, rate
    # r is the slower one; bring x down to rate_r.
    ratio = Fraction(rate_r / rate_x).limit_denominator(10_000)
    x_down = resample_poly(np.asarray(x, dtype=np.float64),
                           ratio.numerator, ratio.denominator)
    return np.asarray(r, dtype=np.float64), x_down, rate_r


def compare_traces(
    radar: Mapping[str, tuple[np.ndarray, float]],
    reference: Mapping[str, tuple[np.ndarray, float]],
    band: tuple[float, float] = (0.5, 3.0),
) -> ComparisonReport:
    """Build a ComparisonReport for every region present in both inputs.

    Parameters
    ----------
    radar, reference : mapping region -> (displacement trace, rate_hz)
    band : Hz
        Search band for the dominant-frequency metric.
    """
    regions: dict[str, RegionComparison] = {}
    for rid, (trace, rate) in radar.items():
        if rid not in reference:
            continue
        ref_trace, ref_rate = reference[rid]
        a, b, common = align_rates(trace, rate, ref_trace, ref_rate)
        rho, lag = normalized_xcorr_max(a, b)
        delta_f = max_freq_difference(a, common, b, common, band)
        regions[rid] = RegionComparison(
            rho=rho, lag=lag, delta_f_max=delta_f, rate_hz=common
        )
    if not regions:
        raise ProcessingError("no overlapping regions between radar and reference traces")
    return ComparisonReport(regions=regions)

"""Sensor-to-radar spatial alignment and trace comparison metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

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
        for rid, xy in self.positions.items():
            if not all(map(math.isfinite, xy)):
                raise ConfigError(f"sensor layout position of {rid} must be finite, got {xy}")
        if not 0 < self.z_a < math.inf:
            raise ConfigError(f"z_a must be finite and > 0, got {self.z_a}")
        return self


def compute_alignment(layout: SensorLayout) -> dict[str, tuple[float, float, float]]:
    """Scene point of every sensor, m: x lateral, y boresight depth, z up.

    The radar boresight is centered on point A at depth z_a, so region R
    sits at (x_R - x_A, z_a, y_R - y_A).
    """
    layout.validate()
    xa, ya = layout.positions["A"]
    return {rid: (x - xa, layout.z_a, y - ya) for rid, (x, y) in layout.positions.items()}


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
    r: np.ndarray, rate_r: float, x: np.ndarray, rate_x: float
) -> float:
    """Absolute difference of the two traces' dominant frequencies, Hz."""
    fr = spectral_peak_frequency(r, rate_r)
    fx = spectral_peak_frequency(x, rate_x)
    return abs(fr - fx)


def align_rates(
    r: np.ndarray, rate_r: float, x: np.ndarray, rate_x: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Resample the faster trace to the slower rate with a polyphase filter.

    Raises ProcessingError when the rates are so far apart that their
    ratio rounds to 0.
    """
    if rate_r == rate_x:
        return np.asarray(r, dtype=np.float64), np.asarray(x, dtype=np.float64), rate_r
    if rate_r > rate_x:
        x_aligned, r_aligned, rate = align_rates(x, rate_x, r, rate_r)
        return r_aligned, x_aligned, rate
    # r is the slower one; bring x down to rate_r.
    ratio = Fraction(rate_r / rate_x).limit_denominator(10_000)
    if ratio == 0:
        raise ProcessingError(
            f"cannot resample {rate_x} Hz to {rate_r} Hz: the rate ratio "
            "rounds to 0 at denominators up to 10000"
        )
    from scipy.signal import resample_poly  # deferred: only compare resamples

    x_down = resample_poly(np.asarray(x, dtype=np.float64),
                           ratio.numerator, ratio.denominator)
    return np.asarray(r, dtype=np.float64), x_down, rate_r


def compare_traces(
    pairs: Mapping[str, tuple[tuple[np.ndarray, float], tuple[np.ndarray, float]]],
) -> dict[str, dict[str, float]]:
    """Score every radar/reference trace pair, as the report's JSON entries.

    Parameters
    ----------
    pairs : mapping key -> ((radar trace, rate_hz), (reference trace, rate_hz))

    Returns
    -------
    dict key -> {"rho", "lag_samples", "delta_f_max_hz", "rate_hz"}
        rho in [0, 1]; lag_samples > 0 when the radar trace is delayed vs
        the reference; rate_hz is the common rate the pair was scored at.

    Raises
    ------
    ProcessingError
        If pairs is empty, or a pair cannot be scored; the message then
        starts with the pair's key.
    """
    if not pairs:
        raise ProcessingError("no overlapping regions between radar and reference traces")
    report: dict[str, dict[str, float]] = {}
    for key, ((trace, rate), (ref_trace, ref_rate)) in pairs.items():
        try:
            a, b, common = align_rates(trace, rate, ref_trace, ref_rate)
            rho, lag = normalized_xcorr_max(a, b)
            delta_f = max_freq_difference(a, common, b, common)
        except ProcessingError as exc:
            raise ProcessingError(f"{key}: {exc}") from exc
        report[key] = {"rho": rho, "lag_samples": lag,
                       "delta_f_max_hz": delta_f, "rate_hz": common}
    return report

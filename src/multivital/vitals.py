"""Phase extraction, unwrapping and displacement traces per chest region."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .doa import RegionSignal
from .errors import ProcessingError

HEART_BAND_HZ = (0.5, 3.0)  # Hz, resting heart rates: the dominant-frequency search band


@dataclass(frozen=True)
class DisplacementTrace:
    """Unwrapped phase and radial displacement of one region at frame rate.

    Phase is stored relative to the first frame, which makes the invariant
    displacement_mm = 1000 * wavelength * phase / (4 pi) exact; the unknown
    constant channel phase drops out.
    """

    region: str
    frame_rate: float  # Hz
    displacement: np.ndarray  # mm
    phase: np.ndarray  # rad, unwrapped, phase[0] == 0

    @classmethod
    def from_phase(
        cls,
        region: str,
        phase_unwrapped: np.ndarray,
        wavelength: float,
        frame_rate: float,
    ) -> "DisplacementTrace":
        phase = np.asarray(phase_unwrapped, dtype=np.float64)
        displacement = phase_to_displacement(phase, wavelength)
        return cls(
            region=region,
            frame_rate=frame_rate,
            displacement=displacement,
            phase=phase - phase[0],
        )

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.phase)) / self.frame_rate  # s


def extract_phase(s: RegionSignal) -> tuple[np.ndarray, list[int]]:
    """Wrapped per-frame phase of a region signal.

    Zero-magnitude samples have no defined argument; they take the previous
    sample's phase (0.0 for a leading zero) and their indices are returned
    for the caller to inspect.

    Returns
    -------
    (phase, flagged) : ndarray in (-pi, pi], list of flagged frame indices
    """
    data = np.asarray(s.slowtime)
    if data.size == 0:
        raise ProcessingError(f"region {s.region} has an empty slow-time signal")
    phase = np.angle(data)
    flagged = np.flatnonzero(data == 0)
    for idx in flagged:
        phase[idx] = phase[idx - 1] if idx > 0 else 0.0
    return phase, [int(i) for i in flagged]


def phase_to_displacement(phase: np.ndarray, wavelength: float) -> np.ndarray:
    """Radial displacement in mm from unwrapped phase, relative to frame 0.

    A two-way path change of one wavelength advances the phase by 4 pi, so
    displacement = wavelength * (phase - phase[0]) / (4 pi).
    """
    p = np.asarray(phase, dtype=np.float64)
    if p.size == 0:
        raise ProcessingError("empty phase input: displacement is relative to frame 0")
    return 1000.0 * wavelength * (p - p[0]) / (4.0 * np.pi)


def region_signal_to_trace(
    s: RegionSignal, wavelength: float, frame_rate: float
) -> DisplacementTrace:
    """Full chain: wrapped phase -> unwrap -> relative displacement trace."""
    wrapped, _ = extract_phase(s)
    return DisplacementTrace.from_phase(
        s.region, np.unwrap(wrapped), wavelength, frame_rate
    )


def spectral_peak_frequency(
    x: np.ndarray, rate_hz: float, band: tuple[float, float] = HEART_BAND_HZ
) -> float:
    """Frequency of the largest spectral peak of mean-removed x inside band.

    The peak bin is refined by fitting a parabola through the magnitudes of
    the bin and its neighbors.

    Raises
    ------
    ProcessingError
        If the band contains no FFT bin (band-empty) or the banded spectrum
        is identically zero (no peak).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2:
        raise ProcessingError("need at least 2 samples for a spectral peak")
    lo, hi = band
    spectrum = np.abs(np.fft.rfft(x - x.mean()))
    freqs = np.fft.rfftfreq(x.size, d=1.0 / rate_hz)
    in_band = np.flatnonzero((freqs >= lo) & (freqs <= hi))
    if in_band.size == 0:
        raise ProcessingError(
            f"band {band} Hz holds no FFT bin at rate {rate_hz} Hz over {x.size} samples"
        )
    banded = spectrum[in_band]
    if not banded.max() > 0:
        raise ProcessingError(f"no spectral peak inside band {band} Hz")
    k = int(in_band[int(np.argmax(banded))])
    delta = 0.0
    if 1 <= k < spectrum.size - 1:
        alpha, beta, gamma = spectrum[k - 1], spectrum[k], spectrum[k + 1]
        denom = alpha - 2.0 * beta + gamma
        if denom != 0.0:
            delta = 0.5 * (alpha - gamma) / denom
    return (k + delta) * rate_hz / x.size


def dominant_frequency(trace: DisplacementTrace) -> float:
    """Dominant oscillation frequency of a displacement trace in HEART_BAND_HZ, Hz."""
    return spectral_peak_frequency(trace.displacement, trace.frame_rate)

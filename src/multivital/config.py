"""FMCW chirp parameters and quantities derived from them."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Automotive mmWave band used by the supported cascade front end.
W_BAND_HZ = (76e9, 81e9)


@dataclass(frozen=True)
class ChirpConfig:
    """Waveform and framing parameters of one acquisition."""

    fc: float  # carrier frequency, Hz
    prt: float  # pulse repetition time, s
    t_frame: float  # frame duration, s
    n_adc: int  # ADC samples per chirp
    fs: float  # ADC sampling frequency, Hz
    k_chirp: float  # chirp slope, Hz/s
    n_frames: int = 1

    def validate(self) -> "ChirpConfig":
        """Check finite positivity, the ADC window inside the PRT and the PRT inside the frame."""
        for name in ("fc", "prt", "t_frame", "n_adc", "fs", "k_chirp", "n_frames"):
            value = getattr(self, name)
            try:
                ok = math.isfinite(value) and value > 0
            except OverflowError:  # an integer beyond the float range
                ok = False
            if not ok:
                raise ConfigError(
                    f"chirp.{name} must be finite and strictly positive, got {value}"
                )
        if self.n_adc / self.fs > self.prt:
            raise ConfigError(
                f"ADC window n_adc/fs = {self.n_adc / self.fs:.3e} s "
                f"exceeds the pulse repetition time {self.prt:.3e} s"
            )
        if self.t_frame < self.prt:
            raise ConfigError(
                f"frame duration t_frame = {self.t_frame:.3e} s is shorter than "
                f"its chirp's pulse repetition time {self.prt:.3e} s"
            )
        return self

    @property
    def frame_rate(self) -> float:
        return 1.0 / self.t_frame  # Hz


@dataclass(frozen=True)
class DerivedWaveform:
    """Quantities fixed by a ChirpConfig."""

    bandwidth_b: float  # swept bandwidth over the ADC window, Hz
    range_resolution: float  # m
    wavelength: float  # m
    pulse_window_t: float  # sampled chirp duration, s


def derive_waveform(cfg: ChirpConfig) -> DerivedWaveform:
    """Derive bandwidth, range resolution, wavelength and window length.

    The effective bandwidth is the slope times the sampled window
    (k_chirp * n_adc / fs), not the full ramp excursion, because only the
    sampled portion contributes to range resolution.

    Parameters
    ----------
    cfg : ChirpConfig
        Validated chirp parameters.

    Returns
    -------
    DerivedWaveform
    """
    cfg.validate()
    window = cfg.n_adc / cfg.fs  # s
    bandwidth = cfg.k_chirp * window  # Hz
    return DerivedWaveform(
        bandwidth_b=bandwidth,
        range_resolution=SPEED_OF_LIGHT / (2.0 * bandwidth),
        wavelength=SPEED_OF_LIGHT / cfg.fc,
        pulse_window_t=window,
    )

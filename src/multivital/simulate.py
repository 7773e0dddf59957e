"""Raw IF data-cube synthesis for scenes of moving point scatterers.

Each frame holds one chirp per channel; scatterer motion is frozen within a
frame. Two fidelity modes exist: "plane-wave" factors the channel response
into Tx/Rx steering phasors with a common two-way delay, "exact-path"
computes every Tx-point-Rx path length so wavefront curvature is present in
the data. "auto" picks exact-path whenever any scatterer sits closer than
the far-field distance 2 D^2 / lambda of the aperture.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._util import thread_count
from .config import SPEED_OF_LIGHT, ChirpConfig, derive_waveform
from .errors import ConfigError
from .geometry import (
    ArrayGeometry,
    element_positions_m,
    scene_direction_cosines,
    steering_from_cosines,
)

MODES = ("auto", "plane-wave", "exact-path")


@dataclass(frozen=True)
class SinusoidMotion:
    """Sinusoidal displacement along a fixed unit direction."""

    direction: tuple[float, float, float]
    amplitude: float  # m
    frequency: float  # Hz
    phase: float = 0.0  # rad

    def validate(self) -> "SinusoidMotion":
        norm = math.sqrt(sum(c * c for c in self.direction))
        if abs(norm - 1.0) > 1e-6:
            raise ConfigError(f"motion direction must be a unit vector, |d| = {norm:.6g}")
        if self.amplitude < 0:
            raise ConfigError("motion amplitude must be >= 0")
        if self.frequency <= 0:
            raise ConfigError("motion frequency must be > 0")
        return self

    def displacement(self, t: float) -> float:
        return self.amplitude * math.sin(2.0 * math.pi * self.frequency * t + self.phase)


@dataclass(frozen=True)
class SampledMotion:
    """Displacement series along a fixed unit direction, sampled at rate_hz.

    Lookup uses the nearest sample, clamped at the ends; supply the series
    at the frame rate for exact per-frame values.
    """

    direction: tuple[float, float, float]
    displacement_m: tuple[float, ...]
    rate_hz: float

    def validate(self) -> "SampledMotion":
        norm = math.sqrt(sum(c * c for c in self.direction))
        if abs(norm - 1.0) > 1e-6:
            raise ConfigError(f"motion direction must be a unit vector, |d| = {norm:.6g}")
        if self.rate_hz <= 0:
            raise ConfigError("motion rate_hz must be > 0")
        if not self.displacement_m:
            raise ConfigError("sampled motion needs at least one displacement value")
        return self

    def displacement(self, t: float) -> float:
        idx = int(round(t * self.rate_hz))
        idx = min(max(idx, 0), len(self.displacement_m) - 1)
        return self.displacement_m[idx]


Motion = SinusoidMotion | SampledMotion


@dataclass(frozen=True)
class ScatterPoint:
    """One point scatterer: rest position, optional motion, linear amplitude."""

    position0: tuple[float, float, float]  # m
    motion: Motion | None = None
    reflectivity: float = 1.0

    def validate(self) -> "ScatterPoint":
        if not self.reflectivity > 0:
            raise ConfigError("reflectivity must be > 0")
        if self.motion is not None:
            self.motion.validate()
        return self

    def position_at(self, t: float) -> np.ndarray:
        p = np.asarray(self.position0, dtype=np.float64)
        if self.motion is None:
            return p
        return p + self.motion.displacement(t) * np.asarray(
            self.motion.direction, dtype=np.float64
        )

    def radial_displacement(self, times: np.ndarray) -> np.ndarray:
        """Ground-truth |P(t)| - |P(0)| in meters, for comparisons."""
        r0 = float(np.linalg.norm(self.position_at(0.0)))
        return np.array(
            [float(np.linalg.norm(self.position_at(float(t)))) - r0 for t in times]
        )


@dataclass(frozen=True)
class Scene:
    """Scatterers plus acquisition-level noise and reproducibility settings."""

    points: tuple[ScatterPoint, ...]
    snr_db: float | None = None  # per-sample SNR; None disables noise
    seed: int = 0
    mode: str = "auto"

    def validate(self) -> "Scene":
        if not self.points:
            raise ConfigError("scene needs at least one scatter point")
        for p in self.points:
            p.validate()
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise ConfigError("scene snr_db must be finite (use null/None to disable)")
        if self.mode not in MODES:
            raise ConfigError(f"scene mode must be one of {MODES}, got {self.mode!r}")
        return self


@dataclass(frozen=True)
class RawDataCube:
    """Complex IF samples indexed (frame, tx, rx, fast-time sample)."""

    samples: np.ndarray  # complex64
    chirp: ChirpConfig
    geometry: ArrayGeometry
    seed: int = 0

    def validate(self) -> "RawDataCube":
        self.chirp.validate()
        expected = (
            self.chirp.n_frames,
            self.geometry.n_tx,
            self.geometry.n_rx,
            self.chirp.n_adc,
        )
        if self.samples.shape != expected:
            raise ConfigError(
                f"cube shape {self.samples.shape} does not match meta {expected}"
            )
        return self


def far_field_distance(geom: ArrayGeometry, wavelength: float) -> float:
    """2 D^2 / lambda for the virtual aperture extent D, meters."""
    az = [t[0] + r[0] for t in geom.tx_elements for r in geom.rx_elements]
    d = (max(az) - min(az)) * wavelength / 2.0  # m
    return 2.0 * d * d / wavelength


def _resolve_mode(scene: Scene, geom: ArrayGeometry, wavelength: float) -> str:
    if scene.mode != "auto":
        return scene.mode
    limit = far_field_distance(geom, wavelength)
    closest = min(float(np.linalg.norm(np.asarray(p.position0))) for p in scene.points)
    return "exact-path" if closest < limit else "plane-wave"


def _fast_time(cfg: ChirpConfig) -> np.ndarray:
    # Centered on the ADC window so the beat term contributes no slow-time
    # phase at a fixed range bin; the per-frame phase is then exactly
    # 4 pi R(m) / lambda.
    return (np.arange(cfg.n_adc) - (cfg.n_adc - 1) / 2.0) / cfg.fs


def _noise(shape, power: float, seed: int, frame: int) -> np.ndarray:
    """Circularly-symmetric complex Gaussian noise from a per-frame stream."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, frame], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    sigma = math.sqrt(power / 2.0)
    return rng.normal(scale=sigma, size=shape) + 1j * rng.normal(scale=sigma, size=shape)


def synthesize_frame(
    scene: Scene, cfg: ChirpConfig, geom: ArrayGeometry, m: int
) -> np.ndarray:
    """Synthesize one frame of IF samples for every channel.

    Parameters
    ----------
    scene : Scene
    cfg : ChirpConfig
    geom : ArrayGeometry
    m : int
        Frame index, < cfg.n_frames.

    Returns
    -------
    ndarray, complex64, shape (n_tx, n_rx, n_adc)
    """
    scene.validate()
    cfg.validate()
    geom.validate()
    if not 0 <= m < cfg.n_frames:
        raise ConfigError(f"frame index {m} outside 0..{cfg.n_frames - 1}")
    wl = derive_waveform(cfg).wavelength
    mode = _resolve_mode(scene, geom, wl)
    t_m = m * cfg.t_frame
    ts = _fast_time(cfg)  # s
    frame = np.zeros((geom.n_tx, geom.n_rx, cfg.n_adc), dtype=np.complex128)

    if mode == "plane-wave":
        for p in scene.points:
            pos = p.position_at(t_m)
            tau = 2.0 * float(np.linalg.norm(pos)) / SPEED_OF_LIGHT
            u, v = scene_direction_cosines(pos)
            a, b = steering_from_cosines(geom, u, v)
            tone = np.exp(1j * (2.0 * np.pi * cfg.k_chirp * tau * ts
                                + 2.0 * np.pi * cfg.fc * tau))
            frame += p.reflectivity * (
                np.conj(a)[:, None, None] * b[None, :, None] * tone[None, None, :]
            )
    else:
        # Exact per-channel paths. The two-way path splits into
        # (Tx -> P) + (P -> Rx), so the per-channel tone factorizes into a
        # Tx-dependent and an Rx-dependent term.
        tx_xyz, rx_xyz = element_positions_m(geom, wl)
        omega = 2.0 * np.pi * (cfg.k_chirp * ts + cfg.fc)  # rad/s of delay
        for p in scene.points:
            pos = p.position_at(t_m)
            d_tx = np.linalg.norm(pos[None, :] - tx_xyz, axis=1)  # m
            d_rx = np.linalg.norm(pos[None, :] - rx_xyz, axis=1)
            ph_tx = np.exp(1j * (omega[None, :] * (d_tx[:, None] / SPEED_OF_LIGHT)))
            ph_rx = np.exp(1j * (omega[None, :] * (d_rx[:, None] / SPEED_OF_LIGHT)))
            frame += p.reflectivity * ph_tx[:, None, :] * ph_rx[None, :, :]

    if scene.snr_db is not None and math.isfinite(scene.snr_db):
        signal_power = float(np.mean(np.abs(frame) ** 2))
        noise_power = signal_power * 10.0 ** (-scene.snr_db / 10.0)
        frame = frame + _noise(frame.shape, noise_power, scene.seed, m)
    return frame.astype(np.complex64)


def simulate(scene: Scene, cfg: ChirpConfig, geom: ArrayGeometry) -> RawDataCube:
    """Run synthesize_frame for all frames, in parallel, into one cube.

    Deterministic for a given scene seed regardless of thread count: every
    frame draws from its own counter-based stream keyed (seed, frame).

    Returns
    -------
    RawDataCube
    """
    scene.validate()
    cfg.validate()
    geom.validate()
    out = np.empty(
        (cfg.n_frames, geom.n_tx, geom.n_rx, cfg.n_adc), dtype=np.complex64
    )
    workers = min(thread_count(), cfg.n_frames)
    if workers <= 1:
        for m in range(cfg.n_frames):
            out[m] = synthesize_frame(scene, cfg, geom, m)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for m, frame in enumerate(
                pool.map(lambda i: synthesize_frame(scene, cfg, geom, i),
                         range(cfg.n_frames))
            ):
                out[m] = frame
    return RawDataCube(samples=out, chirp=cfg, geometry=geom, seed=scene.seed).validate()


"""Raw IF data-cube synthesis for scenes of moving point scatterers.

Each frame holds one chirp per channel; scatterer motion is frozen within a
frame. Every channel's response is traced along its exact Tx -> point -> Rx
path, so wavefront curvature is in the data at every range, and the
far-field (plane-wave) behaviour is its limit far from the aperture.

Each path's phase is linear in the fast-time sample index, so its n_adc =
q s tones are the outer product of q coarse and s fine phasors (s the
largest divisor of n_adc at most sqrt(n_adc)), each a running product of
one step phasor. A frame is one batched complex64 matrix product of those
factors over the points, written straight into its slot of the cube.
Noise, when the scene has an SNR, is complex Gaussian from polar
Box-Muller on float32 uniforms of an SFC64 stream keyed by
SeedSequence((seed, frame)), added in two contiguous halves of the
frame's float32 components.

Every validate raises ConfigError for a non-finite number, so a library
caller gets the same loud failure as a run config rather than a NaN cube.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._util import thread_count
from .config import SPEED_OF_LIGHT, ChirpConfig, derive_waveform
from .errors import ConfigError
from .geometry import ArrayGeometry, element_positions_m


def _require_finite(what: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{what} must be finite")


def _check_direction(direction: tuple[float, float, float]) -> None:
    """The check both motion kinds share: a finite unit vector."""
    _require_finite("motion direction", *direction)
    norm = math.sqrt(sum(c * c for c in direction))
    if abs(norm - 1.0) > 1e-6:
        raise ConfigError(f"motion direction must be a unit vector, |d| = {norm:.6g}")


@dataclass(frozen=True)
class SinusoidMotion:
    """Sinusoidal displacement along a fixed unit direction."""

    direction: tuple[float, float, float]
    amplitude: float  # m
    frequency: float  # Hz
    phase: float = 0.0  # rad

    def validate(self) -> "SinusoidMotion":
        _check_direction(self.direction)
        _require_finite("motion amplitude", self.amplitude)
        _require_finite("motion frequency", self.frequency)
        _require_finite("motion phase", self.phase)
        if self.amplitude < 0:
            raise ConfigError("motion amplitude must be >= 0")
        if self.frequency <= 0:
            raise ConfigError("motion frequency must be > 0")
        return self

    def displacement(self, t) -> np.ndarray:
        """Displacement in m at time t (s), or at each of an array of times."""
        return self.amplitude * np.sin(2.0 * np.pi * self.frequency * np.asarray(t) + self.phase)


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
        _check_direction(self.direction)
        _require_finite("motion rate_hz", self.rate_hz)
        _require_finite("motion displacement_m", *self.displacement_m)
        if self.rate_hz <= 0:
            raise ConfigError("motion rate_hz must be > 0")
        if not self.displacement_m:
            raise ConfigError("sampled motion needs at least one displacement value")
        return self

    def displacement(self, t) -> np.ndarray:
        """Displacement in m at time t (s), or at each of an array of times:
        the nearest sample, ties to even as round() breaks them."""
        idx = np.clip(np.rint(np.asarray(t) * self.rate_hz), 0, len(self.displacement_m) - 1)
        return np.asarray(self.displacement_m)[idx.astype(np.intp)]


Motion = SinusoidMotion | SampledMotion


@dataclass(frozen=True)
class ScatterPoint:
    """One point scatterer: rest position, optional motion, linear amplitude."""

    position0: tuple[float, float, float]  # m
    motion: Motion | None = None
    reflectivity: float = 1.0

    def validate(self) -> "ScatterPoint":
        _require_finite("point position0", *self.position0)
        _require_finite("point reflectivity", self.reflectivity)
        if not self.reflectivity > 0:
            raise ConfigError("reflectivity must be > 0")
        if self.motion is not None:
            self.motion.validate()
        return self

    def position_at(self, t) -> np.ndarray:
        """Position in m at time t (s), or at each of an array of times:
        shape np.shape(t) + (3,)."""
        p = np.asarray(self.position0, dtype=np.float64)
        if self.motion is None:
            return np.broadcast_to(p, np.shape(t) + (3,))
        d = self.motion.displacement(t)[..., None]
        return p + d * np.asarray(self.motion.direction, dtype=np.float64)

    def radial_displacement(self, times: np.ndarray) -> np.ndarray:
        """Ground-truth |P(t)| - |P(0)| in meters, for comparisons."""
        r0 = np.linalg.norm(self.position_at(0.0))
        return np.linalg.norm(self.position_at(times), axis=-1) - r0


def _check_seed(seed, owner: str) -> None:
    # the noise key and the MVDC header hold the seed as an unsigned 64-bit integer
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"{owner} seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{owner} seed must be in [0, 2**64), got {seed}")


@dataclass(frozen=True)
class Scene:
    """Scatterers plus acquisition-level noise and reproducibility settings."""

    points: tuple[ScatterPoint, ...]
    snr_db: float | None = None  # per-sample SNR; None disables noise
    seed: int = 0

    def validate(self) -> "Scene":
        if not self.points:
            raise ConfigError("scene needs at least one scatter point")
        for p in self.points:
            p.validate()
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise ConfigError("scene snr_db must be finite (use null/None to disable)")
        _check_seed(self.seed, "scene")
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
        _check_seed(self.seed, "cube")
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


@dataclass(frozen=True)
class _Plan:
    """What synthesize_frame needs that does not change from frame to frame.

    The n_adc fast-time samples split exactly as n_adc = q s, with s the
    largest divisor of n_adc at most sqrt(n_adc): sample i = k s + j sits
    at angular frequency omega[0] + k omega[1] + j omega[2] per second of
    delay. positions[m] holds every point at frame m. The arrays are
    read-only because simulate shares one plan across its threads.
    work_size counts the complex64 cells of synthesize_frame's scratch:
    the coarse and fine factors of n_tx * n_rx * n_points * q and
    n_tx * n_rx * n_points * s cells, and one frame of float32 cells for
    the noise.
    """

    omega: np.ndarray  # (3,) rad/s: first sample, coarse step, fine step
    split: tuple[int, int]  # (q, s)
    positions: np.ndarray  # (n_frames, n_points, 3) m
    xyz: np.ndarray  # (n_tx + n_rx, 3) m: the Tx elements, then the Rx ones
    gain: np.ndarray  # (n_tx + n_rx, n_points): each reflectivity on Tx rows, 1 on Rx rows
    work_size: int


def _split(n: int) -> tuple[int, int]:
    """(q, s) with n = q s and s the largest divisor of n at most sqrt(n)."""
    s = next(d for d in range(math.isqrt(n), 0, -1) if n % d == 0)
    return n // s, s


@functools.lru_cache(maxsize=8)
def _plan(scene: Scene, cfg: ChirpConfig, geom: ArrayGeometry) -> _Plan:
    """Validate the inputs and derive their frame-independent constants.

    Invalid inputs raise and are never cached, so every call with them
    raises again.
    """
    scene.validate()
    cfg.validate()
    geom.validate()
    wl = derive_waveform(cfg).wavelength
    # Fast time ts[i] is centered on the ADC window so the beat term
    # contributes no slow-time phase at a fixed range bin; the per-frame
    # phase is then exactly 4 pi R(m) / lambda. The phase per second of
    # delay, 2 pi (k_chirp ts[i] + fc), is linear in i.
    q, s = _split(cfg.n_adc)
    step = 2.0 * np.pi * cfg.k_chirp / cfg.fs  # rad/s per sample
    first = 2.0 * np.pi * (cfg.fc - cfg.k_chirp * (cfg.n_adc - 1) / 2.0 / cfg.fs)
    omega = np.array([first, step * s, step])
    times = np.arange(cfg.n_frames) * cfg.t_frame
    positions = np.stack([p.position_at(times) for p in scene.points], axis=1)
    xyz = np.concatenate(element_positions_m(geom, wl))
    gain = np.ones((len(xyz), len(scene.points)))
    gain[:geom.n_tx] = [p.reflectivity for p in scene.points]
    for arr in (omega, positions, xyz, gain):
        arr.setflags(write=False)
    factor_cells = geom.n_tx * geom.n_rx * len(scene.points) * (q + s)
    noise_cells = (geom.n_tx * geom.n_rx * cfg.n_adc + 1) // 2  # two float32 per complex64
    return _Plan(
        omega=omega,
        split=(q, s),
        positions=positions,
        xyz=xyz,
        gain=gain,
        work_size=factor_cells + noise_cells,
    )


def _phasors(delay: np.ndarray, gain: np.ndarray, omega: np.ndarray, q: int, s: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """Coarse gain exp(j (omega[0] + k omega[1]) delay), k < q, and fine
    exp(j k omega[2] delay), k < s, of every path's delay (n_paths,
    n_points), as complex64 of shape (n_paths, q, n_points) and (n_paths,
    n_points, s).

    Each is a running product of one step phasor in complex128, so a path
    costs three exponentials and the products' rounding error grows by
    about one ulp a step before the single rounding to complex64.
    """
    e = np.exp(1j * (delay[..., None] * omega))  # (n_paths, n_points, 3)
    coarse = np.empty((len(delay), q, delay.shape[1]), dtype=np.complex128)
    np.multiply(gain, e[..., 0], out=coarse[:, 0])
    coarse[:, 1:] = e[:, None, :, 1]
    fine = np.empty(delay.shape + (s,), dtype=np.complex128)
    fine[..., 0] = 1.0
    fine[..., 1:] = e[..., 2:]
    np.cumprod(coarse, axis=1, out=coarse)
    np.cumprod(fine, axis=-1, out=fine)
    return coarse.astype(np.complex64), fine.astype(np.complex64)


def _add_noise(frame: np.ndarray, power: float, seed: int, m: int, buf: np.ndarray) -> None:
    """Add circularly-symmetric complex Gaussian noise of the given power
    into a C-contiguous complex64 frame, in place, through buf, a float32
    array of frame.size cells.

    Polar Box-Muller on float32 uniforms u, v from the frame's own SFC64
    stream, keyed by SeedSequence((seed, m)): radius sqrt(-power ln(1 - u)),
    angle 2 pi v. Since u < 1 on a 2^-24 grid, |n|^2 is capped at 24 ln2
    power, that is |n| at 5.8 sigma of one component; a sample reaches the
    cap with probability 2^-24. With n = frame.size, the n cosine terms go
    to the first half of the frame's 2 n float32 components and the n sine
    terms to the second half: each component gets an independent
    N(0, power / 2), and both adds are contiguous.

    The uniforms are those of Generator.random((2, n), dtype=float32) bit
    for bit, made in bulk from the raw stream instead of value by value:
    each 64-bit word is two 32-bit words x, low half first, and each x
    gives (x >> 8) 2^-24. u is the first n of them, v the next n. x with
    its low 8 bits cleared converts to float32 exactly, so u is that times
    2^-32 and 2 pi v is that times float32(2 pi) 2^-32, both exact
    power-of-two scalings of the same products. The radius is made in
    buf; the angle then overwrites the u words and its cosine the v words,
    so no step reads the memory it writes and the raw words are the only
    allocation.
    """
    n = frame.size
    raw = np.random.SFC64(np.random.SeedSequence((seed, m))).random_raw(n)
    words = raw.astype("<u8", copy=False).view("<u4")  # low half first on any host
    words &= np.uint32(0xFFFFFF00)
    u = np.multiply(words[:n], np.float32(2.0**-32), out=buf, dtype=np.float32)
    np.subtract(1, u, out=u)
    np.log(u, out=u)
    u *= np.float32(-power)
    radius = np.sqrt(u, out=u)
    uniform = words.view("<f4")
    angle = np.multiply(words[n:], np.float32(2.0 * np.pi) * np.float32(2.0**-32),
                        out=uniform[:n], dtype=np.float32)
    parts = frame.reshape(-1).view(np.float32)
    cos = np.cos(angle, out=uniform[n:])
    cos *= radius
    parts[:n] += cos
    sin = np.sin(angle, out=angle)
    sin *= radius
    parts[n:] += sin


def synthesize_frame(
    scene: Scene,
    cfg: ChirpConfig,
    geom: ArrayGeometry,
    m: int,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Synthesize one frame of IF samples for every channel.

    A path's tone over the n_adc = q s fast-time samples is the outer
    product of q coarse and s fine phasors, each a running product of one
    step phasor, so a path costs three complex exponentials. The
    reflectivity rides on the Tx side, and one batched complex64 matrix
    product over the points sums every channel's tones with fast time
    innermost, straight into out. Validation and the frame-independent
    constants, the points' positions at every frame among them, are
    computed once per (scene, cfg, geom) and reused across frames. Given
    its scratch, a frame allocates only small per-path arrays and its
    noise's raw SFC64 words.

    Parameters
    ----------
    scene : Scene
    cfg : ChirpConfig
    geom : ArrayGeometry
    m : int
        Frame index, < cfg.n_frames.
    out : ndarray, optional
        C-contiguous complex64 array of shape (n_tx, n_rx, n_adc) to write
        the frame into, such as one frame slot of a cube; a new one when
        omitted.
    work : ndarray, optional
        C-contiguous complex64 scratch of _plan(scene, cfg, geom).work_size
        cells that holds the coarse and fine factors and the noise's
        float32 terms, so a caller making many frames reuses one buffer; a
        new one when omitted.

    Returns
    -------
    ndarray, complex64, shape (n_tx, n_rx, n_adc)
        out, when it was given.
    """
    plan = _plan(scene, cfg, geom)
    if not 0 <= m < cfg.n_frames:
        raise ConfigError(f"frame index {m} outside 0..{cfg.n_frames - 1}")
    n_tx, n_rx, n_pts = geom.n_tx, geom.n_rx, len(scene.points)
    shape = (n_tx, n_rx, cfg.n_adc)
    if out is None:
        out = np.empty(shape, dtype=np.complex64)
    elif out.shape != shape or out.dtype != np.complex64 or not out.flags.c_contiguous:
        raise ConfigError(f"out must be a C-contiguous complex64 array of shape {shape}")
    if work is None:
        work = np.empty(plan.work_size, dtype=np.complex64)
    elif (work.shape != (plan.work_size,) or work.dtype != np.complex64
          or not work.flags.c_contiguous):
        raise ConfigError(f"work must be a C-contiguous complex64 array of {plan.work_size} cells")
    (q, s), pos = plan.split, plan.positions[m]  # (P, 3) m
    # The two-way path splits into (Tx -> P) + (P -> Rx), so the
    # per-channel tone factorizes into a Tx-dependent and an Rx-dependent
    # term; the reflectivity rides on the Tx side.
    dist = np.linalg.norm(plan.xyz[:, None, :] - pos, axis=-1)  # (T + R, P) m
    coarse_ph, fine_ph = _phasors(dist / SPEED_OF_LIGHT, plan.gain, plan.omega, q, s)
    n_coarse, n_fine = n_tx * n_rx * q * n_pts, n_tx * n_rx * n_pts * s
    # coarse[t, r, k, p] = ph_tx[t, k, p] ph_rx[r, k, p] and
    # fine[t, r, p, j] = ph_tx[t, p, j] ph_rx[r, p, j].
    coarse = np.multiply(coarse_ph[:n_tx, None], coarse_ph[n_tx:],
                         out=work[:n_coarse].reshape(n_tx, n_rx, q, n_pts))
    fine = np.multiply(fine_ph[:n_tx, None], fine_ph[n_tx:],
                       out=work[n_coarse:n_coarse + n_fine].reshape(n_tx, n_rx, n_pts, s))
    # One product sums the points: sample k s + j of channel (t, r) is
    # sum_p coarse[t, r, k, p] fine[t, r, p, j].
    np.matmul(coarse, fine, out=out.reshape(n_tx, n_rx, q, s))
    if scene.snr_db is not None:
        # einsum, not vdot: a BLAS dot product wakes BLAS worker threads,
        # which then spin beside simulate's own workers.
        parts = out.reshape(-1).view(np.float32)
        signal_power = float(np.einsum("i,i->", parts, parts)) / out.size
        noise_power = signal_power * 10.0 ** (-scene.snr_db / 10.0)
        noise = work[n_coarse + n_fine:].view(np.float32)[:out.size]
        _add_noise(out, noise_power, scene.seed, m, noise)
    return out


def simulate(scene: Scene, cfg: ChirpConfig, geom: ArrayGeometry) -> RawDataCube:
    """Run synthesize_frame for all frames, in parallel, into one cube: the
    one-chunk case of simulate_chunks.

    Deterministic for a given scene seed regardless of thread count: every
    frame draws from its own counter-based stream keyed (seed, frame).

    Returns
    -------
    RawDataCube
    """
    (samples,) = simulate_chunks(scene, cfg, geom, cfg.n_frames)
    return RawDataCube(samples=samples, chirp=cfg, geometry=geom, seed=scene.seed).validate()


def simulate_chunks(
    scene: Scene, cfg: ChirpConfig, geom: ArrayGeometry, frames_per_chunk: int,
) -> Iterator[np.ndarray]:
    """The cube's frames in order, frames_per_chunk at a time (the last
    chunk may hold fewer), each synthesized in parallel into one reused
    complex64 buffer.

    A chunk is overwritten by the next, so use it (write it out) before
    asking for the next: only one chunk of the cube is ever held. The frames
    are simulate's, bit for bit, whatever the chunk size or thread count.

    Yields
    ------
    ndarray, complex64, shape (frames, n_tx, n_rx, n_adc)
    """
    plan = _plan(scene, cfg, geom)  # validates, and builds the plan every frame reuses
    buf = np.empty(
        (min(frames_per_chunk, cfg.n_frames), geom.n_tx, geom.n_rx, cfg.n_adc),
        dtype=np.complex64,
    )
    workers = min(thread_count(), len(buf))
    # One scratch per worker, reused by its frames, so frames do not
    # allocate and fault in their own.
    work = [np.empty(plan.work_size, dtype=np.complex64) for _ in range(workers)]

    with ThreadPoolExecutor(workers) as pool:  # starts no thread until first used
        for start in range(0, cfg.n_frames, len(buf)):
            out = buf[:cfg.n_frames - start]

            def run(k: int) -> None:
                for j in range(k, len(out), workers):
                    synthesize_frame(scene, cfg, geom, start + j, out=out[j], work=work[k])

            if workers == 1:
                run(0)
            else:
                # list() drains the map so a worker's exception is raised here
                list(pool.map(run, range(workers)))
            yield out

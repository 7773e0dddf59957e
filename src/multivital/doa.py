"""Azimuth spectra, near-field focusing and compensation, region selection.

The dense azimuth ULA is stitched from runs of different (Tx, Rx-cluster)
pairs. Under plane-wave arrival the stitching is exact, but for a close
subject the wavefront curvature differs between the physical Tx/Rx pairs
that realize adjacent ULA positions, leaving a phase step at every block
junction. Those steps are precomputed per steering angle into a table and
folded into the ULA weights, for the azimuth spectrum. Regions, elevation
and the angle map focus all channels on scene points instead.

Sign convention. Raw IF data carry phase exp(-j pi p u) across virtual
position p (direction cosine u); the Beamformer steers them with matched
exp(+j pi p u) weights, so the azimuth peak lands at l = N sin(phi) / 2 on
the grid theta_l = arcsin(2 l / N), and the steered slow-time phase keeps
the +4 pi R / lambda sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigError, ProcessingError
from .geometry import ArrayGeometry, AzimuthUlaSelection, element_positions_m
# Not called here: kept so multivital.doa.extract_range_bin stays importable;
# the bench tracer wraps it at this name.
from .rangeproc import extract_range_bin  # noqa: F401

REGION_IDS = ("A", "P", "T", "E", "M")


@dataclass(frozen=True)
class AngleMap:
    """Beamformed power over azimuth x elevation for one frame at one bin."""

    power: np.ndarray  # (n_azimuth, n_elevation), >= 0
    azimuth_grid: np.ndarray  # rad
    elevation_grid: np.ndarray  # rad


@dataclass(frozen=True)
class RegionSignal:
    """Slow-time complex signal attributed to one chest region."""

    region: str
    slowtime: np.ndarray  # complex, length n_frames


def _shifted_grid(n_fft: int) -> tuple[np.ndarray, np.ndarray]:
    l = np.arange(n_fft) - n_fft // 2
    return l, np.arcsin(2.0 * l / n_fft)


def _path_excess(e_hat: np.ndarray, rho: np.ndarray, xyz: np.ndarray) -> np.ndarray:
    """|P - e| - |P|, wavelengths, shape (points, elements), for points
    P = e_hat / rho (unit directions (points, 3), rho = 1 / |P| as
    (points, 1); 0 gives plane waves) and element positions xyz
    (elements, 3), wavelengths. (rho |e|^2 - 2 e_hat . e) / (|e_hat - rho e| + 1)
    does not cancel at any range."""
    d = e_hat @ (-2.0 * xyz.T)  # in place from here
    d += rho * np.sum(xyz * xyz, axis=1)
    root = rho * d
    root += 1.0
    d /= np.sqrt(root, out=root) + 1.0
    return d


@dataclass(frozen=True)
class Beamformer:
    """Reads one array's azimuth ULA over the grid and focuses the whole array.

    Takes raw channel data, shape (n_tx * n_rx, n_cols), and steers it
    with matched weights (sign convention in the module docstring).
    Azimuth lives on the grid u_l = 2 l / n_fft. weights holds the ULA's
    weight at every grid azimuth, junction compensation included, so every
    azimuth read of the ULA is one product with its rows. focus steers
    to scene points: regions at their own, elevation and the angle map at
    range_wl (wavelengths; inf gives plane waves).
    """

    n_fft: int
    ula: list[int]  # channel (tx * n_rx + rx) of every ULA position
    weights: np.ndarray  # (n_fft, len(ula)) complex
    tx_wl: np.ndarray  # (n_tx, 3) element positions, wavelengths
    rx_wl: np.ndarray  # (n_rx, 3)
    range_wl: float

    @classmethod
    def build(
        cls,
        sel: AzimuthUlaSelection,
        geom: ArrayGeometry,
        n_fft: int,
        range_wl: float = np.inf,
        plane: bool = False,
    ) -> "Beamformer":
        """Beamformer for a ULA selection of geom, focused at range_wl
        (wavelengths, > 0; inf gives plane waves).

        The weight of ULA position p at grid index l is
        exp(+2 pi j l p / n_fft). At a finite range_wl the near-field
        junction table (build_phase_error_table) is built at the points
        focus steers to: with plane on the depth plane z = range_wl, else
        at radial range range_wl, depth range_wl cos(theta_l). It is folded
        in: the weights of block b are rotated by exp(-j sum of the first b
        table rows).
        """
        if not range_wl > 0:
            raise ConfigError(f"focus range must be > 0 wavelengths (inf for plane waves), "
                              f"got {range_wl}")
        n_ula = len(sel.chosen)
        if n_fft < n_ula:
            raise ConfigError(f"n_fft {n_fft} is smaller than the array length {n_ula}")
        l, theta = _shifted_grid(n_fft)
        weights = np.exp(2j * np.pi * np.outer(l, np.arange(n_ula)) / n_fft)
        if np.isfinite(range_wl):
            depth = range_wl if plane else range_wl * np.cos(theta)
            dphi = build_phase_error_table(sel, geom, depth, n_fft)
            rot = np.exp(-1j * np.cumsum(dphi, axis=0))
            for (start, stop), r in zip(sel.blocks[1:], rot):
                weights[:, start:stop + 1] *= r[:, None]
        tx_wl, rx_wl = element_positions_m(geom, 1.0)
        ula = [t * geom.n_rx + r for t, r in sel.chosen]
        return cls(n_fft, ula, weights, tx_wl, rx_wl, range_wl)

    def ula_spectrum(self, y: np.ndarray) -> np.ndarray:
        """Matched ULA spectrum of raw data y over the grid, shape (n_fft, n_cols)."""
        return self.weights @ y[self.ula]

    def focus(self, y: np.ndarray, u, v, range_wl) -> np.ndarray:
        """Matched output of raw data y at scene points, shape (len(u), n_cols).

        Point P lies at range_wl (wavelengths, one or per point) along the
        direction cosines u (lateral), v (up). Channel (t, r) gets weight
        exp(-2 pi j (d_t + d_r)), d_e = |P - e| - |P| (_path_excess),
        factored into Tx and Rx phasors as in the simulator. Its phase is
        at most 2 pi |e| (~170 rad): float32 cos/sin.
        """
        u, v = np.broadcast_arrays(np.asarray(u, dtype=np.float64), v)
        e_hat = np.stack([u, np.sqrt(1.0 - u * u - v * v), v], axis=-1)
        rho = 1.0 / np.broadcast_to(range_wl, u.shape)[:, None]

        def phasors(xyz: np.ndarray) -> np.ndarray:
            phase = (2.0 * np.pi * _path_excess(e_hat, rho, xyz)).astype(np.float32)
            out = np.empty(phase.shape, dtype=np.complex128)
            out.real = np.cos(phase)
            out.imag = np.negative(np.sin(phase, out=phase), out=phase)
            return out

        n_tx, n_rx = len(self.tx_wl), len(self.rx_wl)
        by_rx = y.reshape(n_tx, n_rx, -1).transpose(1, 0, 2).reshape(n_rx, -1)
        per_tx = (phasors(self.rx_wl) @ by_rx).reshape(len(u), n_tx, -1)
        return np.einsum("pt,ptc->pc", phasors(self.tx_wl), per_tx) / (n_tx * n_rx)

    def directional_power(self, y: np.ndarray, u, v) -> np.ndarray:
        """Focused power of frame 0 of y at range_wl along direction cosines
        u, v (broadcast together); 0 where u^2 + v^2 >= 1."""
        u, v = np.broadcast_arrays(np.asarray(u, dtype=np.float64), v)
        ok = u * u + v * v < 1.0
        power = np.zeros(u.shape)
        power[ok] = np.abs(self.focus(y[:, :1], u[ok], v[ok], self.range_wl)[:, 0]) ** 2
        return power


def junction_phase_error(
    sel: AzimuthUlaSelection,
    geom: ArrayGeometry,
    depth_wl: float | np.ndarray,
    theta_l: np.ndarray,
) -> np.ndarray:
    """Phase step at every block junction for a subject at boresight depth z.

    The subject sits at P = (z tan(theta_l), z, 0). Every virtual element
    carries a near-field phase error: its exact two-way (Tx -> P -> Rx)
    path L_e (wavelengths) against the plane-wave phase its ULA position
    implies,

        eps_e = 2 pi L_e + pi p_e sin(theta_l)  (+ const)

    A block's error is the mean of eps over its elements, and the junction
    step is the later block's error minus the earlier block's. Summing the
    steps through block b telescopes to that block's own mean error, so
    the cumulative per-block correction re-focuses the whole array, not
    just the seams; referencing each block to its mean keeps the residual
    zero-centered inside every block. For single-element blocks the step
    reduces to the exact path difference of the two elements. dphi -> 0 as
    z -> infinity at rate O(1/z).

    Parameters
    ----------
    sel, geom : selection and physical geometry
    depth_wl : float or array
        Boresight depth z, wavelengths, > 0: one, or one per steering angle.
    theta_l : array
        Steering angles, rad, shape (n_angles,).

    Returns
    -------
    ndarray, rad, shape (n_junctions, n_angles)
    """
    if not np.all(np.asarray(depth_wl) > 0):
        raise ConfigError(f"boresight depth must be > 0 wavelengths, got {depth_wl}")
    theta = np.asarray(theta_l, dtype=np.float64)
    if theta.ndim != 1:
        raise ConfigError(f"steering angles must be a 1-D array, got shape {theta.shape}")
    u = np.sin(theta)
    e_hat = np.stack([u, np.cos(theta), np.zeros_like(theta)], axis=-1)  # P / |P|
    rho = (np.cos(theta) / depth_wl)[:, None]  # 1 / |P|
    tx_az = np.array(geom.tx_elements)[:, 0]
    rx_az = np.array(geom.rx_elements)[:, 0]

    # Path excesses once per physical element, (n_elements, n_angles); each
    # ULA position's path difference to the first position's pair is taken
    # from them by its (Tx, Rx) pair.
    tx_ex, rx_ex = (_path_excess(e_hat, rho, xyz).T for xyz in element_positions_m(geom, 1.0))
    ti, ri = np.array(sel.chosen).T
    tx_0, rx_0 = sel.chosen[0]
    path = (tx_ex[ti] - tx_ex[tx_0]) + (rx_ex[ri] - rx_ex[rx_0])
    dp = (tx_az[ti] + rx_az[ri]) - (tx_az[tx_0] + rx_az[rx_0])
    eps = 2.0 * np.pi * path + np.pi * dp[:, None] * u
    block_err = np.stack([eps[s:stop + 1].mean(axis=0) for s, stop in sel.blocks])
    return block_err[1:] - block_err[:-1]


def build_phase_error_table(
    sel: AzimuthUlaSelection,
    geom: ArrayGeometry,
    depth_wl: float | np.ndarray,
    n_fft: int,
) -> np.ndarray:
    """Tabulate junction phase errors over the full angular grid, for a
    subject at boresight depth depth_wl (wavelengths): one, or one per
    grid angle.

    Returns dphi, rad, shape (n_junctions, n_fft). Grid indices with
    |2l / n_fft| >= 1 have no real steering angle and get zero entries (no
    compensation there).
    """
    l, _ = _shifted_grid(n_fft)
    frac = 2.0 * l / n_fft
    valid = np.abs(frac) < 1.0
    dphi = np.zeros((len(sel.junctions), n_fft))
    dphi[:, valid] = junction_phase_error(
        sel, geom, np.broadcast_to(depth_wl, frac.shape)[valid], np.arcsin(frac[valid])
    )
    return dphi


def select_region_signal(
    bf: Beamformer,
    y: np.ndarray,
    points: Mapping[str, tuple[float, float, float]],
) -> list[RegionSignal]:
    """Slow-time signal per chest region, every frame focused on its scene
    point (x lateral, y boresight depth, z up; wavelengths).

    Parameters
    ----------
    bf : Beamformer
    y : ndarray
        Raw subject-bin data, shape (channels, frames).
    points : mapping region id -> (x, y, z), finite, with y > 0

    Returns
    -------
    list of RegionSignal, in the order of the points mapping.
    """
    if not 1 <= len(points) <= 5:
        raise ProcessingError(f"expected 1..5 regions, got {len(points)}")
    for rid in points:
        if rid not in REGION_IDS:
            raise ConfigError(f"region must be one of {REGION_IDS}, got {rid!r}")

    xyz = np.array(list(points.values()), dtype=np.float64)
    for rid, p in zip(points, xyz):
        if not (np.isfinite(p).all() and p[1] > 0):
            raise ProcessingError(
                f"region {rid} point {p.tolist()} (wavelengths) must be finite, with depth y > 0"
            )
    r = np.linalg.norm(xyz, axis=1)
    steered = bf.focus(y, xyz[:, 0] / r, xyz[:, 2] / r, r)
    return [RegionSignal(region=rid, slowtime=s) for rid, s in zip(points, steered)]


def angle_map(bf: Beamformer, y: np.ndarray) -> AngleMap:
    """Azimuth x elevation focused power of frame 0 of raw data y, at
    direction cosines (u_l, sin(theta)) for elevation on a 1 degree grid
    from -45 to 45 degrees."""
    elevation_grid = np.deg2rad(np.arange(-45.0, 46.0, 1.0))
    l, az_grid = _shifted_grid(bf.n_fft)
    power = bf.directional_power(y, (2.0 * l / bf.n_fft)[:, None], np.sin(elevation_grid))
    return AngleMap(power=power, azimuth_grid=az_grid, elevation_grid=elevation_grid)

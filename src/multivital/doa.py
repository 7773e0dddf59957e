"""Azimuth/elevation spectra, near-field phase compensation, region selection.

The dense azimuth ULA is stitched from runs of different (Tx, Rx-cluster)
pairs. Under plane-wave arrival the stitching is exact, but for a close
subject the wavefront curvature differs between the physical Tx/Rx pairs
that realize adjacent ULA positions, leaving a phase step at every block
junction. Those steps are precomputed per steering angle into a table and
folded into the ULA weights.

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
from .geometry import (
    ArrayGeometry,
    AzimuthUlaSelection,
    build_virtual_array,
    element_positions_m,
)
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


@dataclass(frozen=True)
class Beamformer:
    """Steers one array's azimuth ULA and elevation rows over the grid.

    Takes raw channel data, shape (n_tx * n_rx, n_cols), and steers it
    with matched weights (sign convention in the module docstring).
    Azimuth lives on the grid u_l = 2 l / n_fft. weights holds the ULA's
    weight at every grid azimuth, junction compensation included, so every
    azimuth read of the ULA is one product with its rows. steer gives the
    whole array's output at chosen grid azimuths and elevations.
    """

    n_fft: int
    ula: list[int]  # channel (tx * n_rx + rx) of every ULA position
    weights: np.ndarray  # (n_fft, len(ula)) complex
    # (elevation, channels, azimuth positions) per elevation row, row 0 first
    rows: tuple[tuple[int, list[int], np.ndarray], ...]

    @classmethod
    def build(
        cls,
        sel: AzimuthUlaSelection,
        geom: ArrayGeometry,
        n_fft: int,
        dphi: np.ndarray | None = None,
    ) -> "Beamformer":
        """Beamformer for a ULA selection of geom.

        The weight of ULA position p at grid index l is
        exp(+2 pi j l p / n_fft). A phase table dphi from
        build_phase_error_table turns on near-field junction compensation:
        the weights of block b are rotated by exp(-j sum of the first b
        table rows).
        """
        n_ula = len(sel.chosen)
        if n_fft < n_ula:
            raise ConfigError(f"n_fft {n_fft} is smaller than the array length {n_ula}")
        l, _ = _shifted_grid(n_fft)
        weights = np.exp(2j * np.pi * np.outer(l, np.arange(n_ula)) / n_fft)
        if dphi is not None:
            if dphi.shape != (len(sel.junctions), n_fft):
                raise ProcessingError(
                    f"phase table shape {dphi.shape} does not match "
                    f"{len(sel.junctions)} junctions x n_fft {n_fft}"
                )
            rot = np.exp(-1j * np.cumsum(dphi, axis=0))
            for (start, stop), r in zip(sel.blocks[1:], rot):
                weights[:, start:stop + 1] *= r[:, None]
        grouped: dict[int, list[tuple[int, int]]] = {}
        for e in build_virtual_array(geom).elements:
            grouped.setdefault(e.elevation, []).append((e.tx * geom.n_rx + e.rx, e.azimuth))
        rows = tuple(
            (el, [c for c, _ in grouped[el]],
             np.array([a for _, a in grouped[el]], dtype=np.float64))
            for el in sorted(grouped, key=lambda e: (e != 0, e))
        )
        ula = [t * geom.n_rx + r for t, r in sel.chosen]
        return cls(n_fft=n_fft, ula=ula, weights=weights, rows=rows)

    def ula_spectrum(self, y: np.ndarray) -> np.ndarray:
        """Matched ULA spectrum of raw data y over the grid, shape (n_fft, n_cols)."""
        return self.weights @ y[self.ula]

    def row_sums(self, y: np.ndarray, u) -> np.ndarray:
        """Mean matched sum of every row of raw data y at direction cosines u.

        Returns shape (n_rows, len(u), n_cols).
        """
        return np.stack([_row_sum(y, u, ch, az) for _, ch, az in self.rows])

    def combine(self, rows: np.ndarray, sin_theta) -> np.ndarray:
        """Elevation matched combination of per-row values, averaged over rows.

        rows has shape (n_rows, n_azimuth, n_cols) in row order; returns
        shape (n_azimuth, len(sin_theta), n_cols).
        """
        el = np.array([e for e, _, _ in self.rows], dtype=np.float64)
        weights = np.exp(1j * np.pi * np.outer(el, sin_theta))
        return np.einsum("re,rlc->lec", weights, rows) / len(el)

    def steer(self, y: np.ndarray, l, sin_theta) -> np.ndarray:
        """Array output of raw data y at grid azimuth indices l and elevation sines.

        Row 0 is the compensated ULA read through its weight rows at l;
        every other row is its matched sum at u = 2 l / n_fft. The rows
        are then combined over elevation.

        Returns shape (len(l), len(sin_theta), n_cols).
        """
        l = np.asarray(l)
        u = 2.0 * l / self.n_fft
        rows = np.stack(
            [self.weights[l + self.n_fft // 2] @ y[self.ula] / len(self.ula)]
            + [_row_sum(y, u, ch, az) for _, ch, az in self.rows[1:]]
        )
        return self.combine(rows, sin_theta)


def _row_sum(y: np.ndarray, u, ch: list[int], az: np.ndarray) -> np.ndarray:
    """Mean matched sum of channels ch, at azimuth positions az, at direction cosines u."""
    u = np.asarray(u, dtype=np.float64)
    return np.exp(1j * np.pi * np.outer(u, az)) @ y[ch] / len(ch)


def _path_difference(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|p - a| - |p - b| without catastrophic cancellation.

    Uses |p-a|^2 - |p-b|^2 = (b-a) . (2p - a - b), accurate even when the
    two distances agree to many digits (far subjects).
    """
    na = np.linalg.norm(p - a, axis=-1)
    nb = np.linalg.norm(p - b, axis=-1)
    num = np.sum((b - a) * (2.0 * p - a - b), axis=-1)
    return num / (na + nb)


def junction_phase_error(
    sel: AzimuthUlaSelection,
    geom: ArrayGeometry,
    wavelength: float,
    z: float,
    theta_l,
) -> np.ndarray:
    """Phase step at every block junction for a subject at boresight range z.

    The subject sits at P = (z tan(theta_l), z, 0). Every virtual element
    carries a near-field phase error: its exact two-way (Tx -> P -> Rx)
    path against the plane-wave phase its ULA position implies,

        eps_e = (2 pi / lambda) L_e + pi p_e sin(theta_l)  (+ const)

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
    wavelength : float, m
    z : float
        Boresight range, m, > 0.
    theta_l : float or array
        Steering angle(s), rad.

    Returns
    -------
    ndarray
        Shape (n_junctions,) for scalar theta_l, else (n_junctions, len).
    """
    if not z > 0:
        raise ConfigError(f"boresight range z must be > 0, got {z}")
    theta = np.asarray(theta_l, dtype=np.float64)
    scalar = theta.ndim == 0
    th = np.atleast_1d(theta)
    p = np.stack([z * np.tan(th), np.full_like(th, z), np.zeros_like(th)], axis=-1)
    u = np.sin(th)
    tx_xyz, rx_xyz = element_positions_m(geom, wavelength)
    tx_az = [a for a, _ in geom.tx_elements]
    rx_az = [a for a, _ in geom.rx_elements]

    tx_0, rx_0 = sel.chosen[0]
    eps = np.empty((len(sel.chosen), len(th)))
    for e, (ti, ri) in enumerate(sel.chosen):
        dp = (tx_az[ti] + rx_az[ri]) - (tx_az[tx_0] + rx_az[rx_0])
        d_path = (
            _path_difference(p, tx_xyz[ti], tx_xyz[tx_0])
            + _path_difference(p, rx_xyz[ri], rx_xyz[rx_0])
        )
        eps[e] = (2.0 * np.pi / wavelength) * d_path + np.pi * dp * u
    block_err = np.stack([eps[s:stop + 1].mean(axis=0) for s, stop in sel.blocks])
    out = block_err[1:] - block_err[:-1]
    return out[:, 0] if scalar else out


def build_phase_error_table(
    sel: AzimuthUlaSelection,
    geom: ArrayGeometry,
    wavelength: float,
    z: float,
    n_fft: int,
) -> np.ndarray:
    """Tabulate junction phase errors over the full angular grid.

    Returns dphi, rad, shape (n_junctions, n_fft). Grid indices with
    |2l / n_fft| >= 1 have no real steering angle and get zero entries (no
    compensation there).
    """
    l, _ = _shifted_grid(n_fft)
    frac = 2.0 * l / n_fft
    valid = np.abs(frac) < 1.0
    dphi = np.zeros((len(sel.junctions), n_fft))
    dphi[:, valid] = junction_phase_error(
        sel, geom, wavelength, z, np.arcsin(frac[valid])
    )
    return dphi


def select_region_signal(
    bf: Beamformer,
    y: np.ndarray,
    regions: Mapping[str, tuple[float, float]],
) -> list[RegionSignal]:
    """Slow-time signal per chest region from its (azimuth, elevation) angles.

    For every frame the subject-bin data are steered to each region:
    the dense azimuth ULA through its weights at the grid index nearest
    sin(phi), the elevation rows through matched sums at the same direction
    cosine, then all rows are combined over elevation at theta.

    Parameters
    ----------
    bf : Beamformer
    y : ndarray
        Raw subject-bin data, shape (channels, frames).
    regions : mapping region id -> (phi, theta) in rad

    Returns
    -------
    list of RegionSignal, in the order of the regions mapping.
    """
    if not 1 <= len(regions) <= 5:
        raise ProcessingError(f"expected 1..5 regions, got {len(regions)}")
    for rid in regions:
        if rid not in REGION_IDS:
            raise ConfigError(f"region must be one of {REGION_IDS}, got {rid!r}")

    n_fft = bf.n_fft
    out: list[RegionSignal] = []
    for rid, (phi, theta) in regions.items():
        if not (abs(phi) < np.pi / 2 and abs(theta) < np.pi / 2):
            raise ProcessingError(
                f"region {rid} angles ({phi:.3f}, {theta:.3f}) rad outside the field of view"
            )
        l_star = int(round(n_fft * np.sin(phi) / 2.0))
        if not -n_fft // 2 <= l_star <= n_fft // 2 - 1:
            raise ProcessingError(
                f"region {rid} azimuth {phi:.3f} rad falls off the angular grid"
            )
        combined = bf.steer(y, [l_star], [np.sin(theta)])[0, 0]
        out.append(RegionSignal(region=rid, slowtime=combined))
    return out


def angle_map(bf: Beamformer, y: np.ndarray) -> AngleMap:
    """Azimuth x elevation beamformed power of frame 0 of raw data y,
    elevation on a 1 degree grid from -45 to 45 degrees."""
    elevation_grid = np.deg2rad(np.arange(-45.0, 46.0, 1.0))
    l, az_grid = _shifted_grid(bf.n_fft)
    combined = bf.steer(y[:, :1], l, np.sin(elevation_grid))[:, :, 0]
    return AngleMap(
        power=np.abs(combined) ** 2,
        azimuth_grid=az_grid,
        elevation_grid=elevation_grid,
    )

"""Antenna array geometry, MIMO virtual array and azimuth ULA selection.

Element positions are integer multiples of half the carrier wavelength so
that selection logic stays exact; element_positions_m converts them to
meters where physical path lengths are needed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ProcessingError

# Cascade front-end layout (azimuth, elevation) in half-wavelength units.
# Transmitters: the nine azimuth-row elements in ascending position, then the
# three elevation elements. Receivers follow the board's channel order: the
# four blocks sit at azimuth {11-14}, {50-53}, {46-49}, {0-3}.
TI_CASCADE_TX: tuple[tuple[int, int], ...] = (
    (0, 0), (4, 0), (8, 0), (12, 0), (16, 0), (20, 0), (24, 0), (28, 0), (32, 0),
    (9, 1), (10, 4), (11, 6),
)
TI_CASCADE_RX: tuple[tuple[int, int], ...] = (
    (11, 0), (12, 0), (13, 0), (14, 0),
    (50, 0), (51, 0), (52, 0), (53, 0),
    (46, 0), (47, 0), (48, 0), (49, 0),
    (0, 0), (1, 0), (2, 0), (3, 0),
)


@dataclass(frozen=True)
class ArrayGeometry:
    """Physical Tx/Rx element positions in half-wavelength units."""

    tx_elements: tuple[tuple[int, int], ...]
    rx_elements: tuple[tuple[int, int], ...]

    def validate(self) -> "ArrayGeometry":
        if not self.tx_elements or not self.rx_elements:
            raise ConfigError("geometry needs at least one Tx and one Rx element")
        return self

    @classmethod
    def ti_cascade(cls) -> "ArrayGeometry":
        """12 Tx x 16 Rx layout of the supported cascade evaluation board."""
        return cls(tx_elements=TI_CASCADE_TX, rx_elements=TI_CASCADE_RX)

    @property
    def n_tx(self) -> int:
        return len(self.tx_elements)

    @property
    def n_rx(self) -> int:
        return len(self.rx_elements)


def element_positions_m(
    geom: ArrayGeometry, wavelength: float
) -> tuple[np.ndarray, np.ndarray]:
    """Tx and Rx element positions (x, 0, z) in meters, shapes (n_tx, 3), (n_rx, 3)."""
    half = wavelength / 2.0  # m
    tx = np.array([(a * half, 0.0, e * half) for a, e in geom.tx_elements])
    rx = np.array([(a * half, 0.0, e * half) for a, e in geom.rx_elements])
    return tx, rx


class VirtualElement(NamedTuple):
    """One (Tx, Rx) pairing with its summed position."""

    tx: int  # transmit element index
    rx: int  # receive element index
    azimuth: int  # half-wavelength units
    elevation: int


@dataclass(frozen=True)
class VirtualArray:
    """All Tx/Rx pairings; element position = Tx position + Rx position."""

    elements: tuple[VirtualElement, ...]
    geometry: ArrayGeometry


def build_virtual_array(geom: ArrayGeometry) -> VirtualArray:
    """Form the MIMO virtual array of all (Tx, Rx) pairs, Tx-major order.

    Parameters
    ----------
    geom : ArrayGeometry

    Returns
    -------
    VirtualArray
        One element per pair; n_tx * n_rx entries.
    """
    geom.validate()
    elements = tuple(
        VirtualElement(ti, ri, ta + ra, te + re)
        for ti, (ta, te) in enumerate(geom.tx_elements)
        for ri, (ra, re) in enumerate(geom.rx_elements)
    )
    return VirtualArray(elements=elements, geometry=geom)


@dataclass(frozen=True)
class AzimuthUlaSelection:
    """Dense azimuth-plane ULA drawn from the virtual array.

    chosen maps ULA index (equal to azimuth position minus the base offset)
    to a (tx, rx) index pair. blocks are maximal runs sharing one Tx and one
    contiguous Rx cluster.
    """

    chosen: tuple[tuple[int, int], ...]
    blocks: tuple[tuple[int, int], ...]  # (start, stop) ULA indices, stop inclusive

    @property
    def junctions(self) -> tuple[int, ...]:
        """ULA indices that open every block after the first, where
        near-field phase steps appear."""
        return tuple(start for start, _ in self.blocks[1:])


@functools.lru_cache(maxsize=8)
def select_azimuth_ula(va: VirtualArray) -> AzimuthUlaSelection:
    """Pick one virtual element per azimuth position to form a dense ULA.

    Cached per virtual array (frozen, so hashable; the selection is frozen
    too, so callers share it): a run's config check and its pipeline make
    one selection. A geometry that raises is never cached.

    Walks positions left to right, preferring to stay on the current
    (Tx, Rx-cluster) pair so runs stay long; when a run cannot continue,
    the candidate with the lowest Tx index (then lowest Rx index) starts a
    new block, whose start is a junction.

    Parameters
    ----------
    va : VirtualArray

    Returns
    -------
    AzimuthUlaSelection

    Raises
    ------
    ProcessingError
        If the azimuth-plane position sums do not cover a contiguous range.
    """
    plane = [e for e in va.elements if e.elevation == 0]
    if not plane:
        raise ProcessingError("virtual array has no azimuth-plane elements")
    by_pos: dict[int, list[VirtualElement]] = {}
    for e in plane:
        by_pos.setdefault(e.azimuth, []).append(e)
    lo, hi = min(by_pos), max(by_pos)
    missing = [p for p in range(lo, hi + 1) if p not in by_pos]
    if missing:
        raise ProcessingError(
            f"azimuth coverage gap: no virtual element at position(s) {missing}"
        )

    # Rx cluster membership drives the run-continuation rule: within one
    # block the Tx is fixed and consecutive positions step through one
    # contiguous Rx cluster.
    rx = va.geometry.rx_elements
    clusters = _clusters_from_positions({e.rx: rx[e.rx][0] for e in plane})

    chosen: list[tuple[int, int]] = []
    blocks: list[tuple[int, int]] = []
    state: tuple[int, int] | None = None  # (tx index, rx cluster id)
    block_start = 0
    for pos in range(lo, hi + 1):
        idx = pos - lo
        candidates = sorted((e.tx, e.rx) for e in by_pos[pos])
        pick = None
        if state is not None:
            for tx, rx in candidates:
                if tx == state[0] and clusters[rx] == state[1]:
                    pick = (tx, rx)
                    break
        if pick is None:
            pick = candidates[0]
            if state is not None:
                blocks.append((block_start, idx - 1))
                block_start = idx
            state = (pick[0], clusters[pick[1]])
        chosen.append(pick)
    blocks.append((block_start, hi - lo))
    return AzimuthUlaSelection(chosen=tuple(chosen), blocks=tuple(blocks))


def _clusters_from_positions(rx_pos: dict[int, int]) -> dict[int, int]:
    ordered = sorted(rx_pos.items(), key=lambda kv: kv[1])
    clusters: dict[int, int] = {}
    cid = 0
    for k, (idx, pos) in enumerate(ordered):
        if k > 0 and pos - ordered[k - 1][1] > 1:
            cid += 1
        clusters[idx] = cid
    return clusters


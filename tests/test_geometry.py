import numpy as np
import pytest

from multivital.errors import ConfigError, ProcessingError
from multivital.geometry import (
    ArrayGeometry,
    build_virtual_array,
    element_positions_m,
    select_azimuth_ula,
)

# The azimuth ULA partition of the cascade board is fixed by its geometry;
# pin it so any change to the selection logic is caught.
EXPECTED_BLOCKS = (
    (0, 3), (4, 7), (8, 11), (12, 14), (15, 18), (19, 22), (23, 26),
    (27, 30), (31, 34), (35, 38), (39, 42), (43, 46), (47, 53), (54, 57),
    (58, 61), (62, 65), (66, 69), (70, 73), (74, 77), (78, 81), (82, 85),
)


def test_cascade_counts(cascade):
    assert cascade.n_tx == 12
    assert cascade.n_rx == 16
    assert len(set(cascade.tx_elements)) == 12
    assert len(set(cascade.rx_elements)) == 16


def test_cascade_elevation_rows(cascade):
    rows = sorted({e for _, e in cascade.tx_elements})
    assert rows == [0, 1, 4, 6]
    assert all(e == 0 for _, e in cascade.rx_elements)


def test_virtual_array_positions_are_sums(cascade):
    va = build_virtual_array(cascade)
    assert len(va.elements) == 12 * 16
    for e in va.elements:
        ta, te = cascade.tx_elements[e.tx]
        ra, re = cascade.rx_elements[e.rx]
        assert e.azimuth == ta + ra
        assert e.elevation == te + re


def test_virtual_array_is_tx_major(cascade):
    va = build_virtual_array(cascade)
    pairs = [(e.tx, e.rx) for e in va.elements]
    assert pairs == [(t, r) for t in range(12) for r in range(16)]


def test_azimuth_plane_is_contiguous(cascade):
    va = build_virtual_array(cascade)
    plane = {e.azimuth for e in va.elements if e.elevation == 0}
    assert plane == set(range(86))


def test_ula_selection_partition(ula):
    assert len(ula.chosen) == 86
    assert ula.blocks == EXPECTED_BLOCKS
    assert len(ula.junctions) == 20
    assert ula.junctions == tuple(start for start, _ in EXPECTED_BLOCKS[1:])


def test_ula_selection_positions(cascade, ula):
    tx_az = [a for a, _ in cascade.tx_elements]
    rx_az = [a for a, _ in cascade.rx_elements]
    pos = [tx_az[t] + rx_az[r] for t, r in ula.chosen]
    assert pos == list(range(86))


def test_ula_blocks_share_one_tx(ula):
    for start, stop in ula.blocks:
        txs = {ula.chosen[i][0] for i in range(start, stop + 1)}
        assert len(txs) == 1


def test_ula_first_block(ula):
    assert ula.chosen[:4] == ((0, 12), (0, 13), (0, 14), (0, 15))


def test_element_positions_in_meters(cascade):
    # Half-wavelength grid units become meters on the x (azimuth) and z
    # (elevation) axes; the array lies in the y = 0 plane.
    wl = 3.9e-3
    tx, rx = element_positions_m(cascade, wl)
    assert tx.shape == (12, 3) and rx.shape == (16, 3)
    assert np.all(tx[:, 1] == 0.0) and np.all(rx[:, 1] == 0.0)
    assert tuple(tx[9]) == pytest.approx((9 * wl / 2, 0.0, wl / 2))
    assert tuple(rx[4]) == pytest.approx((50 * wl / 2, 0.0, 0.0))


def test_ula_gap_raises():
    geom = ArrayGeometry(tx_elements=((0, 0),), rx_elements=((0, 0), (2, 0)))
    with pytest.raises(ProcessingError, match="gap"):
        select_azimuth_ula(build_virtual_array(geom))


def test_empty_geometry_raises():
    with pytest.raises(ConfigError):
        ArrayGeometry(tx_elements=(), rx_elements=((0, 0),)).validate()

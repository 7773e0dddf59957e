import dataclasses

import pytest

from multivital.config import SPEED_OF_LIGHT, ChirpConfig, derive_waveform
from multivital.errors import ConfigError


def test_waveform_table1(table1):
    w = derive_waveform(table1)
    assert w.bandwidth_b == pytest.approx(4.6084e9, rel=1e-3)
    assert w.range_resolution == pytest.approx(3.2527e-2, rel=1e-3)
    assert w.wavelength == pytest.approx(3.8934e-3, rel=1e-3)
    assert w.pulse_window_t == pytest.approx(512 / 7e6)


def test_waveform_table2(table2):
    w = derive_waveform(table2)
    assert w.bandwidth_b == pytest.approx(3.3791e9, rel=1e-3)
    assert w.range_resolution == pytest.approx(4.4360e-2, rel=1e-3)


def test_waveform_internal_consistency(table1):
    # B = K * (N_adc / fs) and dR = c / (2B) by definition.
    w = derive_waveform(table1)
    assert w.bandwidth_b == pytest.approx(table1.k_chirp * w.pulse_window_t)
    assert w.range_resolution == pytest.approx(SPEED_OF_LIGHT / (2 * w.bandwidth_b))
    assert w.wavelength == pytest.approx(SPEED_OF_LIGHT / table1.fc)


def test_frame_rate(table2):
    assert table2.frame_rate == pytest.approx(20.0)


@pytest.mark.parametrize("field,value", [
    ("fc", 0.0),
    ("fc", -77e9),
    ("prt", 0.0),
    ("t_frame", -1.0),
    ("n_adc", 0),
    ("fs", 0.0),
    ("k_chirp", 0.0),
    ("n_frames", 0),
    ("k_chirp", float("inf")),
    ("fc", float("inf")),
    ("prt", float("inf")),
    pytest.param("n_adc", 10**400, id="n_adc-past-float-range"),
    pytest.param("n_frames", 10**400, id="n_frames-past-float-range"),
])
def test_validate_rejects_nonpositive(table1, field, value):
    # Infinite values are rejected with the non-positive ones.
    bad = dataclasses.replace(table1, **{field: value})
    with pytest.raises(ConfigError):
        bad.validate()


def test_validate_rejects_adc_window_longer_than_prt(table1):
    # 512 samples at 1 MHz need 512 us but the repetition time is 85.3 us.
    bad = dataclasses.replace(table1, fs=1e6)
    with pytest.raises(ConfigError):
        bad.validate()


def test_validate_rejects_frame_shorter_than_its_chirp(table1):
    # A frame holds its one chirp: t_frame may equal the 85.3 us PRT, not undercut it.
    with pytest.raises(ConfigError, match="t_frame = 1.000e-05 s is shorter"):
        dataclasses.replace(table1, t_frame=1e-5).validate()
    dataclasses.replace(table1, t_frame=table1.prt).validate()


def test_validate_accepts_tables(table1, table2):
    assert table1.validate() is table1
    assert table2.validate() is table2

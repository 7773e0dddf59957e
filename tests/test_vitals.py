import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multivital.doa import RegionSignal
from multivital.errors import ProcessingError
from multivital.vitals import (
    DisplacementTrace,
    dominant_frequency,
    extract_phase,
    phase_to_displacement,
    region_signal_to_trace,
    spectral_peak_frequency,
)

WL = 3.893409e-3  # m


def test_extract_phase_matches_angle():
    phases = np.array([0.1, -2.0, 3.0, 1.5])
    s = RegionSignal(region="A", slowtime=np.exp(1j * phases))
    got, flagged = extract_phase(s)
    assert np.allclose(got, phases)
    assert flagged == []


def test_extract_phase_zero_samples():
    s = RegionSignal(
        region="A",
        slowtime=np.array([0.0, np.exp(1j * 0.7), 0.0, np.exp(1j * 1.1)]),
    )
    got, flagged = extract_phase(s)
    assert flagged == [0, 2]
    assert got[0] == 0.0  # leading zero has no history
    assert got[2] == pytest.approx(0.7)  # holds the previous value


def test_extract_phase_of_an_empty_signal_is_a_processing_error():
    with pytest.raises(ProcessingError, match="region P has an empty slow-time signal"):
        extract_phase(RegionSignal(region="P", slowtime=np.array([], dtype=complex)))


@given(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=200))
@settings(max_examples=100, deadline=None)
def test_unwrap_recovers_bounded_step_ramps(steps):
    # Any phase path whose per-sample step stays below pi survives the
    # wrap/unwrap round trip of region_signal_to_trace, relative to frame 0.
    phase = np.cumsum(np.asarray(steps))
    s = RegionSignal(region="A", slowtime=np.exp(1j * phase))
    tr = region_signal_to_trace(s, WL, 20.0)
    want = phase - phase[0]
    assert np.max(np.abs(tr.phase - want)) < 1e-9


def test_phase_to_displacement_one_wavelength():
    d = phase_to_displacement(np.array([0.0, 4.0 * np.pi]), WL)
    assert d[0] == 0.0
    assert d[1] == pytest.approx(WL * 1000.0)


def test_phase_to_displacement_is_relative():
    p = np.array([5.0, 5.5, 4.8])
    assert np.allclose(phase_to_displacement(p, WL),
                       phase_to_displacement(p - 5.0, WL))


def test_from_phase_invariant():
    phase = np.array([1.0, 2.2, 0.4])
    tr = DisplacementTrace.from_phase("P", phase, WL, 20.0)
    assert tr.phase[0] == 0.0
    assert np.allclose(tr.displacement, 1000.0 * WL * tr.phase / (4 * np.pi))
    assert np.allclose(tr.times, [0.0, 0.05, 0.10])


def test_empty_phase_input_is_a_processing_error():
    with pytest.raises(ProcessingError, match="empty phase"):
        phase_to_displacement(np.array([]), WL)
    with pytest.raises(ProcessingError, match="empty phase"):
        DisplacementTrace.from_phase("A", np.array([]), WL, 20.0)


def test_region_signal_to_trace_round_trip():
    t = np.arange(64) / 20.0
    d_mm = 0.3 * np.sin(2 * np.pi * 1.2 * t)  # mm
    phase = 4 * np.pi * (d_mm / 1000.0) / WL + 0.77
    s = RegionSignal(region="T", slowtime=2.5 * np.exp(1j * phase))
    tr = region_signal_to_trace(s, WL, 20.0)
    assert tr.region == "T"
    assert np.max(np.abs(tr.displacement - (d_mm - d_mm[0]))) < 1e-9


def test_spectral_peak_pure_tone():
    t = np.arange(600) / 20.0
    x = np.sin(2 * np.pi * 1.27 * t)
    assert spectral_peak_frequency(x, 20.0) == pytest.approx(1.27, abs=0.01)


def test_spectral_peak_band_selects():
    t = np.arange(600) / 20.0
    x = np.sin(2 * np.pi * 0.9 * t) + 3.0 * np.sin(2 * np.pi * 4.0 * t)
    # The larger 4 Hz line sits outside the band and must be ignored.
    assert spectral_peak_frequency(x, 20.0, (0.5, 3.0)) == pytest.approx(0.9, abs=0.01)


def test_spectral_peak_empty_band():
    with pytest.raises(ProcessingError, match="band"):
        spectral_peak_frequency(np.ones(8), 20.0, (0.01, 0.02))


def test_spectral_peak_flat_input():
    with pytest.raises(ProcessingError):
        spectral_peak_frequency(np.ones(64), 20.0)


def test_spectral_peak_too_short():
    with pytest.raises(ProcessingError):
        spectral_peak_frequency(np.array([1.0]), 20.0)


def test_dominant_frequency_of_trace():
    t = np.arange(200) / 20.0
    phase = 0.8 * np.sin(2 * np.pi * 1.0 * t)
    tr = DisplacementTrace.from_phase("A", phase, WL, 20.0)
    assert dominant_frequency(tr) == pytest.approx(1.0, abs=0.02)

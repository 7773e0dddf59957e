import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multivital.errors import ConfigError, ProcessingError
from multivital.metrics import (
    SensorLayout,
    align_rates,
    compare_traces,
    compute_alignment,
    max_freq_difference,
    normalized_xcorr_max,
)


def _smooth_noise(n=50, seed=0):
    rng = np.random.default_rng(seed)
    return np.convolve(rng.standard_normal(n), np.ones(5) / 5, mode="same")


def test_alignment_angles():
    layout = SensorLayout(
        positions={"A": (0.0, 0.0), "P": (-0.05, 0.0), "M": (0.0, -0.10)},
        z_a=0.5,
    )
    angles = compute_alignment(layout)
    assert angles["A"] == (0.0, 0.0)
    assert math.degrees(angles["P"][0]) == pytest.approx(-5.711, abs=1e-3)
    assert math.degrees(angles["M"][1]) == pytest.approx(-11.310, abs=1e-3)


def test_alignment_inverts_by_tan():
    layout = SensorLayout(
        positions={"A": (0.01, -0.02), "T": (-0.037, 0.055)}, z_a=0.63
    )
    angles = compute_alignment(layout)
    xa, ya = layout.positions["A"]
    for rid, (phi, theta) in angles.items():
        x, y = layout.positions[rid]
        assert layout.z_a * math.tan(phi) + xa == pytest.approx(x, abs=1e-12)
        assert layout.z_a * math.tan(theta) + ya == pytest.approx(y, abs=1e-12)


def test_layout_validation():
    with pytest.raises(ConfigError, match="point A"):
        SensorLayout(positions={"P": (0.0, 0.0)}, z_a=0.5).validate()
    with pytest.raises(ConfigError):
        SensorLayout(positions={"A": (0.0, 0.0)}, z_a=0.0).validate()


def test_rho_self_is_exactly_one():
    x = _smooth_noise()
    rho, lag = normalized_xcorr_max(x, x)
    assert rho == 1.0
    assert lag == 0


def test_rho_sign_invariance():
    x = _smooth_noise()
    rho, _ = normalized_xcorr_max(x, -x)
    assert rho == pytest.approx(1.0, abs=1e-12)


def test_rho_scale_invariance():
    x = _smooth_noise()
    rho, _ = normalized_xcorr_max(3.7 * x, x)
    assert rho == pytest.approx(1.0, abs=1e-12)


def test_lag_reports_shift():
    # long record so the rolled-in wrap samples barely dent the overlap
    x = _smooth_noise(n=400)
    delayed = np.roll(x, 7)
    rho, lag = normalized_xcorr_max(x, delayed)
    assert lag == -7
    assert rho >= 0.9


def test_rho_survives_20db_noise():
    rng = np.random.default_rng(3)
    x = np.convolve(rng.standard_normal(2000), np.ones(9) / 9, mode="same")
    sigma = math.sqrt(np.mean(x**2) / 100.0)  # 20 dB down
    noisy = x + rng.normal(scale=sigma, size=x.size)
    rho, _ = normalized_xcorr_max(noisy, x)
    assert rho >= 0.95


def test_rho_constant_input_raises():
    with pytest.raises(ProcessingError, match="constant"):
        normalized_xcorr_max(np.ones(10), _smooth_noise(10))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_rho_bounded(seed):
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(40)
    x = rng.standard_normal(60)
    rho, _ = normalized_xcorr_max(r, x)
    assert 0.0 <= rho <= 1.0


def _three_correlation_rho(r, x):
    """The full-lag formula: peak |cross-correlation| over the peak |autocorrelations|."""
    rm, xm = r - r.mean(), x - x.mean()
    c_rx = np.abs(np.correlate(rm, xm, mode="full"))
    c_rr = np.abs(np.correlate(rm, rm, mode="full"))
    c_xx = np.abs(np.correlate(xm, xm, mode="full"))
    peak = int(np.argmax(c_rx))
    rho = float(c_rx[peak] / math.sqrt(c_rr.max() * c_xx.max()))
    return min(rho, 1.0), peak - (x.size - 1)


@pytest.mark.parametrize("n_r, n_x", [(5, 5), (40, 60), (333, 200), (2000, 2000)])
def test_rho_matches_three_correlation_formula(n_r, n_x):
    rng = np.random.default_rng(n_r + n_x)
    for _ in range(5):
        r = np.cumsum(rng.standard_normal(n_r))
        x = np.cumsum(rng.standard_normal(n_x))
        assert normalized_xcorr_max(r, x) == _three_correlation_rho(r, x)
    x = _smooth_noise(n_x)
    assert normalized_xcorr_max(x, np.roll(x, 3)) == _three_correlation_rho(x, np.roll(x, 3))


def test_delta_f_identical_is_zero():
    t = np.arange(600) / 20.0
    x = np.sin(2 * np.pi * 1.0 * t)
    assert max_freq_difference(x, 20.0, x, 20.0) == 0.0


def test_delta_f_known_pair():
    # 1.0 vs 1.2 Hz over 180 s at 20 Hz resolves to 0.20 Hz within two bins.
    t = np.arange(3600) / 20.0
    r = np.sin(2 * np.pi * 1.0 * t)
    x = np.sin(2 * np.pi * 1.2 * t)
    assert max_freq_difference(r, 20.0, x, 20.0) == pytest.approx(0.20, abs=2 / 180)


def test_align_rates_downsamples_faster():
    t_slow = np.arange(1200) / 20.0
    t_fast = np.arange(6000) / 100.0
    r = np.sin(2 * np.pi * 1.0 * t_slow)
    x = np.sin(2 * np.pi * 1.0 * t_fast)
    a, b, rate = align_rates(r, 20.0, x, 100.0)
    assert rate == 20.0
    assert len(a) == len(r)
    assert len(b) == len(r)
    rho, _ = normalized_xcorr_max(a, b)
    assert rho >= 0.99
    # Same result when the argument order is swapped.
    b2, a2, rate2 = align_rates(x, 100.0, r, 20.0)
    assert rate2 == 20.0
    assert np.allclose(a2, a)
    assert np.allclose(b2, b)


def test_compare_traces_report():
    t = np.arange(1200) / 20.0
    x = np.sin(2 * np.pi * 1.0 * t)
    radar = {"A": (x, 20.0), "P": (np.sin(2 * np.pi * 1.2 * t), 20.0)}
    reference = {"A": (x.copy(), 20.0), "M": (x, 20.0)}
    report = compare_traces(radar, reference)
    assert set(report.regions) == {"A"}
    entry = report.to_dict()["A"]
    assert entry["rho"] == 1.0
    assert entry["delta_f_max_hz"] == 0.0
    assert entry["rate_hz"] == 20.0


def test_compare_traces_no_overlap():
    t = np.arange(100) / 20.0
    x = np.sin(2 * np.pi * 1.0 * t)
    with pytest.raises(ProcessingError, match="overlap"):
        compare_traces({"A": (x, 20.0)}, {"P": (x, 20.0)})

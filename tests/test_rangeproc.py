import dataclasses
import tracemalloc

import numpy as np
import pytest

from multivital.errors import ConfigError, ProcessingError
from multivital.rangeproc import (
    RangeCube,
    extract_range_bin,
    locate_subject,
    range_fft,
)
from multivital.simulate import ScatterPoint, Scene, simulate


@pytest.fixture(scope="module")
def cube5m(table1, cascade):
    cfg = dataclasses.replace(table1, n_frames=3)
    scene = Scene(points=(ScatterPoint((0.0, 5.0, 0.0)),), mode="plane-wave")
    return simulate(scene, cfg, cascade)


def test_bin_width(cube5m):
    rc = range_fft(cube5m, 512)
    assert rc.bin_width_m == pytest.approx(3.2527e-2, rel=1e-3)
    rc2 = range_fft(cube5m, 1024)
    assert rc2.bin_width_m == pytest.approx(rc.bin_width_m / 2)
    assert rc2.bins.shape == cube5m.samples.shape[:3] + (1024,)


def test_locate_subject_five_meters(cube5m):
    loc = locate_subject(range_fft(cube5m, 512))
    assert loc.bin == 154
    assert loc.range_m == pytest.approx(5.0, abs=3.3e-2)


def test_zero_padding_refines_location(cube5m):
    loc = locate_subject(range_fft(cube5m, 2048))
    assert loc.range_m == pytest.approx(5.0, abs=1e-2)


def test_extract_range_bin_layout(cube5m):
    rc = range_fft(cube5m, 512)
    out = extract_range_bin(rc, 154)
    assert out.shape == (12 * 16, 3)
    assert np.array_equal(out[5 * 16 + 7], rc.bins[:, 5, 7, 154])


def test_extract_range_bin_bounds(cube5m):
    rc = range_fft(cube5m, 512)
    with pytest.raises(ProcessingError):
        extract_range_bin(rc, 512)
    with pytest.raises(ProcessingError):
        extract_range_bin(rc, -1)


def test_range_fft_rejects_bad_sizes(cube5m):
    with pytest.raises(ConfigError):
        range_fft(cube5m, 256)  # smaller than n_adc
    with pytest.raises(ConfigError):
        range_fft(cube5m, 600)  # not a power of two


def test_locate_empty_cube():
    rc = RangeCube(bins=np.zeros((0, 0, 0, 0), dtype=np.complex64),
                   n_fft_range=512, bin_width_m=0.03)
    with pytest.raises(ProcessingError):
        locate_subject(rc)


@pytest.mark.parametrize("n_fft", [512, 1024])
def test_range_fft_is_single_precision_within_1e6_of_float64(cube5m, n_fft):
    bins = range_fft(cube5m, n_fft).bins
    ref = np.fft.fft(cube5m.samples.astype(np.complex128), n=n_fft, axis=-1)
    assert bins.dtype == np.complex64
    assert bins.flags.c_contiguous
    assert np.linalg.norm(bins - ref) <= 1e-6 * np.linalg.norm(ref)


def test_range_fft_bit_identical_across_thread_counts(cube5m, monkeypatch):
    monkeypatch.setenv("MULTIVITAL_THREADS", "1")
    one = range_fft(cube5m, 1024).bins
    monkeypatch.setenv("MULTIVITAL_THREADS", "2")
    two = range_fft(cube5m, 1024).bins
    assert one.tobytes() == two.tobytes()


@pytest.mark.parametrize("pad", [1, 2])
def test_range_fft_peak_memory_is_its_output(cube5m, pad):
    """Traced peak <= output + half the cube: 1.5x the cube with no padding."""
    n_adc = cube5m.chirp.n_adc
    tracemalloc.start()
    try:
        rc = range_fft(cube5m, pad * n_adc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc.bins.nbytes == pad * cube5m.samples.nbytes
    assert peak <= rc.bins.nbytes + 0.5 * cube5m.samples.nbytes

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import multivital.rangeproc as rangeproc
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
    scene = Scene(points=(ScatterPoint((0.0, 5.0, 0.0)),))
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
                   bin_width_m=0.03)
    with pytest.raises(ProcessingError, match="empty"):
        locate_subject(rc)
    with pytest.raises(ProcessingError, match="empty"):
        locate_subject(iter([]))


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


def _random_range_cube(shape, seed):
    """Random complex64 bins with a seeded per-bin gain, so range bins differ."""
    rng = np.random.default_rng(seed)
    bins = rng.standard_normal(2 * math.prod(shape), dtype=np.float32).view(np.complex64)
    bins = bins.reshape(shape)
    bins *= rng.uniform(0.5, 1.5, shape[-1]).astype(np.float32)
    return RangeCube(bins=bins, bin_width_m=0.03)


def test_locate_subject_peak_memory_is_one_chunk():
    """Traced peak <= 0.1x the range cube; a full |bins| temporary took 0.5x."""
    rc = _random_range_cube((64, 12, 16, 512), seed=2)
    assert rc.bins.nbytes >= 32 * 2**20
    tracemalloc.start()
    try:
        locate_subject(rc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * rc.bins.nbytes


@pytest.mark.parametrize("cells", [None, 1000])
@pytest.mark.parametrize("seed", range(4))
def test_locate_subject_matches_double_precision_argmax(seed, cells, monkeypatch):
    """Where the top two bins of the profile differ by more than 1e-4
    relative, the chosen bin is that of a complex128 reference, whether
    the cube takes one chunk or many with a partial last one."""
    if cells is not None:
        monkeypatch.setattr(rangeproc, "_ABS_CELLS", cells)
    rc = _random_range_cube((9, 4, 7, 64), seed)
    ref = np.abs(rc.bins.astype(np.complex128)).sum(axis=(0, 1, 2))
    second, first = np.sort(ref)[-2:]
    assert first - second > 1e-4 * first
    assert locate_subject(rc).bin == int(np.argmax(ref))


@pytest.mark.parametrize("seed", range(4))
def test_locate_subject_folds_frame_chunks(seed, monkeypatch):
    """Frame chunks from a generator, one of them empty and the last one
    partial, locate the same bin as the whole cube, through a row buffer
    sized by the first chunk."""
    monkeypatch.setattr(rangeproc, "_ABS_CELLS", 1000)
    rc = _random_range_cube((9, 4, 7, 64), seed)
    bounds = (0, 4, 4, 8, 9)
    chunks = (dataclasses.replace(rc, bins=rc.bins[a:b]) for a, b in zip(bounds, bounds[1:]))
    whole = locate_subject(rc)
    assert locate_subject(chunks) == whole
    assert whole.range_m == whole.bin * 0.03


def test_locate_subject_refolds_a_chunk_whose_float32_sums_overflow():
    """Bins near 1e37 are finite, but a float32 sum of 64 of their
    magnitudes is not: each block of magnitudes is summed in float64, so
    the profile stays finite and locates the bin of a complex128
    reference."""
    rc = _random_range_cube((9, 4, 7, 64), seed=0)
    rc = dataclasses.replace(rc, bins=rc.bins * np.float32(1e37))
    assert np.all(np.isfinite(rc.bins))
    with np.errstate(over="ignore"):
        block = np.abs(rc.bins).reshape(-1, 64)[:64].sum(axis=0, dtype=np.float32)
    assert not np.all(np.isfinite(block))
    ref = np.abs(rc.bins.astype(np.complex128)).sum(axis=(0, 1, 2))
    assert locate_subject(rc).bin == int(np.argmax(ref))


def _profile_cube(profile):
    """A one-channel, one-frame range cube whose magnitude profile is profile."""
    bins = np.asarray(profile, dtype=np.complex64).reshape(1, 1, 1, -1)
    return RangeCube(bins=bins, bin_width_m=0.03)


def test_runner_up_of_a_single_peak_is_zero():
    """A peak with shoulders on both sides has no other local maximum; its
    larger shoulder is the second bin."""
    loc = locate_subject(_profile_cube([0.1, 0.2, 0.5, 1.0, 0.6, 0.3, 0.1, 0.05]))
    assert loc.bin == 3 and loc.frames == 1
    assert loc.runner_up == 0.0
    assert loc.second == pytest.approx(0.6)


def test_runner_up_of_two_equal_peaks_is_one():
    loc = locate_subject(_profile_cube([0.1, 2.0, 0.3, 0.2, 0.5, 2.0, 0.1, 0.05]))
    assert loc.bin == 1  # the lower of the two
    assert loc.runner_up == 1.0 and loc.second == 1.0


def test_runner_up_takes_bins_circularly_at_the_edges():
    """Bin 0 follows the last bin: a peak at either edge has its shoulder
    across the wrap, which is not a local maximum."""
    first = locate_subject(_profile_cube([1.0, 0.4, 0.2, 0.1, 0.1, 0.2, 0.3, 0.7]))
    assert first.bin == 0 and first.runner_up == 0.0
    assert first.second == pytest.approx(0.7)
    last = locate_subject(_profile_cube([0.5, 0.2, 0.1, 0.3, 0.1, 0.05, 0.4, 1.0]))
    assert last.bin == 7
    assert last.runner_up == pytest.approx(0.3)  # bin 3; bin 0 is the peak's shoulder
    assert last.second == pytest.approx(0.5)


def test_location_counts_frames_and_second_bin_over_chunks():
    rc = _random_range_cube((9, 4, 7, 64), seed=1)
    chunks = [dataclasses.replace(rc, bins=rc.bins[a:b]) for a, b in ((0, 4), (4, 8), (8, 9))]
    loc = locate_subject(iter(chunks))
    profile = np.abs(rc.bins.astype(np.complex128)).sum(axis=(0, 1, 2))
    others = np.delete(profile, loc.bin)
    assert loc.frames == 9
    assert loc.second == pytest.approx(others.max() / profile[loc.bin], rel=5e-8)

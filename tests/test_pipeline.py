"""run_pipeline: one steering pass, non-finite cubes refused, known elevations found;
make_angle_map: frame 0 only, steered by the run's subject bin and Beamformer."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import multivital.doa as doa
import multivital.pipeline as pipeline
from multivital.config import derive_waveform
from multivital.errors import ProcessingError
from multivital.geometry import build_virtual_array, select_azimuth_ula
from multivital.rangeproc import locate_subject, range_fft
from multivital.runconfig import load_run_config
from multivital.simulate import simulate


@pytest.fixture(scope="module")
def phantom():
    """Eight frames of the five-point phantom, near-field compensation on."""
    cfg = load_run_config("phantom-five-point")
    assert cfg.pipeline.near_field
    chirp = dataclasses.replace(cfg.chirp, n_frames=8)
    return cfg, simulate(cfg.scene, chirp, cfg.geometry)


def _counting(fn, calls):
    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return counted


def test_one_phase_table_and_one_ula_spectrum_per_run(phantom, monkeypatch):
    cfg, cube = phantom
    tables, spectra = [], []
    for module in (pipeline, doa):
        monkeypatch.setattr(module, "build_phase_error_table",
                            _counting(module.build_phase_error_table, tables))
    ula_spectrum = doa.Beamformer.ula_spectrum
    monkeypatch.setattr(doa.Beamformer, "ula_spectrum", _counting(ula_spectrum, spectra))

    pipeline.run_pipeline(cube, cfg.pipeline, layout=cfg.layout)
    assert len(tables) == 1
    assert [y.shape[1] for _, y in spectra] == [8]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_sample_fails_loudly(phantom, bad):
    cfg, cube = phantom
    samples = cube.samples.copy()
    samples[3, 2, 5, 17] = bad
    with pytest.raises(ProcessingError, match="not finite"):
        pipeline.run_pipeline(dataclasses.replace(cube, samples=samples),
                              cfg.pipeline, layout=cfg.layout)


def test_run_pipeline_peak_memory_is_about_the_range_cube():
    """On bundled sim-single-target (50 frames), the traced peak stays
    within 1.25x the cube: the range cube plus small buffers. Taking
    |bins| of the whole range cube at once took 1.5x."""
    cfg = load_run_config("sim-single-target")
    cube = simulate(cfg.scene, cfg.chirp, cfg.geometry)
    assert cube.samples.shape == (50, 12, 16, 512)
    tracemalloc.start()
    try:
        pipeline.run_pipeline(cube, cfg.pipeline, layout=cfg.layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * cube.samples.nbytes


def _near(cfg, near_field):
    """cfg's pipeline config with near-field compensation set to near_field."""
    return dataclasses.replace(cfg.pipeline, near_field=near_field)


def _elevated_cube(r, theta_deg):
    """sim-single-target's point moved to range r, azimuth 0 and elevation theta."""
    cfg = load_run_config("sim-single-target")
    theta = np.radians(theta_deg)
    point = dataclasses.replace(
        cfg.scene.points[0], position0=(0.0, r * np.cos(theta), r * np.sin(theta))
    )
    scene = dataclasses.replace(cfg.scene, points=(point,), mode="exact-path", snr_db=None)
    return cfg, simulate(scene, dataclasses.replace(cfg.chirp, n_frames=16), cfg.geometry)


@pytest.mark.parametrize("r,theta_deg,near_field", [
    *[(1.0, th, nf) for th in (-10, 5, 10, 15) for nf in (False, True)],
    *[(0.5, th, False) for th in (-10, 5, 10, 15)],
    pytest.param(0.5, 10, True, marks=pytest.mark.xfail(
        strict=True, reason="near-field elevation at 0.5 m reads 1.75 deg low")),
])
def test_elevation_of_target_at_known_elevation(r, theta_deg, near_field):
    cfg, cube = _elevated_cube(r, theta_deg)
    result = pipeline.run_pipeline(cube, _near(cfg, near_field))
    assert abs(np.degrees(result.elevation_peak_rad) - theta_deg) <= 1.0


@pytest.mark.parametrize("near_field", [
    False,
    pytest.param(True, marks=pytest.mark.xfail(
        strict=True, reason="near-field map steers a compensated row 0 with "
                            "uncompensated elevation rows: 10 deg reads 7 deg")),
])
def test_angle_map_peak_at_known_elevation(near_field):
    """At 1.0 m and 10 deg, the map's peak lies within one 1 deg cell of the truth."""
    cfg, cube = _elevated_cube(1.0, 10)
    pcfg = _near(cfg, near_field)
    amap = pipeline.make_angle_map(cube, pcfg, pipeline.run_pipeline(cube, pcfg))
    _, k = np.unravel_index(np.argmax(amap.power), amap.power.shape)
    assert abs(k - int(np.argmin(np.abs(amap.elevation_grid - np.radians(10))))) <= 1


@pytest.fixture(scope="module")
def single_target():
    """Twelve frames of sim-single-target, which has no layout."""
    cfg = load_run_config("sim-single-target")
    assert cfg.layout is None
    chirp = dataclasses.replace(cfg.chirp, n_frames=12)
    return cfg, simulate(cfg.scene, chirp, cfg.geometry)


def test_angle_map_never_locates_the_subject(phantom, monkeypatch):
    cfg, cube = phantom
    result = pipeline.run_pipeline(cube, cfg.pipeline, layout=cfg.layout)

    def refuse(rc):
        raise AssertionError("make_angle_map located the subject again")

    monkeypatch.setattr(pipeline, "locate_subject", refuse)
    amap = pipeline.make_angle_map(cube, cfg.pipeline, result)
    assert amap.power.shape == (len(amap.azimuth_grid), len(amap.elevation_grid))


@pytest.mark.parametrize("near_field", [False, True])
@pytest.mark.parametrize("scene,with_layout", [
    ("phantom", True), ("phantom", False), ("single_target", False),
])
def test_angle_map_equals_the_full_cube_map(request, scene, with_layout, near_field):
    """The one-frame map is bit for bit the frame-0 map steered from the
    whole cube's range transform at the same location and phase-table range."""
    cfg, cube = request.getfixturevalue(scene)
    layout = cfg.layout if with_layout else None
    pcfg = _near(cfg, near_field)
    result = pipeline.run_pipeline(cube, pcfg, layout=layout)

    rc = range_fft(cube, cfg.pipeline.n_fft_range)
    loc = locate_subject(rc)
    assert (loc.bin, loc.range_m) == (result.range_bin, result.range_m)
    sel = select_azimuth_ula(build_virtual_array(cube.geometry))
    wavelength = derive_waveform(cube.chirp).wavelength
    range_z = None
    if near_field:
        range_z = layout.z_a if layout is not None else loc.range_m
    bf, y = pipeline.steer_subject(rc, loc, sel, cube.geometry, wavelength,
                                   cfg.pipeline.n_fft_azimuth, range_z)
    expected = doa.angle_map(bf, y)

    amap = pipeline.make_angle_map(cube, pcfg, result)
    assert np.array_equal(amap.power, expected.power)
    assert np.array_equal(amap.azimuth_grid, expected.azimuth_grid)
    assert np.array_equal(amap.elevation_grid, expected.elevation_grid)


def test_angle_map_reads_frame_zero_only(phantom):
    cfg, cube = phantom
    result = pipeline.run_pipeline(cube, cfg.pipeline, layout=cfg.layout)
    samples = cube.samples.copy()
    samples[1:] = 0
    zeroed = dataclasses.replace(cube, samples=samples)
    a = pipeline.make_angle_map(cube, cfg.pipeline, result)
    b = pipeline.make_angle_map(zeroed, cfg.pipeline, result)
    assert np.array_equal(a.power, b.power)

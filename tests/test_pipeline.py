"""run_pipeline: one steering pass, non-finite cubes refused, known elevations found."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import multivital.doa as doa
import multivital.pipeline as pipeline
from multivital.errors import ProcessingError
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
    result = pipeline.run_pipeline(cube, cfg.pipeline, near_field=near_field)
    assert abs(np.degrees(result.elevation_peak_rad) - theta_deg) <= 1.0

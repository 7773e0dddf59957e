"""run_pipeline steers the subject bin once and refuses non-finite cubes."""

import dataclasses

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

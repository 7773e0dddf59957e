"""run_pipeline: one steering pass; the subject located on a seeded subset
of one frame per block of 8 (on every frame when the subset's profile is
all zero or not clear), then its column read in one GEMV pass over the
frame chunks; non-finite cubes refused in any frame; known elevations
found. make_angle_map: frame 0 only, steered by the run's subject bin and
Beamformer."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import multivital.doa as doa
import multivital.pipeline as pipeline
from multivital.config import derive_waveform
from multivital.errors import ProcessingError
from multivital.geometry import build_virtual_array, select_azimuth_ula
from multivital.rangeproc import extract_range_bin, locate_subject, range_fft
from multivital.runconfig import load_run_config
from multivital.simulate import RawDataCube, simulate


@pytest.fixture(scope="module")
def phantom():
    """Eight frames of the five-point phantom."""
    cfg = load_run_config("phantom-five-point")
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


def test_overflowing_finite_cube_is_not_blamed_on_nan():
    """Every sample of sim-single-target scaled by 1e36 is finite, but the
    range transform overflows complex64: the error names the overflow."""
    cfg = load_run_config("sim-single-target")
    cube = simulate(cfg.scene, dataclasses.replace(cfg.chirp, n_frames=4), cfg.geometry)
    samples = cube.samples * np.complex64(1e36)
    assert np.all(np.isfinite(samples))
    with pytest.raises(ProcessingError, match="not finite") as err:
        pipeline.run_pipeline(dataclasses.replace(cube, samples=samples), cfg.pipeline)
    assert "overflowed" in str(err.value) and "NaN" not in str(err.value)


def _recording_chunks(monkeypatch) -> list[int]:
    """Record the frame count of every chunk pipeline._chunks hands out: the
    column pass's chunks, and a full fold's when the location falls back."""
    frames = []
    chunks = pipeline._chunks

    def recording(cube, width):
        for chunk in chunks(cube, width):
            frames.append(chunk.samples.shape[0])
            yield chunk

    monkeypatch.setattr(pipeline, "_chunks", recording)
    return frames


def _three_chunks(cube, pcfg, monkeypatch):
    """Set run_pipeline's chunk budget so cube's frame chunks are three, the
    last one partial. Returns the list that records each chunk's frame
    count, and the three chunks' expected frame counts."""
    n_frames = len(cube.samples)
    step = n_frames // 3 + 1
    frame_bytes = 8 * pcfg.n_fft_range * cube.geometry.n_tx * cube.geometry.n_rx
    monkeypatch.setattr(pipeline, "_CHUNK_BYTES", step * frame_bytes + frame_bytes // 2)
    return _recording_chunks(monkeypatch), [step, step, n_frames - 2 * step]


def _one_chunk(cube, pcfg, monkeypatch):
    """Set run_pipeline's chunk budget so every frame is in one chunk."""
    monkeypatch.setattr(pipeline, "_CHUNK_BYTES", cube.samples.nbytes * pcfg.n_fft_range)


def _same_run(a, b):
    assert (a.range_bin, a.range_m, a.located_frames) == (b.range_bin, b.range_m, b.located_frames)
    assert a.azimuth_peak_rad == b.azimuth_peak_rad
    assert a.elevation_peak_rad == b.elevation_peak_rad
    assert a.region_points == b.region_points
    for x, y in zip(a.traces, b.traces, strict=True):
        assert x.region == y.region
        assert np.array_equal(x.displacement, y.displacement)


@pytest.mark.parametrize("scene,with_layout", [
    ("phantom", True), ("phantom", False), ("single_target", False),
])
def test_streamed_range_stage_equals_the_full_cube_route(request, monkeypatch, scene, with_layout):
    """With the column read in three frame chunks, one GEMV each, a run
    reads the same subject and angles as with one chunk of every frame,
    and bit for bit the same traces: each column value is the same dot
    product of one channel's samples with the bin's twiddles."""
    cfg, cube = request.getfixturevalue(scene)
    layout = cfg.layout if with_layout else None
    pcfg = cfg.pipeline
    with monkeypatch.context() as m:
        _one_chunk(cube, pcfg, m)
        full = pipeline.run_pipeline(cube, pcfg, layout=layout)
    frames, chunks = _three_chunks(cube, pcfg, monkeypatch)
    streamed = pipeline.run_pipeline(cube, pcfg, layout=layout)

    assert frames == chunks and chunks[-1] < chunks[0]
    _same_run(streamed, full)


def _joined_cube():
    """sim-single-target's point at 2 m for 4 frames, then at its own 5 m
    for 8 more, joined along frames into one 12-frame cube."""
    cfg = load_run_config("sim-single-target")
    far = cfg.scene.points[0]
    near = dataclasses.replace(far, position0=(1.2, 1.6, 0.0))
    samples = np.concatenate([
        simulate(dataclasses.replace(cfg.scene, points=(point,)),
                 dataclasses.replace(cfg.chirp, n_frames=n), cfg.geometry).samples
        for point, n in ((near, 4), (far, 8))
    ])
    chirp = dataclasses.replace(cfg.chirp, n_frames=12)
    return cfg, RawDataCube(samples=samples, chirp=chirp, geometry=cfg.geometry).validate()


@pytest.mark.parametrize("draw", [None, [2, 9]], ids=["seeded", "meets-2m"])
def test_subset_falls_back_to_every_frame_when_it_meets_a_second_return(monkeypatch, draw):
    """The whole cube locates the 5 m bin, with the 2 m one its runner-up
    at 0.47. The seeded subset (frames 5 and 9) sees only the 5 m point and
    locates from its 2 frames. A subset that meets one 2 m frame reads a
    runner-up of 0.95 and falls back to the fold over all 12 frames, in
    three chunks. Both runs equal the one-chunk full-fold route: same bin
    and angles, bit for bit the same traces."""
    cfg, cube = _joined_cube()
    pcfg = cfg.pipeline
    with monkeypatch.context() as m:
        _one_chunk(cube, pcfg, m)
        m.setattr(pipeline, "RUNNER_UP_MAX", -1.0)  # every run falls back
        whole = pipeline.run_pipeline(cube, pcfg)
    bin_width_m = whole.range_m / whole.range_bin
    assert abs(whole.range_m - 5.0) < bin_width_m and whole.located_frames == 12
    assert 0.4 < whole.runner_up_ratio < 0.5

    if draw is not None:
        monkeypatch.setattr(pipeline, "_subset_frames", lambda n: np.array(draw))
    frames, chunks = _three_chunks(cube, pcfg, monkeypatch)
    streamed = pipeline.run_pipeline(cube, pcfg)
    if draw is None:
        assert list(pipeline._subset_frames(12)) == [5, 9]
        assert streamed.located_frames == 2 and streamed.runner_up_ratio < 0.01
        assert frames == chunks  # the column pass alone
    else:
        assert streamed.located_frames == 12
        assert frames == chunks + chunks  # the full fold, then the column pass
    _same_run(dataclasses.replace(streamed, located_frames=12), whole)


def test_returns_only_outside_the_subset_fall_back_and_are_located(single_target):
    """Every subset frame of a cube zeroed: the subset's profile is all
    zero, so the run falls back to the fold over every frame rather than
    report no return, and finds the subject where the untouched cube does."""
    cfg, cube = single_target
    subset = pipeline._subset_frames(len(cube.samples))
    samples = cube.samples.copy()
    samples[subset] = 0
    result = pipeline.run_pipeline(dataclasses.replace(cube, samples=samples), cfg.pipeline)
    assert result.located_frames == len(cube.samples)
    assert result.range_bin == pipeline.run_pipeline(cube, cfg.pipeline).range_bin


@pytest.mark.parametrize("bad,match", [
    ("nan-last-frame", "not finite"), ("inf-middle-chunk", "not finite"),
    ("all-zero", "no return"),
])
def test_bad_sample_in_any_chunk_fails_loudly(phantom, monkeypatch, bad, match):
    """A NaN in the last frame only or an inf in the middle chunk (both
    outside the location subset) is refused after the column pass over all
    three chunks; no return at all after the full fold that the all-zero
    subset falls back to."""
    cfg, cube = phantom
    samples = cube.samples.copy()
    if bad == "nan-last-frame":
        samples[-1, 11, 15, 255] = np.nan
    elif bad == "inf-middle-chunk":
        samples[len(samples) // 2, 0, 0, 0] = np.inf
    else:
        samples[:] = 0
    assert not {len(samples) - 1, len(samples) // 2} & set(pipeline._subset_frames(len(samples)))
    frames, chunks = _three_chunks(cube, cfg.pipeline, monkeypatch)
    with pytest.raises(ProcessingError, match=match):
        pipeline.run_pipeline(dataclasses.replace(cube, samples=samples),
                              cfg.pipeline, layout=cfg.layout)
    assert frames[:3] == chunks  # then, if not finite, a second read to name the cause


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_frame_outside_the_subset_fails_loudly(phantom, bad):
    """The subject is located without frame 2, but every sample reaches the
    subject column through a unit-modulus weight, so the run still fails
    and names the cause."""
    cfg, cube = phantom
    assert 2 not in pipeline._subset_frames(len(cube.samples))
    samples = cube.samples.copy()
    samples[2, 7, 3, 31] = bad
    with pytest.raises(ProcessingError) as err:
        pipeline.run_pipeline(dataclasses.replace(cube, samples=samples),
                              cfg.pipeline, layout=cfg.layout)
    assert str(err.value) == "range profile is not finite: the cube holds NaN or inf samples"


@pytest.mark.parametrize("n_frames", [1, 7, 8, 9, 16, 50, 600])
def test_subset_takes_one_frame_per_block_of_eight(n_frames):
    frames = pipeline._subset_frames(n_frames)
    assert len(frames) == -(-n_frames // 8)
    assert list(frames // 8) == list(range(len(frames)))  # one in each block
    assert frames[-1] < n_frames  # the partial last block's frame lies inside it
    assert np.array_equal(frames, pipeline._subset_frames(n_frames))


def test_subset_repeats_from_run_to_run_and_across_thread_counts(single_target, monkeypatch):
    """Two runs range-transform the same gathered subset frames, and at 1
    and 2 worker threads give bit for bit the same traces."""
    cfg, cube = single_target
    calls = []
    monkeypatch.setattr(pipeline, "range_fft", _counting(pipeline.range_fft, calls))
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("MULTIVITAL_THREADS", threads)
        runs.append(pipeline.run_pipeline(cube, cfg.pipeline))
    subset = cube.samples[pipeline._subset_frames(len(cube.samples))]
    assert len(calls) == 2
    for args in calls:
        assert np.array_equal(args[0].samples, subset)
    _same_run(*runs)


def test_single_return_is_located_from_the_subset(single_target):
    cfg, cube = single_target
    result = pipeline.run_pipeline(cube, cfg.pipeline)
    assert result.runner_up_ratio < 0.3
    assert result.located_frames == len(pipeline._subset_frames(len(cube.samples))) == 2


def test_run_pipeline_peak_memory_is_about_the_range_cube():
    """On bundled sim-single-target (50 frames), the traced peak stays
    within 1.25x the cube: one 42-frame chunk of range bins plus small
    buffers (a whole range cube took ~1x). Taking |bins| of the whole
    range cube at once took 1.5x."""
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


def test_subject_at_range_zero_fails_loudly(phantom):
    """A constant cube puts its only return in range bin 0, where there is
    no range to focus at."""
    cfg, cube = phantom
    dc = dataclasses.replace(cube, samples=np.ones_like(cube.samples))
    with pytest.raises(ProcessingError, match="no range to focus at"):
        pipeline.run_pipeline(dc, cfg.pipeline, layout=None)


def _elevated_cube(r, theta_deg, phi_deg=0.0):
    """sim-single-target's point moved to range r along the direction cosines
    (sin(phi), sin(theta)): azimuth phi and elevation theta as the chain
    reports them."""
    cfg = load_run_config("sim-single-target")
    u, v = np.sin(np.radians(phi_deg)), np.sin(np.radians(theta_deg))
    point = dataclasses.replace(
        cfg.scene.points[0], position0=(r * u, r * np.sqrt(1.0 - u * u - v * v), r * v)
    )
    scene = dataclasses.replace(cfg.scene, points=(point,), snr_db=None)
    return cfg, simulate(scene, dataclasses.replace(cfg.chirp, n_frames=16), cfg.geometry)


def _case(r, theta_deg, phi_deg=0, tag=""):
    suffix = f"-az{phi_deg}" if phi_deg else ""
    return pytest.param(r, theta_deg, phi_deg, id=f"{r}-{theta_deg}{tag}{suffix}")


# The elevation cases keep the "-True" (compensated) of their ids from when
# junction compensation could be switched off, so each keeps its name.
@pytest.mark.parametrize("r,theta_deg,phi_deg", [
    *[_case(r, th, tag="-True") for r in (1.0, 0.5) for th in (-10, 5, 10, 15)],
    *[_case(r, th, phi, tag="-True")
      for r, th, phi in ((0.5, 10, 30), (0.5, -10, -20), (1.0, 10, 30))],
])
def test_elevation_of_target_at_known_elevation(r, theta_deg, phi_deg):
    cfg, cube = _elevated_cube(r, theta_deg, phi_deg)
    result = pipeline.run_pipeline(cube, cfg.pipeline)
    assert abs(np.degrees(result.elevation_peak_rad) - theta_deg) <= 1.0


@pytest.mark.parametrize("seed", [7, 42, 101])
def test_elevation_is_swept_at_the_reported_azimuth(seed):
    """On the phantom the ULA's azimuth (grid index 228, -6.28 deg) is not
    where frame 0 focuses strongest along the grid (index 244). The
    elevation sweep used to run at the latter, an azimuth the run never
    reports, and read -7.75 deg against -13.25 deg along the reported one."""
    cfg = load_run_config("phantom-five-point")
    scene = dataclasses.replace(cfg.scene, seed=seed)
    cube = simulate(scene, dataclasses.replace(cfg.chirp, n_frames=120), cfg.geometry)
    result = pipeline.run_pipeline(cube, cfg.pipeline, layout=cfg.layout)
    y = pipeline._steered_subject(cube, cfg.pipeline, cfg.layout)[3]
    grid = np.deg2rad(np.arange(-45.0, 45.25, 0.25))
    pattern = result.beamformer.directional_power(
        y, np.sin(result.azimuth_peak_rad), np.sin(grid))
    assert result.elevation_peak_rad == grid[int(np.argmax(pattern))]


@pytest.mark.parametrize("r,theta_deg,phi_deg", [
    _case(0.5, 0), _case(0.5, 0, 30), _case(0.5, 10, 20),
])
def test_azimuth_of_close_target_without_layout(r, theta_deg, phi_deg):
    """With no layout, the ULA is compensated at the located range, so a
    close point's azimuth peak, where region A is focused, reads within
    0.75 deg of the truth. Uncompensated, these read 3.1 to 3.8 deg low."""
    cfg, cube = _elevated_cube(r, theta_deg, phi_deg)
    assert cfg.layout is None
    result = pipeline.run_pipeline(cube, cfg.pipeline)
    assert abs(np.degrees(result.azimuth_peak_rad) - phi_deg) <= 0.75
    u, v = np.sin(result.azimuth_peak_rad), np.sin(result.elevation_peak_rad)
    want = result.range_m * np.array([u, np.sqrt(1.0 - u * u - v * v), v])
    assert list(result.region_points) == ["A"]
    assert result.region_points["A"] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("r,theta_deg,phi_deg", [
    _case(0.5, 0, 30), _case(0.5, 0, -40), _case(1.0, 5, 45),
])
def test_azimuth_of_off_boresight_target_within_one_cell(r, theta_deg, phi_deg):
    """With no layout, the junction table models the point at the subject's
    radial range, where region A is focused, so off boresight the azimuth
    peak is within one grid cell. Modelled at that boresight depth instead,
    these read 29.48, -41.01 and 44.36 deg."""
    cfg, cube = _elevated_cube(r, theta_deg, phi_deg)
    result = pipeline.run_pipeline(cube, cfg.pipeline)
    cell = 2.0 / cfg.pipeline.n_fft_azimuth
    assert abs(np.sin(result.azimuth_peak_rad) - np.sin(np.radians(phi_deg))) <= cell


def test_angle_map_peak_at_known_elevation():
    """At 1.0 m and 10 deg, the map's peak lies within one 1 deg cell of the truth."""
    cfg, cube = _elevated_cube(1.0, 10)
    pcfg = cfg.pipeline
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


@pytest.mark.parametrize("scene,with_layout", [
    ("phantom", True), ("phantom", False), ("single_target", False),
])
def test_angle_map_equals_the_full_cube_map(request, scene, with_layout):
    """The one-frame map is bit for bit the frame-0 map steered from the
    whole cube's range transform at the same location, focus and
    phase-table range."""
    cfg, cube = request.getfixturevalue(scene)
    layout = cfg.layout if with_layout else None
    result = pipeline.run_pipeline(cube, cfg.pipeline, layout=layout)

    rc = range_fft(cube, cfg.pipeline.n_fft_range)
    loc = locate_subject(rc)
    assert (loc.bin, loc.range_m) == (result.range_bin, result.range_m)
    sel = select_azimuth_ula(build_virtual_array(cube.geometry))
    wavelength = derive_waveform(cube.chirp).wavelength
    range_z = layout.z_a if layout is not None else loc.range_m
    bf = doa.Beamformer.build(sel, cube.geometry, cfg.pipeline.n_fft_azimuth,
                              range_z / wavelength, layout is not None)
    expected = doa.angle_map(bf, extract_range_bin(rc, loc.bin).astype(np.complex128))

    amap = pipeline.make_angle_map(cube, cfg.pipeline, result)
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

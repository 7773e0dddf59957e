import dataclasses
import importlib
import json
import math
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from multivital.cli import main
from multivital.config import SPEED_OF_LIGHT, derive_waveform
from multivital.errors import ConfigError
from multivital.geometry import element_positions_m
from multivital.io import save_cube, write_cube
from multivital.simulate import (
    RawDataCube,
    SampledMotion,
    ScatterPoint,
    Scene,
    SinusoidMotion,
    _add_noise,
    _plan,
    simulate,
    synthesize_frame,
)


def _static_scene(position, snr_db=None, seed=0):
    return Scene(points=(ScatterPoint(position0=position),), snr_db=snr_db, seed=seed)


def _reference_frame(scene, cfg, geom, m, steering=None):
    """Noise-free frame summed point by point with a direct exp per sample:
    along each channel's exact path, or, given the steering fixture, as
    plane waves with the two-way delay of |P| steered per channel."""
    wl = derive_waveform(cfg).wavelength
    t_m = m * cfg.t_frame
    ts = (np.arange(cfg.n_adc) - (cfg.n_adc - 1) / 2.0) / cfg.fs  # s
    frame = np.zeros((geom.n_tx, geom.n_rx, cfg.n_adc), dtype=np.complex128)
    if steering is not None:
        for p in scene.points:
            pos = p.position_at(t_m)
            r = float(np.linalg.norm(pos))
            tau = 2.0 * r / SPEED_OF_LIGHT
            a, b = steering(geom, pos[0] / r, pos[2] / r)
            tone = np.exp(1j * (2.0 * np.pi * cfg.k_chirp * tau * ts
                                + 2.0 * np.pi * cfg.fc * tau))
            frame += p.reflectivity * (
                np.conj(a)[:, None, None] * b[None, :, None] * tone[None, None, :]
            )
    else:
        tx_xyz, rx_xyz = element_positions_m(geom, wl)
        omega = 2.0 * np.pi * (cfg.k_chirp * ts + cfg.fc)  # rad/s of delay
        for p in scene.points:
            pos = p.position_at(t_m)
            d_tx = np.linalg.norm(pos[None, :] - tx_xyz, axis=1)  # m
            d_rx = np.linalg.norm(pos[None, :] - rx_xyz, axis=1)
            ph_tx = np.exp(1j * (omega[None, :] * (d_tx[:, None] / SPEED_OF_LIGHT)))
            ph_rx = np.exp(1j * (omega[None, :] * (d_rx[:, None] / SPEED_OF_LIGHT)))
            frame += p.reflectivity * ph_tx[:, None, :] * ph_rx[None, :, :]
    return frame


@pytest.mark.parametrize("n_adc", [16, 64, 250, 251, 512])
@pytest.mark.parametrize("n_points", [1, 5], ids=lambda n: f"exact-path-{n}")
def test_frame_matches_point_by_point_reference(table1, cascade, n_points, n_adc):
    # The factored tones and the single point sum change only the rounding:
    # square (16, 64), non-square (250 = 25 x 10, 512 = 32 x 16) and prime
    # (251 = 251 x 1) sample counts, one reflectivity off unity, moving
    # points at a frame past the first.
    cfg = dataclasses.replace(table1, n_adc=n_adc, n_frames=8)
    points = tuple(
        ScatterPoint(
            (-0.02 * i, 0.5 + 0.3 * i, -0.03 * i),
            SinusoidMotion(direction=(0.0, 1.0, 0.0), amplitude=5e-4,
                           frequency=1.1, phase=0.3 * i),
            reflectivity=0.6 if i == 0 else 1.0,
        )
        for i in range(n_points)
    )
    scene = Scene(points=points)
    want = _reference_frame(scene, cfg, cascade, 5)
    got = synthesize_frame(scene, cfg, cascade, 5)
    assert got.shape == want.shape
    err = np.max(np.abs(got.astype(np.complex128) - want)) / np.max(np.abs(want))
    assert err < 1e-6


def test_noise_is_box_muller_on_float32_uniforms():
    # Bit for bit: radius sqrt(-power ln(1 - u)) and angle 2 pi v from one
    # (2, n) float32 uniform draw of the SFC64 stream keyed (seed, frame);
    # the n cosine terms fill the first half of the frame's float32
    # components and the n sine terms the second half.
    shape, power = (12, 16, 64), 0.37
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence([3, 1])))
    u, v = rng.random((2, math.prod(shape)), dtype=np.float32)
    radius = np.sqrt(np.float32(-power) * np.log(np.float32(1.0) - u))
    angle = np.float32(2.0 * np.pi) * v
    frame = np.zeros(shape, dtype=np.complex64)
    _add_noise(frame, power, 3, 1, np.full(frame.size, np.nan, dtype=np.float32))
    assert frame.dtype == np.complex64
    want = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    assert np.array_equal(frame.reshape(-1).view(np.float32), want)


def test_noise_statistics():
    # 2^20 samples per frame: the estimates below have standard errors of
    # 1e-3 to 1.4e-3 (4.9e-3 for the kurtosis), so every bound is at least
    # 4 of them; the seed is fixed, so the outcome is too.
    power, n = 0.8, 1 << 20
    z = np.zeros((2, n), dtype=np.complex64)
    buf = np.empty(n, dtype=np.float32)
    for m in range(2):
        _add_noise(z[m], power, 11, m, buf)
    z = z.astype(np.complex128)
    z0 = z[0]
    assert np.mean(np.abs(z0) ** 2) == pytest.approx(power, rel=0.01)
    assert np.var(z0.real) == pytest.approx(power / 2, rel=0.01)
    assert np.var(z0.imag) == pytest.approx(power / 2, rel=0.01)
    assert abs(np.corrcoef(z0.real, z0.imag)[0, 1]) < 5e-3
    assert abs(np.mean(z0 ** 2)) / power < 5e-3
    assert abs(np.mean(z0 * np.conj(z[1]))) / power < 5e-3  # adjacent frames
    for part in (z0.real, z0.imag):
        excess = np.mean(part ** 4) / np.mean(part ** 2) ** 2 - 3.0
        assert abs(excess) < 0.02


def test_invalid_scene_raises_after_a_valid_plan_is_cached(table2, cascade):
    cfg = dataclasses.replace(table2, n_frames=2)
    good = _static_scene((0.0, 1.0, 0.0))
    synthesize_frame(good, cfg, cascade, 0)
    plan = _plan(good, cfg, cascade)
    assert _plan(good, cfg, cascade) is plan
    with pytest.raises(ValueError):  # shared across simulate's threads
        plan.omega[0] = 0.0
    with pytest.raises(ValueError):
        plan.positions[0, 0, 0] = 0.0
    bad = Scene(points=(ScatterPoint((0.0, 1.0, 0.0), reflectivity=-1.0),))
    for _ in range(2):
        with pytest.raises(ConfigError):
            synthesize_frame(bad, cfg, cascade, 0)


def test_range_peak_bin(table1, cascade):
    # Beat frequency K * 2R/c of a 5 m target lands at bin 153.7 of a
    # 512-point FFT, so the magnitude peak sits at bin 154.
    cfg = dataclasses.replace(table1, n_frames=1)
    frame = synthesize_frame(_static_scene((0.0, 5.0, 0.0)), cfg, cascade, 0)
    spectrum = np.abs(np.fft.fft(frame[0, 12], n=512))
    half = spectrum[:256]
    assert int(np.argmax(half)) == 154


def test_slowtime_phase_tracks_range(table2, cascade):
    # At a fixed range bin the per-frame phase is 4 pi R(m) / lambda, so a
    # known radial step must appear as exactly that much phase.
    cfg = dataclasses.replace(table2, n_frames=2)
    delta = 1e-4  # m
    motion = SampledMotion(direction=(0.0, 1.0, 0.0),
                           displacement_m=(0.0, delta), rate_hz=cfg.frame_rate)
    scene = Scene(points=(ScatterPoint((0.0, 0.7, 0.0), motion),))
    cube = simulate(scene, cfg, cascade)
    bins = np.fft.fft(cube.samples.astype(np.complex128), n=256, axis=-1)
    peak = int(np.argmax(np.abs(bins[0, 0, 12, :128])))
    phase = np.angle(bins[:, 0, 12, peak])
    wl = derive_waveform(cfg).wavelength
    expected = 4.0 * np.pi * delta / wl
    assert phase[1] - phase[0] == pytest.approx(expected, rel=1e-6)


def test_plane_wave_channel_phases(table2, cascade, steering):
    # 2e4 m out, far past the ~14 m far-field distance 2 D^2 / lambda of
    # the cascade's aperture, exact-path channels carry the plane-wave
    # reference's phases, whose steering advances by -pi (p u + e v)
    # across virtual position (p, e). On boresight every channel has the
    # same delay, so all samples agree. Off it the delays differ and the
    # reference's carrier-only steering holds where the sweep is at fc:
    # the centre sample of an odd n_adc window, at fast time 0.
    u, v = 0.6, -0.2
    a, b = steering(cascade, u, v)
    for ti, (ta, te) in enumerate(cascade.tx_elements):
        for ri, (ra, re) in enumerate(cascade.rx_elements):
            want = np.exp(-1j * np.pi * ((ta + ra) * u + (te + re) * v))
            assert np.conj(a[ti]) * b[ri] == pytest.approx(want, abs=1e-12)
    cfg = dataclasses.replace(table2, n_adc=255, n_frames=1)
    r = 2.0e4
    for pu, pv, samples in ((0.0, 0.0, slice(None)), (u, v, (cfg.n_adc - 1) // 2)):
        scene = _static_scene((pu * r, r * math.sqrt(1.0 - pu * pu - pv * pv), pv * r))
        want = _reference_frame(scene, cfg, cascade, 0, steering)[..., samples]
        got = synthesize_frame(scene, cfg, cascade, 0)[..., samples].astype(np.complex128)
        assert float(np.max(np.abs(np.angle(got * np.conj(want))))) < 1e-3


def test_simulate_deterministic(table2, cascade):
    cfg = dataclasses.replace(table2, n_frames=4)
    scene = _static_scene((0.0, 0.8, 0.0), snr_db=10.0, seed=3)
    a = simulate(scene, cfg, cascade)
    b = simulate(scene, cfg, cascade)
    assert np.array_equal(a.samples, b.samples)


def test_simulate_thread_count_invariant(table2, cascade, monkeypatch):
    cfg = dataclasses.replace(table2, n_frames=4)
    scene = _static_scene((0.0, 0.8, 0.0), snr_db=10.0, seed=3)
    monkeypatch.setenv("MULTIVITAL_THREADS", "1")
    a = simulate(scene, cfg, cascade)
    monkeypatch.setenv("MULTIVITAL_THREADS", "4")
    b = simulate(scene, cfg, cascade)
    assert np.array_equal(a.samples, b.samples)


def test_synthesize_frame_overwrites_its_out_slot(table2, cascade):
    # The noisy frame replaces whatever the slot held and leaves the
    # neighbouring slot alone.
    cfg = dataclasses.replace(table2, n_frames=2)
    scene = _static_scene((0.0, 0.8, 0.0), snr_db=10.0, seed=4)
    cube = np.full((2, cascade.n_tx, cascade.n_rx, cfg.n_adc), 7 + 7j, dtype=np.complex64)
    slot = cube[1]
    assert synthesize_frame(scene, cfg, cascade, 1, out=slot) is slot
    assert np.array_equal(slot, synthesize_frame(scene, cfg, cascade, 1))
    assert np.all(cube[0] == 7 + 7j)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_reuses_one_product_buffer_per_worker(table2, cascade, monkeypatch, threads):
    """Each worker hands its frames one scratch for the coarse and fine
    factors and the noise's float32 terms; the frames equal those made
    alone, whose scratch is freshly allocated, and with its scratch and
    output slot a noisy frame allocates little beyond its raw SFC64 words
    (8 bytes per sample)."""
    sim = importlib.import_module("multivital.simulate")  # the package's .simulate is the function
    cfg = dataclasses.replace(table2, n_frames=6)
    scene = _static_scene((0.0, 0.8, 0.0), snr_db=10.0, seed=5)
    buffers = {}
    original = sim.synthesize_frame

    def recording(*args, work=None, **kwargs):
        buffers[args[3]] = work
        return original(*args, work=work, **kwargs)

    monkeypatch.setattr(sim, "synthesize_frame", recording)
    monkeypatch.setenv("MULTIVITAL_THREADS", threads)
    cube = simulate(scene, cfg, cascade)
    assert sorted(buffers) == list(range(6))
    assert all(w.shape == (_plan(scene, cfg, cascade).work_size,) for w in buffers.values())
    assert len({id(w) for w in buffers.values()}) == int(threads)
    for m in range(6):
        assert np.array_equal(cube.samples[m], original(scene, cfg, cascade, m))

    slot = np.empty_like(cube.samples[0])
    tracemalloc.start()
    try:
        original(scene, cfg, cascade, 3, out=slot, work=buffers[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(slot, cube.samples[3])
    assert peak < 8 * slot.size + (128 << 10)


def test_synthesize_frame_overwrites_its_work_buffer(table1, cascade):
    # The coarse and fine factors of n_adc 250 (25 x 10) and the noise's
    # terms all start out NaN in the scratch.
    cfg = dataclasses.replace(table1, n_adc=250, n_frames=1)
    scene = _static_scene((0.3, 2.0, 0.1), snr_db=10.0, seed=3)
    work = np.full(_plan(scene, cfg, cascade).work_size, np.nan, dtype=np.complex64)
    frame = synthesize_frame(scene, cfg, cascade, 0, work=work)
    assert np.array_equal(frame, synthesize_frame(scene, cfg, cascade, 0))


def test_synthesize_frame_refuses_out_and_work_it_cannot_fill(table2, cascade):
    # The product is written through a reshape of out and the factors
    # through one of work, so a strided view or the wrong dtype would
    # otherwise fill a copy and leave the caller's array as it was.
    cfg = dataclasses.replace(table2, n_frames=1)
    scene = _static_scene((0.0, 0.8, 0.0), snr_db=10.0, seed=4)
    cube = np.zeros((cascade.n_tx, cascade.n_rx, 2 * cfg.n_adc), dtype=np.complex64)
    size = _plan(scene, cfg, cascade).work_size
    for out in (cube[..., ::2], cube[..., :cfg.n_adc].astype(np.complex128)):
        with pytest.raises(ConfigError, match="out must be a C-contiguous complex64"):
            synthesize_frame(scene, cfg, cascade, 0, out=out)
    for work in (np.empty(size, dtype=np.complex128), np.empty(size - 1, dtype=np.complex64),
                 np.empty(2 * size, dtype=np.complex64)[::2]):
        with pytest.raises(ConfigError, match="work must be a C-contiguous complex64 array"):
            synthesize_frame(scene, cfg, cascade, 0, work=work)
    assert not cube.any()


def test_noise_power_matches_snr(table2, cascade):
    cfg = dataclasses.replace(table2, n_frames=1)
    clean = synthesize_frame(_static_scene((0.0, 0.8, 0.0)), cfg, cascade, 0)
    noisy = synthesize_frame(
        _static_scene((0.0, 0.8, 0.0), snr_db=20.0, seed=5), cfg, cascade, 0
    )
    noise = noisy.astype(np.complex128) - clean.astype(np.complex128)
    snr = np.mean(np.abs(clean) ** 2) / np.mean(np.abs(noise) ** 2)
    assert 10 * math.log10(snr) == pytest.approx(20.0, abs=0.5)


def test_noise_differs_across_frames_and_seeds(table2, cascade):
    cfg = dataclasses.replace(table2, n_frames=2)
    scene = _static_scene((0.0, 0.8, 0.0), snr_db=0.0, seed=1)
    cube = simulate(scene, cfg, cascade)
    assert not np.array_equal(cube.samples[0], cube.samples[1])
    other = simulate(dataclasses.replace(scene, seed=2), cfg, cascade)
    assert not np.array_equal(cube.samples, other.samples)


def test_reflectivity_scales_linearly(table2, cascade):
    cfg = dataclasses.replace(table2, n_frames=1)
    one = synthesize_frame(
        Scene(points=(ScatterPoint((0.0, 0.8, 0.0), reflectivity=1.0),)),
        cfg, cascade, 0)
    two = synthesize_frame(
        Scene(points=(ScatterPoint((0.0, 0.8, 0.0), reflectivity=2.0),)),
        cfg, cascade, 0)
    assert np.allclose(two, 2 * one.astype(np.complex128), atol=1e-5)


def test_radial_displacement_boresight():
    motion = SinusoidMotion(direction=(0.0, 1.0, 0.0), amplitude=1e-3,
                            frequency=1.0)
    p = ScatterPoint((0.0, 5.0, 0.0), motion)
    t = np.array([0.0, 0.25, 0.5, 0.75])
    d = p.radial_displacement(t)
    assert d == pytest.approx([0.0, 1e-3, 0.0, -1e-3], abs=1e-12)


@pytest.mark.parametrize("motion", [
    SinusoidMotion(direction=(0.6, 0.8, 0.0), amplitude=2e-3, frequency=1.3, phase=0.4),
    SampledMotion(direction=(0.0, 0.6, 0.8), displacement_m=(1e-3, -2e-3, 5e-4, 3e-3, -1e-3),
                  rate_hz=4.0),
], ids=["sinusoid", "sampled"])
def test_radial_displacement_matches_the_per_time_loop(motion):
    # Times from -0.5 s to 4.875 s in exact eighths: the sampled series
    # (0 to 1 s) is clamped at both ends, and every other time is a
    # half-sample tie, which rounds to even as round() does.
    p = ScatterPoint((0.1, 0.9, -0.2), motion)
    times = np.arange(-4, 40) / 8.0

    def displacement(t):
        if isinstance(motion, SinusoidMotion):
            return motion.amplitude * math.sin(2.0 * math.pi * motion.frequency * t
                                               + motion.phase)
        i = min(max(round(t * motion.rate_hz), 0), len(motion.displacement_m) - 1)
        return motion.displacement_m[i]

    def radius(t):
        d = displacement(t)
        return math.hypot(*(c + d * e for c, e in zip(p.position0, motion.direction)))

    want = np.array([radius(t) - radius(0.0) for t in times])
    got = p.radial_displacement(times)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


def test_scene_validation_errors():
    with pytest.raises(ConfigError):
        Scene(points=()).validate()
    with pytest.raises(ConfigError):
        Scene(points=(ScatterPoint((0.0, 1.0, 0.0)),), snr_db=math.inf).validate()
    bad_dir = SinusoidMotion(direction=(0.0, 2.0, 0.0), amplitude=1e-3,
                             frequency=1.0)
    with pytest.raises(ConfigError, match="unit"):
        Scene(points=(ScatterPoint((0.0, 1.0, 0.0), bad_dir),)).validate()


_SINE = SinusoidMotion(direction=(0.0, 1.0, 0.0), amplitude=1e-3, frequency=1.0)
_SERIES = SampledMotion(direction=(0.0, 1.0, 0.0), displacement_m=(0.0, 1e-4), rate_hz=20.0)


@pytest.mark.parametrize("field, point", [
    ("position0", ScatterPoint((0.0, math.nan, 0.0))),
    ("reflectivity", ScatterPoint((0.0, 1.0, 0.0), reflectivity=math.inf)),
    ("direction", ScatterPoint(
        (0.0, 1.0, 0.0), dataclasses.replace(_SINE, direction=(math.nan, 1.0, 0.0)))),
    ("amplitude", ScatterPoint((0.0, 1.0, 0.0), dataclasses.replace(_SINE, amplitude=math.nan))),
    ("frequency", ScatterPoint((0.0, 1.0, 0.0), dataclasses.replace(_SINE, frequency=math.inf))),
    ("phase", ScatterPoint((0.0, 1.0, 0.0), dataclasses.replace(_SINE, phase=math.inf))),
    ("direction", ScatterPoint(
        (0.0, 1.0, 0.0), dataclasses.replace(_SERIES, direction=(0.0, math.nan, 0.0)))),
    ("displacement_m", ScatterPoint(
        (0.0, 1.0, 0.0), dataclasses.replace(_SERIES, displacement_m=(math.nan, 0.0)))),
    ("rate_hz", ScatterPoint((0.0, 1.0, 0.0), dataclasses.replace(_SERIES, rate_hz=math.inf))),
], ids=["position0", "reflectivity", "sinusoid-direction", "amplitude", "frequency", "phase",
        "sampled-direction", "displacement_m", "rate_hz"])
def test_non_finite_scene_value_is_a_config_error(table2, cascade, field, point):
    # These used to give an all-NaN cube, or a bare ValueError from math.
    cfg = dataclasses.replace(table2, n_frames=2)
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        simulate(Scene(points=(point,)), cfg, cascade)


@pytest.mark.parametrize("motion, match", [
    (dataclasses.replace(_SINE, frequency=0.0), "motion frequency must be > 0"),
    (dataclasses.replace(_SINE, frequency=-1.0), "motion frequency must be > 0"),
    (dataclasses.replace(_SERIES, rate_hz=0.0), "motion rate_hz must be > 0"),
    (dataclasses.replace(_SERIES, displacement_m=()),
     "sampled motion needs at least one displacement value"),
], ids=["frequency-zero", "frequency-negative", "rate_hz-zero", "displacement_m-empty"])
def test_motion_out_of_range_is_a_config_error(motion, match):
    with pytest.raises(ConfigError, match=match):
        Scene(points=(ScatterPoint((0.0, 1.0, 0.0), motion),)).validate()


def test_frame_index_out_of_range(table2, cascade):
    cfg = dataclasses.replace(table2, n_frames=2)
    with pytest.raises(ConfigError):
        synthesize_frame(_static_scene((0.0, 1.0, 0.0)), cfg, cascade, 2)


@pytest.mark.parametrize("route", ["noisy-simulate", "noiseless-simulate-save", "cube"])
def test_non_integer_seed_is_a_config_error(table2, cascade, tmp_path, route):
    # These used to die with a bare TypeError from the noise key or the
    # MVDC header, or pass unchecked.
    cfg = dataclasses.replace(table2, n_frames=2)
    with pytest.raises(ConfigError, match="seed must be an integer, got 1.5"):
        if route == "cube":
            samples = np.zeros((2, 12, 16, 256), dtype=np.complex64)
            RawDataCube(samples=samples, chirp=cfg, geometry=cascade, seed=1.5).validate()
        else:
            snr_db = 10.0 if route == "noisy-simulate" else None
            cube = simulate(_static_scene((0.0, 1.0, 0.0), snr_db, seed=1.5), cfg, cascade)
            save_cube(cube, str(tmp_path / "cube.mvdc"))


@pytest.mark.parametrize("route", ["scene", "cube", "write_cube", "config"])
def test_seed_outside_u64_is_a_config_error(table2, cascade, tmp_path, capsys, route):
    # These used to pass: the noise key and the MVDC header kept the seed's
    # low 64 bits, so seed -1 simulated the cube of seed 2**64 - 1 and read
    # back as it, and seed 2**64 read back as 0.
    cfg = dataclasses.replace(table2, n_frames=2)
    samples = np.zeros((2, 12, 16, 256), dtype=np.complex64)
    out = tmp_path / "cube.mvdc"
    for seed in (-1, 2**64):
        if route == "config":
            doc = json.loads((resources.files("multivital") / "configs"
                              / "sim-single-target.json").read_text())
            doc["scene"]["seed"] = seed
            path = tmp_path / "seed.json"
            path.write_text(json.dumps(doc))
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
            assert json.loads(capsys.readouterr().err)["error"] == "config"
        else:
            with pytest.raises(ConfigError, match=r"seed must be in \[0, 2\*\*64\)"):
                if route == "scene":
                    _static_scene((0.0, 1.0, 0.0), 10.0, seed).validate()
                elif route == "cube":
                    RawDataCube(samples=samples, chirp=cfg, geometry=cascade, seed=seed).validate()
                else:
                    write_cube(str(out), cfg, cascade, seed, [samples])
        assert not out.exists()


def test_cube_shape_validation(table2, cascade):
    cfg = dataclasses.replace(table2, n_frames=2)
    bad = RawDataCube(
        samples=np.zeros((1, 12, 16, 256), dtype=np.complex64),
        chirp=cfg, geometry=cascade,
    )
    with pytest.raises(ConfigError):
        bad.validate()

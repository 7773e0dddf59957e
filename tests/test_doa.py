import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import multivital._util as _util
import multivital.pipeline as pipeline
from multivital.config import derive_waveform
from multivital.doa import (
    Beamformer,
    _path_excess,
    angle_map,
    build_phase_error_table,
    junction_phase_error,
    select_region_signal,
)
from multivital.errors import ConfigError, ProcessingError
from multivital.geometry import (
    ArrayGeometry,
    AzimuthUlaSelection,
    element_positions_m,
)
from multivital.rangeproc import extract_range_bin, locate_subject, range_fft
from multivital.simulate import ScatterPoint, Scene, SinusoidMotion, simulate

WL77 = 3.893409e-3  # m


def _direct_dft(x, n_fft):
    return np.fft.fftshift(np.fft.ifft(x, n=n_fft, norm="forward"))


def _ula_input(cascade, ula, x, n_fft):
    """Plane-wave Beamformer, and the 86 ULA samples x on their channels."""
    bf = Beamformer.build(ula, cascade, n_fft)
    y = np.zeros((cascade.n_tx * cascade.n_rx, 1), dtype=complex)
    y[bf.ula, 0] = x
    return bf, y


def _ula_spectrum(cascade, ula, x, n_fft):
    bf, y = _ula_input(cascade, ula, x, n_fft)
    return bf.ula_spectrum(y)[:, 0]


@given(seed=st.integers(0, 2**32 - 1), n_fft=st.sampled_from([128, 256, 512]))
@settings(max_examples=60, deadline=None)
def test_block_fft_equals_direct_dft(cascade, ula, seed, n_fft):
    # Regrouping the 86-element transform into per-block FFTs with position
    # twiddles must reproduce the plain zero-padded DFT.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(86) + 1j * rng.standard_normal(86)
    got = _ula_spectrum(cascade, ula, x, n_fft)
    want = _direct_dft(x, n_fft)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-10


def _block_transform(sel, table, x, n_fft):
    """ULA spectrum of x by its block definition, the reference for the weights.

    Each block is transformed on its own, shifted to its position with a
    twiddle, rotated by exp(-j sum of the first b table rows), and summed.
    """
    l = np.arange(n_fft) - n_fft // 2
    rot = np.ones((len(sel.blocks), n_fft), dtype=complex)
    rot[1:] = np.exp(-1j * np.cumsum(table, axis=0))
    out = np.zeros((n_fft, x.shape[1]), dtype=complex)
    for b, (start, stop) in enumerate(sel.blocks):
        spec = np.fft.fftshift(
            np.fft.ifft(x[start:stop + 1], n=n_fft, axis=0, norm="forward"), axes=0
        )
        tw = np.exp(2j * np.pi * l * start / n_fft) * rot[b]
        out += spec * tw[:, None]
    return out


@pytest.mark.parametrize("z", [None, 0.5, 5.0])
def test_weights_match_block_transform(cascade, ula, z):
    # The weight matrix folds the near-field table into the same linear map
    # as the per-block transforms with junction rotations: the table at
    # depth z with plane, at radial range z (depth z cos(theta_l)) without.
    n_fft = 512
    rng = np.random.default_rng(77)
    y = (rng.standard_normal((cascade.n_tx * cascade.n_rx, 16))
         + 1j * rng.standard_normal((cascade.n_tx * cascade.n_rx, 16)))
    theta = np.arcsin(2.0 * (np.arange(n_fft) - n_fft // 2) / n_fft)
    for plane in (True, False):
        if z is None:
            table, range_wl = np.zeros((len(ula.junctions), n_fft)), np.inf
        else:
            range_wl = z / WL77
            depth = range_wl if plane else range_wl * np.cos(theta)
            table = build_phase_error_table(ula, cascade, depth, n_fft)
        bf = Beamformer.build(ula, cascade, n_fft, range_wl, plane)
        got = bf.ula_spectrum(y)
        want = _block_transform(ula, table, y[bf.ula], n_fft)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-12


def test_spectrum_grid(cascade, ula):
    # Index l + 256 of the spectrum sits at theta_l = arcsin(2 l / 512): a
    # boresight input peaks at 256, and raw data carrying exp(-j pi p u)
    # with u = 0.25 peak at l = 64.
    spec = _ula_spectrum(cascade, ula, np.ones(86, dtype=complex), 512)
    assert len(spec) == 512
    assert int(np.argmax(np.abs(spec))) == 256
    bf, y = _ula_input(cascade, ula, np.exp(-1j * np.pi * np.arange(86) * 0.25), 512)
    assert int(np.argmax(np.abs(bf.ula_spectrum(y)[:, 0]))) == 256 + 64
    grid = angle_map(bf, y).azimuth_grid
    assert len(grid) == 512
    assert grid[256] == 0.0
    assert grid[256 + 64] == pytest.approx(np.arcsin(0.25))


def test_input_length_checks(cascade, ula):
    # The transform reads its 86 rows through the beamformer's own channel
    # list, so only the FFT size can be too short for them.
    assert len(Beamformer.build(ula, cascade, 256).ula) == 86
    with pytest.raises(ConfigError):
        Beamformer.build(ula, cascade, 64, 0.5 / WL77)
    with pytest.raises(ConfigError):
        Beamformer.build(ula, cascade, 64)


@pytest.mark.parametrize("range_wl", [0.0, -100.0, np.nan])
def test_bad_focus_range_fails_loudly(cascade, ula, range_wl):
    # Only a positive range, or inf for plane waves, is a focus.
    with pytest.raises(ConfigError, match="focus range"):
        Beamformer.build(ula, cascade, 256, range_wl=range_wl)


def test_junction_step_two_element_example():
    # One junction between positions 0 and 4 sharing the same Rx: at
    # boresight the step is the extra path to the offset Tx,
    # sqrt(z^2 + (2 lambda)^2) - z, scaled by 2 pi / lambda.
    geom = ArrayGeometry(tx_elements=((0, 0), (4, 0)), rx_elements=((0, 0),))
    sel = AzimuthUlaSelection(chosen=((0, 0), (1, 0)),
                              blocks=((0, 0), (1, 1)))
    dphi = junction_phase_error(sel, geom, 0.5 / WL77, np.array([0.0]))
    assert dphi.shape == (1, 1)
    assert dphi[0, 0] == pytest.approx(0.097846, abs=1e-5)


def test_junction_step_mirror_symmetry():
    # A left/right symmetric pair must have an odd phase step: zero at
    # boresight and sign-flipped at mirrored angles. The even part of the
    # wavefront curvature cancels between mirrored elements, so only the
    # odd residual survives; elements sit at +-4 half-wavelengths to keep
    # it comfortably above noise.
    geom = ArrayGeometry(tx_elements=((-4, 0), (4, 0)),
                         rx_elements=((-4, 0), (4, 0)))
    sel = AzimuthUlaSelection(chosen=((0, 0), (1, 1)),
                              blocks=((0, 0), (1, 1)))
    z = 0.5 / WL77
    theta = np.deg2rad(23.0)
    zero, plus, minus = junction_phase_error(sel, geom, z, np.array([0.0, theta, -theta]))[0]
    assert zero == pytest.approx(0.0, abs=1e-12)
    assert plus == pytest.approx(-minus, rel=1e-9)
    assert abs(plus) > 1e-3


def test_junction_steps_vanish_far_away(cascade, ula):
    thetas = np.arcsin(np.linspace(-0.95, 0.95, 39))
    for z, bound in [(1e4, 1e-3), (1e6, 1e-5), (1e7, 1e-6)]:
        dphi = junction_phase_error(ula, cascade, z / WL77, thetas)
        assert float(np.max(np.abs(dphi))) < bound


def test_junction_steps_halve_with_doubled_range(cascade, ula):
    # The residual after removing the plane-wave increment is the quadratic
    # wavefront term, which decays like 1/z.
    thetas = np.arcsin(np.linspace(-0.95, 0.95, 39))
    m1 = np.max(np.abs(junction_phase_error(ula, cascade, 2.0 / WL77, thetas)))
    m2 = np.max(np.abs(junction_phase_error(ula, cascade, 4.0 / WL77, thetas)))
    assert m1 / m2 >= 1.9
    assert m1 / m2 <= 2.1


def test_junction_rejects_bad_range(cascade, ula):
    with pytest.raises(ConfigError):
        junction_phase_error(ula, cascade, 0.0, np.array([0.0]))
    with pytest.raises(ConfigError, match="1-D"):
        junction_phase_error(ula, cascade, 100.0, 0.3)


def _junction_by_position(sel, geom, depth_wl, theta_l):
    """junction_phase_error by one path-difference pass per ULA position,
    the reference for its per-element form."""
    th = np.asarray(theta_l, dtype=np.float64)
    u = np.sin(th)
    e_hat = np.stack([u, np.cos(th), np.zeros_like(th)], axis=-1)
    rho = (np.cos(th) / depth_wl)[:, None]
    tx_wl, rx_wl = element_positions_m(geom, 1.0)
    tx_az = [a for a, _ in geom.tx_elements]
    rx_az = [a for a, _ in geom.rx_elements]
    tx_0, rx_0 = sel.chosen[0]

    def excess(xyz):
        return _path_excess(e_hat, rho, xyz[None])[:, 0]

    eps = np.empty((len(sel.chosen), len(th)))
    for e, (ti, ri) in enumerate(sel.chosen):
        dp = (tx_az[ti] + rx_az[ri]) - (tx_az[tx_0] + rx_az[rx_0])
        d_path = (
            (excess(tx_wl[ti]) - excess(tx_wl[tx_0]))
            + (excess(rx_wl[ri]) - excess(rx_wl[rx_0]))
        )
        eps[e] = 2.0 * np.pi * d_path + np.pi * dp * u
    block_err = np.stack([eps[s:stop + 1].mean(axis=0) for s, stop in sel.blocks])
    return block_err[1:] - block_err[:-1]


@pytest.mark.parametrize("z", [0.5, 1.0, 5.0])
def test_phase_table_equals_the_per_position_loop(cascade, ula, z):
    # Path differences taken once per physical element and indexed by the
    # ULA's (Tx, Rx) pairs give the per-position loop's table bit for bit,
    # at one depth and at one depth per grid angle (radial range z).
    n_fft = 512
    frac = 2.0 * (np.arange(n_fft) - n_fft // 2) / n_fft
    valid = np.abs(frac) < 1.0
    range_wl = z / WL77
    for depth in (range_wl, range_wl * np.sqrt(1.0 - frac * frac)):
        want = np.zeros((len(ula.junctions), n_fft))
        want[:, valid] = _junction_by_position(
            ula, cascade, np.broadcast_to(depth, frac.shape)[valid], np.arcsin(frac[valid])
        )
        assert np.array_equal(build_phase_error_table(ula, cascade, depth, n_fft), want)


def test_phase_table_layout(cascade, ula):
    table = build_phase_error_table(ula, cascade, 0.5 / WL77, 256)
    assert table.shape == (20, 256)
    l = np.arange(256) - 128
    invalid = np.abs(2.0 * l / 256) >= 1.0
    assert np.all(table[:, invalid] == 0.0)
    # Spot-check one in-grid column against the direct computation.
    col = 128 + 32  # l = 32, sin(theta) = 0.25
    want = junction_phase_error(ula, cascade, 0.5 / WL77, np.arcsin([0.25]))[:, 0]
    assert np.allclose(table[:, col], want)


def test_calibration_recovers_close_target(table2, cascade, ula):
    # Exact-path data from 0.5 m carry junction phase twists of a couple of
    # radians; compensating them has to sharpen and recenter the azimuth
    # peak compared to the plain transform.
    cfg = dataclasses.replace(table2, n_frames=1)
    theta0 = np.deg2rad(20.0)
    z = 0.5
    pos = (z * np.tan(theta0), z, 0.0)
    scene = Scene(points=(ScatterPoint(pos),))
    cube = simulate(scene, cfg, cascade)
    rc = range_fft(cube, 256)
    loc = locate_subject(rc)
    slab = rc.bins[0, :, :, loc.bin].reshape(-1, 1).astype(np.complex128)

    n_fft = 512
    ff = Beamformer.build(ula, cascade, n_fft).ula_spectrum(slab)[:, 0]
    nf = Beamformer.build(ula, cascade, n_fft, z / WL77, plane=True).ula_spectrum(slab)[:, 0]

    l0 = round(n_fft * np.sin(theta0) / 2.0)
    err_nf = abs(int(np.argmax(np.abs(nf))) - 256 - l0)
    assert err_nf <= 1
    assert np.max(np.abs(nf)) > np.max(np.abs(ff))


@pytest.mark.parametrize("range_m", [0.5, 5.0, np.inf])
def test_focus_matches_direct_matched_sum(cascade, ula, steering, range_m):
    # The factored float32-phase focus against the matched sum over all
    # 192 channels in float64: exact paths at a finite range, the
    # plane-wave steering phasors at an infinite one.
    rng = np.random.default_rng(5)
    y = rng.standard_normal((192, 3)) + 1j * rng.standard_normal((192, 3))
    u = np.array([0.0, 0.3, -0.55, 0.1])
    v = np.array([0.0, -0.2, 0.1, 0.6])
    bf = Beamformer.build(ula, cascade, 256, range_wl=range_m / WL77)
    want = np.empty((len(u), 3), dtype=complex)
    for i, (ui, vi) in enumerate(zip(u, v)):
        if np.isinf(range_m):
            a, b = steering(cascade, ui, vi)
            w = np.outer(a, np.conj(b))
        else:
            p = range_m * np.array([ui, np.sqrt(1.0 - ui * ui - vi * vi), vi])
            tx, rx = element_positions_m(cascade, WL77)
            path = (np.linalg.norm(p - tx, axis=1)[:, None]
                    + np.linalg.norm(p - rx, axis=1)[None, :] - 2.0 * np.linalg.norm(p))
            w = np.exp(-2j * np.pi * path / WL77)
        want[i] = w.ravel() @ y / 192
    got = bf.focus(y, u, v, bf.range_wl)
    assert np.max(np.abs(got - want)) < 1e-4 * np.max(np.abs(y)) / np.sqrt(192)


def test_layout_regions_focus_on_their_chest_plane_points(cascade, ula):
    # A layout region's point (x, z, y) is focused there, not at the
    # beamformer's range z along its direction.
    z, x, h = 0.5, 0.12, -0.15
    rng = np.random.default_rng(8)
    y = rng.standard_normal((192, 2)) + 1j * rng.standard_normal((192, 2))
    bf = Beamformer.build(ula, cascade, 256, range_wl=z / WL77, plane=True)
    got = select_region_signal(bf, y, {"P": np.array([x, z, h]) / WL77})[0]
    r = np.sqrt(x * x + z * z + h * h)
    want = bf.focus(y, [x / r], [h / r], r / WL77)[0]
    assert np.allclose(got.slowtime, want, rtol=1e-4, atol=0)


@pytest.fixture(scope="module")
def offset_cube(table1, cascade):
    cfg = dataclasses.replace(table1, n_frames=8)
    motion = SinusoidMotion(direction=(0.6, 0.8, 0.0), amplitude=3e-4,
                            frequency=1.0)
    scene = Scene(points=(ScatterPoint((3.0, 4.0, 0.0), motion),))
    return simulate(scene, cfg, cascade)


def _steered(cube, cascade, ula, calibrate=True):
    """Beamformer and raw subject-bin data of cube at n_fft 512."""
    rc = range_fft(cube, 512)
    wl = derive_waveform(cube.chirp).wavelength
    loc = locate_subject(rc)
    bf = Beamformer.build(ula, cascade, 512, loc.range_m / wl if calibrate else np.inf)
    return bf, extract_range_bin(rc, loc.bin).astype(np.complex128)


def _point(r, phi, theta):
    """Scene point at range r along azimuth phi and elevation theta."""
    u, v = np.sin(phi), np.sin(theta)
    return r * np.array([u, np.sqrt(1.0 - u * u - v * v), v])


def test_select_region_signal_recovers_motion(table1, cascade, ula, offset_cube):
    wl = derive_waveform(table1).wavelength
    phi = np.arctan2(3.0, 4.0)
    bf, y = _steered(offset_cube, cascade, ula)
    signals = select_region_signal(bf, y, {"A": _point(bf.range_wl, phi, 0.0)})
    assert len(signals) == 1
    phase = np.unwrap(np.angle(signals[0].slowtime))
    t = np.arange(8) * table1.t_frame
    truth = 4 * np.pi / wl * 3e-4 * np.sin(2 * np.pi * t)
    got = phase - phase[0]
    want = truth - truth[0]
    assert np.max(np.abs(got - want)) < 1e-3


def test_select_region_signal_angle_checks(offset_cube, cascade, ula):
    bf, y = _steered(offset_cube, cascade, ula)
    with pytest.raises(ProcessingError, match="region A .* must be finite"):
        select_region_signal(bf, y, {"A": (0.0, np.inf, 0.0)})
    with pytest.raises(ProcessingError, match="region P .* depth y > 0"):
        select_region_signal(bf, y, {"A": (0.0, 10.0, 0.0), "P": (1.0, 0.0, 0.0)})
    with pytest.raises(ConfigError):
        select_region_signal(bf, y, {"Q": (0.0, 10.0, 0.0)})
    with pytest.raises(ProcessingError):
        select_region_signal(bf, y, {})


def test_angle_map_peak(table1, cascade, ula):
    cfg = dataclasses.replace(table1, n_frames=1)
    u, v = 0.3, -0.2
    r = 5.0
    y = r * np.sqrt(1 - u * u - v * v)
    scene = Scene(points=(ScatterPoint((u * r, y, v * r)),))
    cube = simulate(scene, cfg, cascade)
    am = angle_map(*_steered(cube, cascade, ula))
    az_i, el_i = np.unravel_index(np.argmax(am.power), am.power.shape)
    assert np.degrees(am.azimuth_grid[az_i]) == pytest.approx(
        np.degrees(np.arcsin(u)), abs=0.35)
    assert np.degrees(am.elevation_grid[el_i]) == pytest.approx(
        np.degrees(np.arcsin(v)), abs=1.0)


def _capture_grid():
    """The angle map's 512 x 91 grid of direction cosines at n_fft 512, as
    angle_map lays it out, and the mask of its cells inside the unit circle."""
    u, v = np.broadcast_arrays((2.0 * np.arange(-256, 256) / 512)[:, None],
                               np.sin(np.deg2rad(np.arange(-45.0, 46.0, 1.0))))
    return u, v, u * u + v * v < 1.0


def test_directional_power_over_point_blocks_equals_one_focus_call(
        cascade, ula, offset_cube, monkeypatch):
    """The angle map's grid is focused in several point blocks, and every
    cell's power equals, bit for bit, that of one focus call on every
    point; cells outside the unit circle hold 0."""
    bf, y = _steered(offset_cube, cascade, ula)
    u, v, ok = _capture_grid()
    calls = []
    focus = Beamformer.focus

    def counted(self, y, *points):  # points: u, v, range_wl
        calls.append(len(points[0]))
        return focus(self, y, *points)

    monkeypatch.setattr(Beamformer, "focus", counted)
    power = bf.directional_power(y, u, v)
    assert len(calls) > 2 and sum(calls) == ok.sum() and max(calls) - min(calls) <= 1
    whole = np.abs(focus(bf, y[:, :1], u[ok], v[ok], bf.range_wl)[:, 0]) ** 2
    assert np.array_equal(power[ok], whole)
    assert not power[~ok].any()


@pytest.mark.parametrize("halve", [False, True], ids=["budget", "half-budget"])
def test_angle_map_peak_memory_is_within_the_block_budget(cascade, ula, offset_cube,
                                                          monkeypatch, halve):
    """On the capture-sized 512 x 91 grid, angle_map's traced peak stays
    within the block budget (_util.BLOCK_BYTES), and within half of it
    when the budget is halved: its points are focused a block at a time.
    Focusing all 41 861 points at once took 21.5 MiB."""
    bf, y = _steered(offset_cube, cascade, ula)
    budget = _util.BLOCK_BYTES // 2 if halve else _util.BLOCK_BYTES
    monkeypatch.setattr(_util, "BLOCK_BYTES", budget)
    tracemalloc.start()
    try:
        angle_map(bf, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget


@pytest.mark.parametrize("calibrate", [True, False])
def test_region_signal_matches_angle_map_cell(cascade, ula, offset_cube, calibrate):
    # Region selection and the angle map steer through the same beamformer:
    # a region on a grid azimuth and a map elevation must carry the map's
    # power at that cell in every frame.
    bf, y = _steered(offset_cube, cascade, ula, calibrate=calibrate)
    l, k = 154, 48  # sin(phi) = 0.6016, theta = 3 deg
    amap = angle_map(bf, y)
    phi, theta = amap.azimuth_grid[256 + l], amap.elevation_grid[k]
    # A point has a finite range: plane waves are read 1e30 wavelengths out,
    # where focus's range terms fall below float64 resolution.
    r = bf.range_wl if calibrate else 1e30
    signal = select_region_signal(bf, y, {"A": _point(r, phi, theta)})[0].slowtime
    for f in (0, 5):
        power = angle_map(bf, y[:, f:]).power[256 + l, k]
        assert abs(signal[f]) ** 2 == pytest.approx(power, rel=1e-12)

"""Acceptance suite: one numbered criterion per test, one PASS/FAIL line each.

Each test prints its verdict with capture suspended so the line shows up in
the terminal even on green runs, then asserts with the same message.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from multivital import (
    RegionSignal,
    ScatterPoint,
    Scene,
    SinusoidMotion,
    derive_waveform,
    dominant_frequency,
    normalized_xcorr_max,
    region_signal_to_trace,
    run_pipeline,
    select_region_signal,
    simulate,
)
from multivital.doa import Beamformer
from multivital.metrics import SensorLayout, max_freq_difference
from multivital.pipeline import estimate_angles, steer_subject
from multivital.rangeproc import locate_subject, range_fft
from multivital.runconfig import load_run_config
from multivital.scg import ScgChannel, scg_to_displacement


def _report(capsys, name: str, ok: bool, detail: str) -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'} | {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_a1_single_target_end_to_end(capsys):
    t_start = time.perf_counter()
    cfg = load_run_config("sim-single-target")
    cube = simulate(cfg.scene, cfg.chirp, cfg.geometry)
    result = run_pipeline(cube, cfg.pipeline)
    elapsed = time.perf_counter() - t_start

    wf = derive_waveform(cfg.chirp)
    range_err = abs(result.range_m - 5.0)
    # target at (3, 4, 0): azimuth 36.87 deg, sin = 0.6
    cell = 2.0 / cfg.pipeline.n_fft_azimuth
    u_err = abs(math.sin(result.azimuth_peak_rad) - 0.6)
    trace = result.traces[0]
    p2p = float(np.ptp(trace.phase))
    freq = dominant_frequency(trace, cfg.pipeline.band)
    freq_tol = 1.0 / (cfg.chirp.n_frames * cfg.chirp.t_frame)

    ok = (
        range_err <= wf.range_resolution + 1e-12
        and u_err <= cell + 1e-12
        and abs(p2p - 6.44) <= 0.05 * 6.44
        and abs(freq - 1.0) <= freq_tol + 1e-12
        and elapsed < 60.0
    )
    _report(
        capsys,
        "A1", ok,
        f"range {result.range_m:.4f} m (err {100 * range_err:.2f} cm vs "
        f"{100 * wf.range_resolution:.2f} cm bin), "
        f"azimuth {math.degrees(result.azimuth_peak_rad):.2f} deg "
        f"(u err {u_err:.4f} vs cell {cell:.4f}), "
        f"p2p {p2p:.3f} rad (want 6.44 +-5%), "
        f"freq {freq:.4f} Hz (tol +-{freq_tol:.4f}), {elapsed:.1f} s",
    )


def test_a2_waveform_derivation(table1, table2, capsys):
    wf1 = derive_waveform(table1)
    wf2 = derive_waveform(table2)
    # three significant figures: half an ulp of the last quoted digit
    checks = [
        ("B1", wf1.bandwidth_b, 4.61e9, 0.005e9),
        ("dR1", wf1.range_resolution, 3.25e-2, 0.005e-2),
        ("B2", wf2.bandwidth_b, 3.38e9, 0.005e9),
        ("dR2", wf2.range_resolution, 4.44e-2, 0.005e-2),
    ]
    ok = all(abs(got - want) <= tol for _, got, want, tol in checks)
    detail = ", ".join(f"{name} {got:.4g} (want {want:.3g})"
                       for name, got, want, _ in checks)
    _report(capsys, "A2", ok, detail)


def test_a3_junction_calibration_sweep(table2, cascade, ula, capsys):
    t_start = time.perf_counter()
    wl = derive_waveform(table2).wavelength
    chirp = dataclasses.replace(table2, n_frames=1)
    n_fft = 512
    cell = 2.0 / n_fft
    z = 0.5  # m, boresight depth
    n_cases = 0
    n_better = 0
    worst_cal = 0.0
    for phi_deg in range(-30, 31, 5):
        phi = math.radians(phi_deg)
        scene = Scene(
            points=(ScatterPoint(position0=(z * math.tan(phi), z, 0.0)),),
            snr_db=None, seed=0, mode="exact-path",
        )
        cube = simulate(scene, chirp, cascade)
        rc = range_fft(cube, 256)
        loc = locate_subject(rc)
        bf, y = steer_subject(rc, loc, ula, cascade, wl, n_fft, range_z=z)
        az_cal, _ = estimate_angles(bf, y)
        bf, y = steer_subject(rc, loc, ula, cascade, wl, n_fft)
        az_unc, _ = estimate_angles(bf, y)
        err_cal = abs(math.sin(az_cal) - math.sin(phi)) / cell  # grid cells
        err_unc = abs(math.sin(az_unc) - math.sin(phi)) / cell
        n_cases += 1
        n_better += err_cal <= err_unc + 1e-9
        worst_cal = max(worst_cal, err_cal)
    elapsed = time.perf_counter() - t_start
    frac = n_better / n_cases
    ok = frac >= 0.95 and worst_cal <= 1.0 + 1e-9 and elapsed < 300.0
    _report(
        capsys,
        "A3", ok,
        f"calibrated <= uncalibrated in {n_better}/{n_cases} angles "
        f"({100 * frac:.0f}%, need >=95%), worst calibrated error "
        f"{worst_cal:.2f} cells (need <=1), {elapsed:.1f} s",
    )


def test_a4_block_recombination_matches_direct_dft(cascade, ula, capsys):
    rng = np.random.default_rng(2024)
    n_ula = len(ula.chosen)
    beamformers = {
        n: Beamformer.build(ula, cascade, n, np.zeros((len(ula.junctions), n)))
        for n in (128, 256, 512)
    }
    y = np.zeros((cascade.n_tx * cascade.n_rx, 1), dtype=np.complex128)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(n_ula) + 1j * rng.standard_normal(n_ula)
        for n_fft, bf in beamformers.items():
            y[bf.ula, 0] = x
            got = bf.ula_spectrum(y)[:, 0]
            want = np.fft.fftshift(np.fft.ifft(x, n_fft, norm="forward"))
            err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
            worst = max(worst, err)
    ok = worst < 1e-10
    _report(capsys, "A4", ok, f"100 vectors x N in (128, 256, 512): "
                      f"max rel err {worst:.3e} (need < 1e-10)")


def test_a5_two_scatterers_same_bin(table2, cascade, ula, capsys):
    t_start = time.perf_counter()
    wl = derive_waveform(table2).wavelength
    phi = math.radians(10.0)
    z = 0.5  # m
    own = {"A": 0.8, "P": 1.2}  # Hz
    points = tuple(
        ScatterPoint(
            position0=(s * z * math.tan(phi), z, 0.0),
            motion=SinusoidMotion(direction=(0.0, 1.0, 0.0),
                                  amplitude=0.5e-3, frequency=f),
        )
        for s, f in ((+1.0, own["A"]), (-1.0, own["P"]))
    )
    scene = Scene(points=points, snr_db=None, seed=5, mode="exact-path")
    cube = simulate(scene, table2, cascade)
    rc = range_fft(cube, 256)
    loc = locate_subject(rc)
    regions = {"A": (phi, 0.0), "P": (-phi, 0.0)}
    bf, y = steer_subject(rc, loc, ula, cascade, wl, 512, range_z=z)
    signals = select_region_signal(bf, y, regions)
    frame_rate = table2.frame_rate
    times = np.arange(table2.n_frames) / frame_rate
    refs = {f: np.sin(2.0 * np.pi * f * times) for f in own.values()}
    bin_hz = frame_rate / table2.n_frames

    ok = True
    parts = []
    for s in signals:
        tr = region_signal_to_trace(s, wl, frame_rate)
        f_own = own[s.region]
        f_other = own["P" if s.region == "A" else "A"]
        rho_own, _ = normalized_xcorr_max(tr.displacement, refs[f_own])
        rho_other, _ = normalized_xcorr_max(tr.displacement, refs[f_other])
        f_est = dominant_frequency(tr)
        ok = ok and rho_own >= 0.9 and rho_own > rho_other
        ok = ok and abs(f_est - f_own) <= bin_hz + 1e-12
        parts.append(f"{s.region}: rho(own {f_own} Hz) {rho_own:.3f}, "
                     f"rho(other) {rho_other:.3f}, f {f_est:.3f} Hz")
    elapsed = time.perf_counter() - t_start
    ok = ok and elapsed < 120.0
    _report(capsys, "A5", ok, "; ".join(parts) + f"; {elapsed:.1f} s")


def test_a6_five_point_phantom(capsys):
    cfg = load_run_config("phantom-five-point")
    cube = simulate(cfg.scene, cfg.chirp, cfg.geometry)
    result = run_pipeline(cube, cfg.pipeline, layout=cfg.layout)
    times = np.arange(cfg.chirp.n_frames) / cfg.chirp.frame_rate

    rhos = {}
    freqs = {}
    for tr, point in zip(result.traces, cfg.scene.points):
        truth = point.radial_displacement(times)
        rhos[tr.region], _ = normalized_xcorr_max(tr.displacement, truth)
        freqs[tr.region] = dominant_frequency(tr, cfg.pipeline.band)
    spread = max(freqs.values()) - min(freqs.values())
    bin_hz = cfg.chirp.frame_rate / cfg.chirp.n_frames
    ok = min(rhos.values()) >= 0.8 and spread <= bin_hz + 1e-12
    _report(
        capsys,
        "A6", ok,
        "rho " + ", ".join(f"{r} {v:.3f}" for r, v in rhos.items())
        + f" (need >=0.8); frequency spread {spread:.4f} Hz "
        f"(need <= {bin_hz:.4f})",
    )


def test_a7_scg_double_integration(capsys):
    fs = 500.0  # Hz
    f0 = 5.0  # Hz
    accel = 0.1  # m/s^2
    t = np.arange(int(30.0 * fs)) / fs
    tone = accel * np.sin(2.0 * np.pi * f0 * t)
    quiet = np.zeros_like(tone)

    def amplitude(bias):
        ch = ScgChannel(fs=fs, ax=tone + bias, ay=quiet, az=quiet, region="A")
        tr = next(t for t in scg_to_displacement(ch) if t.axis == "x")
        d = tr.trimmed
        return float(d.max() - d.min()) / 2.0

    expected = 1000.0 * accel / (2.0 * np.pi * f0) ** 2  # mm
    amp = amplitude(0.0)
    amp_biased = amplitude(0.5)
    rel_err = abs(amp - expected) / expected
    bias_shift = abs(amp_biased - amp) / amp
    ok = rel_err <= 0.02 and bias_shift < 0.01
    _report(
        capsys,
        "A7", ok,
        f"amplitude {amp:.5f} mm vs {expected:.5f} mm "
        f"(err {100 * rel_err:.2f}%, need <=2%); "
        f"0.5 m/s^2 bias shifts it {100 * bias_shift:.3f}% (need <1%)",
    )


def test_a8_phase_extraction_fidelity(table2, capsys):
    wl = derive_waveform(table2).wavelength
    rate = table2.frame_rate
    t = np.arange(600) / rate

    def recovered_p2p(amp_m, scale=1.0):
        d = amp_m * np.sin(2.0 * np.pi * 1.0 * t)  # m
        s = RegionSignal(
            region="A", slowtime=scale * np.exp(4j * np.pi * d / wl)
        )
        tr = region_signal_to_trace(s, wl, rate)
        return tr, float(np.ptp(tr.displacement)), float(np.ptp(1000.0 * d))

    # small motion: peak to peak below an eighth of a wavelength
    _, got_small, want_small = recovered_p2p(0.2e-3)
    err_small = abs(got_small - want_small) / want_small
    # 1.0 mm amplitude: wrapped phase swings past +-pi, unwrapping required
    _, got_large, want_large = recovered_p2p(1.0e-3)
    err_large = abs(got_large - want_large) / want_large
    # complex channel scaling must not change the relative trace
    tr_ref, _, _ = recovered_p2p(0.4e-3)
    tr_scaled, _, _ = recovered_p2p(0.4e-3, scale=0.3 - 1.2j)
    scale_dev = max(
        float(np.max(np.abs(tr_ref.phase - tr_scaled.phase))),
        float(np.max(np.abs(tr_ref.displacement - tr_scaled.displacement))),
    )
    ok = err_small <= 0.02 and err_large <= 0.05 and scale_dev <= 1e-9
    _report(
        capsys,
        "A8", ok,
        f"sub-wl/8 p2p err {100 * err_small:.4f}% (need <=2%); "
        f"1.0 mm p2p err {100 * err_large:.4f}% (need <=5%); "
        f"complex-scale deviation {scale_dev:.2e} (need <=1e-9)",
    )


def test_a9_comparison_metric_oracles(capsys):
    rng = np.random.default_rng(0)
    x = np.convolve(rng.standard_normal(400), np.ones(5) / 5.0, mode="same")
    rho_self, lag_self = normalized_xcorr_max(x, x)
    rho_sign, _ = normalized_xcorr_max(x, -x)
    rho_shift, lag_shift = normalized_xcorr_max(x, np.roll(x, 7))

    rate = 20.0  # Hz
    times = np.arange(int(180.0 * rate)) / rate
    a = np.sin(2.0 * np.pi * 1.0 * times)
    b = np.sin(2.0 * np.pi * 1.2 * times)
    d_same = max_freq_difference(a, rate, a, rate)
    d_apart = max_freq_difference(a, rate, b, rate)

    ok = (
        rho_self == 1.0 and lag_self == 0
        and abs(rho_sign - 1.0) <= 1e-12
        and rho_shift >= 0.9 and lag_shift == -7
        and d_same == 0.0
        and abs(d_apart - 0.2) <= 2.0 / 180.0
    )
    _report(
        capsys,
        "A9", ok,
        f"rho(x,x) {rho_self} lag {lag_self}; rho(x,-x) {rho_sign:.12f}; "
        f"roll(+7) -> rho {rho_shift:.3f} lag {lag_shift}; "
        f"df identical {d_same} Hz, df 1.0 vs 1.2 Hz {d_apart:.4f} Hz "
        f"(want 0.20 +-{2.0 / 180.0:.4f})",
    )


A10_FREQS = {"A": 0.9, "P": 1.05, "T": 1.2, "E": 1.35, "M": 1.5}  # Hz
# A processing layout that is off: 1.2 cm deeper (the located range's error
# at 0.5 m) and every non-A sensor moved by at most 5 mm. The x offsets of P
# and E stay inside their ~1 mm (toward A) to ~4 mm (away) lateral
# tolerance: the points sit 1 cm apart in x, about the array's spot size.
A10_OFFSETS = {"P": (-0.003, 0.004), "T": (0.003, -0.004), "E": (0.0, -0.005), "M": (0.004, 0.003)}


@pytest.fixture(scope="module")
def five_frequency_phantom():
    """phantom-five-point at 400 frames, each point at its own frequency."""
    cfg = load_run_config("phantom-five-point")
    points = tuple(
        dataclasses.replace(p, motion=dataclasses.replace(p.motion, frequency=f))
        for p, f in zip(cfg.scene.points, A10_FREQS.values())
    )
    scene = dataclasses.replace(cfg.scene, points=points)
    chirp = dataclasses.replace(cfg.chirp, n_frames=400)
    return cfg, scene, chirp, simulate(scene, chirp, cfg.geometry)


@pytest.mark.parametrize("near_field", [True, False])
@pytest.mark.parametrize("layout_error", [False, True])
def test_a10_five_frequency_phantom(five_frequency_phantom, layout_error, near_field, capsys):
    cfg, scene, chirp, cube = five_frequency_phantom
    layout = cfg.layout
    if layout_error:
        positions = {
            rid: (x + A10_OFFSETS[rid][0], y + A10_OFFSETS[rid][1]) if rid in A10_OFFSETS
            else (x, y)
            for rid, (x, y) in layout.positions.items()
        }
        layout = SensorLayout(positions=positions, z_a=layout.z_a + 0.012)
    pcfg = dataclasses.replace(cfg.pipeline, near_field=near_field)
    result = run_pipeline(cube, pcfg, layout=layout)
    times = np.arange(chirp.n_frames) / chirp.frame_rate
    bin_hz = chirp.frame_rate / chirp.n_frames

    ok = True
    parts = []
    for tr, point in zip(result.traces, scene.points):
        truth = point.radial_displacement(times)
        rho, _ = normalized_xcorr_max(tr.displacement, truth)
        f_est = dominant_frequency(tr, pcfg.band)
        # normalized_xcorr_max ignores sign (A9); the trace must also move
        # the same way as its point.
        same_sign = float(np.dot(tr.displacement - tr.displacement.mean(),
                                 truth - truth.mean())) > 0
        ok = ok and rho >= 0.9 and abs(f_est - A10_FREQS[tr.region]) <= bin_hz + 1e-12
        ok = ok and same_sign
        parts.append(f"{tr.region} rho {rho:.3f} f {f_est:.2f} Hz"
                     + ("" if same_sign else " sign flipped"))
    case = "layout +1.2 cm, <=5 mm" if layout_error else "exact layout"
    _report(
        capsys,
        "A10", ok,
        f"{case}, near-field {'on' if near_field else 'off'}: " + ", ".join(parts)
        + f" (need rho >=0.9, f within {bin_hz:.2f} Hz of own, same sign)",
    )

"""End-to-end checks of the console entry points via main(argv)."""

import csv
import dataclasses
import io
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from importlib import resources

import numpy as np
import pytest

import multivital.cli as cli
import multivital.doa as doa
import multivital.pipeline as pipeline
import multivital.scg as scg
from multivital.cli import main
from multivital.geometry import select_azimuth_ula
from multivital.io import load_cube, load_scg_csv, read_trace_table, save_cube
from multivital.runconfig import load_run_config
from multivital.scg import scg_to_displacement
from multivital.simulate import RawDataCube, simulate

RATE = 250.0  # Hz, synthetic accelerometer rate


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A small simulated cube plus the config that produced it."""
    root = tmp_path_factory.mktemp("cli")
    doc = {
        "chirp": {
            "fc_hz": 77.0e9,
            "prt_s": 70.0e-6,
            "t_frame_s": 0.05,
            "n_adc": 256,
            "fs_hz": 5.0e6,
            "k_chirp_hz_per_s": 65.998e12,
            "n_frames": 16,
        },
        "geometry": "ti-cascade",
        "scene": {
            "points": [{
                "position_m": [0.0, 0.5, 0.0],
                "motion": {
                    "kind": "sinusoid",
                    "direction": [0.0, 1.0, 0.0],
                    "amplitude_m": 0.5e-3,
                    "frequency_hz": 1.2,
                },
            }],
            "seed": 3,
        },
        "pipeline": {"n_fft_range": 256, "n_fft_azimuth": 256},
    }
    cfg = root / "run.json"
    cfg.write_text(json.dumps(doc))
    cube = root / "cube.mvdc"
    assert main(["simulate", "--config", str(cfg), "--out", str(cube)]) == 0
    return {"root": root, "cfg": cfg, "cube": cube}


def _write_accel_csv(path, freqs=(2.0, 1.5, 2.5), region="A"):
    """8 s of sinusoidal acceleration on all three axes of one region."""
    n = int(8.0 * RATE)
    t = np.arange(n) / RATE
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", f"{region}_ax", f"{region}_ay", f"{region}_az", "ecg"])
        for i in range(n):
            row = [t[i]] + [0.1 * np.sin(2 * np.pi * f * t[i]) for f in freqs] + [0.0]
            writer.writerow([repr(float(v)) for v in row])


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["simulate", "--config", "x"]) == 2  # missing --out
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "sim-single-target", "--out", "c.mvdc", "--seed", "1"],
    ["scg", "--in", "accel.csv", "--out", "disp.csv", "--cutoff", "0.8"],
], ids=["simulate--seed", "scg--cutoff"])
def test_retired_flags_are_usage_errors(tmp_path, monkeypatch, capsys, argv):
    """The scene seed is set in the config and the SCG high-pass is fixed."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert argv[-2] in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_retired_near_field_flag_is_a_usage_error(workdir, tmp_path, capsys):
    """Junction compensation is always on: process has no --near-field."""
    out = tmp_path / "t.csv"
    assert main(["process", "--cube", str(workdir["cube"]), "--config", str(workdir["cfg"]),
                 "--out", str(out), "--near-field", "on"]) == 2
    assert "--near-field" in capsys.readouterr().err
    assert not out.exists()


def test_python_m_multivital_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "multivital", "--help"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0
    for command in ("simulate", "process", "scg", "compare", "e2e"):
        assert command in proc.stdout


def test_missing_cube_reports_io_error(workdir, tmp_path, capsys):
    rc = main([
        "process", "--cube", str(tmp_path / "nope.mvdc"),
        "--config", str(workdir["cfg"]), "--out", str(tmp_path / "t.csv"),
    ])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "io"
    assert "message" in err


def test_compare_into_a_missing_directory_names_the_output(workdir, tmp_path, capsys):
    """The write used to fail naming its temp file,
    file not found: .../missing/.tmp-k_6cb8s6~."""
    traces = tmp_path / "traces.csv"
    assert main(["process", "--cube", str(workdir["cube"]),
                 "--config", str(workdir["cfg"]), "--out", str(traces)]) == 0
    capsys.readouterr()
    out = tmp_path / "missing" / "rep.json"
    assert main(["compare", "--radar", str(traces), "--ref", str(traces),
                 "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "io", "message": f"file not found: {out}"}


@pytest.mark.parametrize("flag", ["--out", "--angle-map"])
def test_process_into_a_missing_directory_fails_before_processing(
        workdir, tmp_path, monkeypatch, capsys, flag):
    """process used to run the whole pipeline before its first write found
    the output's directory missing."""
    def refuse(*args, **kwargs):
        raise AssertionError("process ran the pipeline")

    monkeypatch.setattr(cli, "run_pipeline", refuse)
    missing = tmp_path / "missing" / "out.csv"
    paths = {"--out": tmp_path / "t.csv", "--angle-map": tmp_path / "map.csv"}
    paths[flag] = missing
    rc = main(["process", "--cube", str(workdir["cube"]), "--config", str(workdir["cfg"]),
               *[str(x) for pair in paths.items() for x in pair]])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["message"] == f"file not found: {missing}"
    assert list(tmp_path.iterdir()) == []


def test_bad_config_name_reports_config_error(tmp_path, capsys):
    rc = main(["simulate", "--config", "no-such", "--out", str(tmp_path / "c.mvdc")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_simulate_deterministic_unless_reseeded(workdir, tmp_path, capsys):
    a = tmp_path / "a.mvdc"
    b = tmp_path / "b.mvdc"
    c = tmp_path / "c.mvdc"
    cfg = str(workdir["cfg"])
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    doc = json.loads(workdir["cfg"].read_text())
    doc["scene"]["seed"] = 99
    reseeded = tmp_path / "reseeded.json"
    reseeded.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(reseeded), "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_writes_frame_chunks_as_one_cube(workdir, tmp_path, monkeypatch, capsys,
                                                  threads):
    """simulate synthesizes 6, 6 and 4 of 16 noisy frames into one reused
    buffer and writes each before the next is made: the file is byte for
    byte save_cube of the whole simulated cube."""
    doc = json.loads(workdir["cfg"].read_text())
    doc["scene"]["snr_db"] = 10.0
    cfg_path = tmp_path / "noisy.json"
    cfg_path.write_text(json.dumps(doc))
    cfg = load_run_config(str(cfg_path))
    frame_bytes = 8 * cfg.geometry.n_tx * cfg.geometry.n_rx * cfg.chirp.n_adc
    monkeypatch.setattr(pipeline, "_CHUNK_BYTES", 6 * frame_bytes + frame_bytes // 2)
    monkeypatch.setenv("MULTIVITAL_THREADS", threads)
    chunks = []
    simulate_chunks = cli.simulate_chunks

    def recording(*args):
        for chunk in simulate_chunks(*args):
            chunks.append((len(chunk), chunk.__array_interface__["data"][0]))
            yield chunk

    monkeypatch.setattr(cli, "simulate_chunks", recording)
    streamed = tmp_path / "streamed.mvdc"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(streamed)]) == 0
    assert [n for n, _ in chunks] == [6, 6, 4]
    assert len({address for _, address in chunks}) == 1  # one buffer, reused
    whole = tmp_path / "whole.mvdc"
    save_cube(simulate(cfg.scene, cfg.chirp, cfg.geometry), str(whole))
    assert streamed.read_bytes() == whole.read_bytes()
    capsys.readouterr()


def test_simulate_chunk_holds_a_frame_per_worker(workdir, tmp_path, monkeypatch):
    """With 4 workers and a block budget below one frame, simulate still
    asks simulate_chunks for 4 frames a chunk, so no worker is idle; the
    file is byte for byte save_cube of the whole simulated cube."""
    cfg = load_run_config(str(workdir["cfg"]))
    monkeypatch.setattr(pipeline, "_CHUNK_BYTES", 1024)
    monkeypatch.setenv("MULTIVITAL_THREADS", "4")
    asked, sizes = [], []
    simulate_chunks = cli.simulate_chunks

    def recording(scene, chirp, geom, frames_per_chunk):
        asked.append(frames_per_chunk)
        for chunk in simulate_chunks(scene, chirp, geom, frames_per_chunk):
            sizes.append(len(chunk))
            yield chunk

    monkeypatch.setattr(cli, "simulate_chunks", recording)
    streamed = tmp_path / "streamed.mvdc"
    assert main(["simulate", "--config", str(workdir["cfg"]), "--out", str(streamed)]) == 0
    assert asked == [4] and sizes == [4] * (cfg.chirp.n_frames // 4)
    whole = tmp_path / "whole.mvdc"
    save_cube(simulate(cfg.scene, cfg.chirp, cfg.geometry), str(whole))
    assert streamed.read_bytes() == whole.read_bytes()


def test_process_writes_readable_traces(workdir, tmp_path, capsys):
    out = tmp_path / "traces.csv"
    rc = main([
        "process", "--cube", str(workdir["cube"]),
        "--config", str(workdir["cfg"]), "--out", str(out),
    ])
    assert rc == 0
    table = read_trace_table(str(out))
    assert list(table) == ["A"]
    assert len(table["A"]["displacement_mm"]) == 16
    assert "subject at" in capsys.readouterr().out


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_cube_reports_processing_error(workdir, tmp_path, bad):
    """stderr is the one JSON error object, with no warning printed ahead of it."""
    geometry = load_run_config(str(workdir["cfg"])).geometry
    cube = load_cube(str(workdir["cube"]), geometry=geometry)
    samples = cube.samples.copy()
    samples[2, 1, 3, 40] = bad
    bad_cube = tmp_path / "bad.mvdc"
    save_cube(dataclasses.replace(cube, samples=samples), str(bad_cube))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from multivital.cli import main; sys.exit(main())",
         "process", "--cube", str(bad_cube),
         "--config", str(workdir["cfg"]), "--out", str(tmp_path / "t.csv")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "processing"  # nothing else on stderr


def test_non_finite_config_number_reports_config_error(workdir, tmp_path):
    """A NaN or Infinity in the config fails before any work, as one JSON error."""
    doc = json.loads(workdir["cfg"].read_text())
    doc["layout"] = {"z_a_m": float("inf"), "positions_m": {"A": [0.0, 0.0]}}
    cfg = tmp_path / "inf.json"
    cfg.write_text(json.dumps(doc))  # writes the bare Infinity token
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from multivital.cli import main; sys.exit(main())",
         "e2e", "--config", str(cfg), "--out", str(tmp_path / "run")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "config"  # nothing else on stderr
    assert "config.layout.z_a_m" in proc.stderr
    assert not (tmp_path / "run" / "cube.mvdc").exists()


def test_short_trace_row_reports_processing_error(workdir, tmp_path):
    """A trace CSV row too short for its columns fails compare as one JSON error."""
    bad = tmp_path / "short.csv"
    bad.write_text("time_s,region,displacement_mm\n0.1\n")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from multivital.cli import main; sys.exit(main())",
         "compare", "--radar", str(bad), "--ref", str(bad),
         "--out", str(tmp_path / "report.json")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 1
    err = json.loads(proc.stderr)  # nothing else on stderr
    assert err["error"] == "processing"
    assert f"{bad}, line 2:" in err["message"]
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("times", [(0.0, 0.0, 0.0), (0.3, 0.2, 0.1, 0.0)],
                         ids=["constant", "decreasing"])
def test_non_increasing_trace_time_reports_processing_error(tmp_path, times):
    """A radar time_s that does not strictly increase fails compare as one
    JSON error naming line 3, the first row that is wrong."""
    radar = tmp_path / "radar.csv"
    ref = tmp_path / "ref.csv"
    radar.write_text("time_s,region,phase_rad,displacement_mm\n" + "".join(
        f"{t!r},A,0.0,{math.sin(i)!r}\n" for i, t in enumerate(times)))
    ref.write_text("time_s,region,phase_rad,displacement_mm\n" + "".join(
        f"{i / 20.0!r},A,0.0,{math.sin(i)!r}\n" for i in range(40)))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from multivital.cli import main; sys.exit(main())",
         "compare", "--radar", str(radar), "--ref", str(ref),
         "--out", str(tmp_path / "report.json")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 1
    err = json.loads(proc.stderr)  # nothing else on stderr
    assert err["error"] == "processing"
    assert f"{radar}, line 3: A time_s" in err["message"]
    assert not (tmp_path / "report.json").exists()


def test_only_scg_commands_import_scipy_signal(workdir, tmp_path):
    """Importing the CLI, simulate and process (with an angle map) leave
    scipy.signal and scipy.integrate unloaded; scg loads scipy.signal."""
    accel = tmp_path / "accel.csv"
    _write_accel_csv(accel)
    script = "\n".join([
        "import json, sys",
        "import multivital, multivital.cli",
        "def loaded():",
        "    return sorted({'scipy.signal', 'scipy.integrate'} & set(sys.modules))",
        "seen = {'import': loaded()}",
        "from multivital.cli import main",
        "cube, cfg, root = sys.argv[1:4]",
        "assert main(['simulate', '--config', cfg, '--out', root + '/c.mvdc']) == 0",
        "seen['simulate'] = loaded()",
        "assert main(['process', '--cube', cube, '--config', cfg, '--out', root + '/t.csv',",
        "             '--angle-map', root + '/am.csv']) == 0",
        "seen['process'] = loaded()",
        "assert main(['scg', '--in', sys.argv[4], '--out', root + '/d.csv']) == 0",
        "seen['scg'] = loaded()",
        "print(json.dumps(seen))",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", script,
         str(workdir["cube"]), str(workdir["cfg"]), str(tmp_path), str(accel)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import"] == seen["simulate"] == seen["process"] == []
    assert "scipy.signal" in seen["scg"]


def test_only_range_transforms_import_scipy(workdir, tmp_path, capsys):
    """Importing the CLI, simulate and a same-rate compare load no scipy
    module at all; process (with an angle map) loads scipy.fft."""
    traces = tmp_path / "traces.csv"
    assert main(["process", "--cube", str(workdir["cube"]),
                 "--config", str(workdir["cfg"]), "--out", str(traces)]) == 0
    capsys.readouterr()
    script = "\n".join([
        "import json, sys",
        "import multivital, multivital.cli",
        "def loaded():",
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))",
        "seen = {'import': loaded()}",
        "from multivital.cli import main",
        "cube, cfg, root, traces = sys.argv[1:5]",
        "assert main(['simulate', '--config', cfg, '--out', root + '/c.mvdc']) == 0",
        "seen['simulate'] = loaded()",
        "assert main(['compare', '--radar', traces, '--ref', traces,",
        "             '--out', root + '/r.json']) == 0",
        "seen['compare'] = loaded()",
        "assert main(['process', '--cube', cube, '--config', cfg, '--out', root + '/t.csv',",
        "             '--angle-map', root + '/am.csv']) == 0",
        "seen['process'] = loaded()",
        "print(json.dumps(seen))",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", script,
         str(workdir["cube"]), str(workdir["cfg"]), str(tmp_path), str(traces)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import"] == seen["simulate"] == seen["compare"] == []
    assert "scipy.fft" in seen["process"]


def test_frame_shorter_than_its_chirp_fails_simulate(workdir, tmp_path, capsys):
    doc = json.loads(workdir["cfg"].read_text())
    doc["chirp"].update(t_frame_s=1e-5, n_frames=8)  # prt_s is 70 us
    cfg = tmp_path / "short-frame.json"
    cfg.write_text(json.dumps(doc))
    cube = tmp_path / "c.mvdc"
    assert main(["simulate", "--config", str(cfg), "--out", str(cube)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)  # one object, nothing else
    assert err["error"] == "config"
    assert "t_frame" in err["message"]
    assert not cube.exists()


def test_retired_scene_mode_key_fails_simulate(workdir, tmp_path, capsys):
    """A config that still carries scene.mode fails as an unknown key,
    before anything is simulated."""
    doc = json.loads(workdir["cfg"].read_text())
    doc["scene"]["mode"] = "exact-path"
    cfg = tmp_path / "mode.json"
    cfg.write_text(json.dumps(doc))
    cube = tmp_path / "c.mvdc"
    assert main(["simulate", "--config", str(cfg), "--out", str(cube)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)  # one object, nothing else
    assert err["error"] == "config"
    assert "unknown key config.scene.mode" in err["message"]
    assert not cube.exists()


def test_non_finite_cube_header_reports_cube_format_error(workdir, tmp_path):
    """An infinite chirp slope in the MVDC header fails as one JSON error."""
    raw = bytearray(workdir["cube"].read_bytes())
    struct.pack_into("<d", raw, 40, float("inf"))  # k_chirp
    bad_cube = tmp_path / "inf.mvdc"
    bad_cube.write_bytes(bytes(raw))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from multivital.cli import main; sys.exit(main())",
         "process", "--cube", str(bad_cube),
         "--config", str(workdir["cfg"]), "--out", str(tmp_path / "t.csv")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "cube-format"  # nothing else on stderr
    assert "chirp.k_chirp" in proc.stderr
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("config", ["sim-single-target", "phantom-five-point"])
def test_cube_with_no_return_reports_processing_error(tmp_path, capsys, config):
    """An all-zero cube has no subject to locate: process fails as a
    processing error and writes no traces."""
    cfg = load_run_config(config)
    chirp = dataclasses.replace(cfg.chirp, n_frames=4)
    samples = np.zeros((4, cfg.geometry.n_tx, cfg.geometry.n_rx, chirp.n_adc), np.complex64)
    cube = tmp_path / "zero.mvdc"
    save_cube(RawDataCube(samples=samples, chirp=chirp, geometry=cfg.geometry), str(cube))
    out = tmp_path / "traces.csv"
    assert main(["process", "--cube", str(cube), "--config", config, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "processing"
    assert "no return" in err["message"]
    assert not out.exists()


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


@pytest.mark.parametrize("bad,match", [
    ("nan-last-frame", "not finite"), ("inf-middle-chunk", "not finite"),
    ("all-zero", "no return"),
])
def test_bad_cube_over_several_chunks_reports_processing_error(
    workdir, tmp_path, monkeypatch, capsys, bad, match,
):
    """With the frame chunks at 6, 6 and 4 of 16 frames, a NaN in the last
    frame or an inf in the middle chunk (both outside the location subset)
    is refused after the column pass over all three chunks and a second
    read up to the bad chunk to name the cause, and a cube with no return
    after the full fold its all-zero subset falls back to. Each exits 1 with
    the one processing-error line and writes no traces."""
    cfg = load_run_config(str(workdir["cfg"]))
    cube = load_cube(str(workdir["cube"]), geometry=cfg.geometry)
    samples = cube.samples.copy()
    if bad == "nan-last-frame":
        samples[15, 11, 15, 255] = np.nan
    elif bad == "inf-middle-chunk":
        samples[8, 0, 0, 0] = np.inf
    else:
        samples[:] = 0
    assert not {8, 15} & set(pipeline._subset_frames(16))
    path = tmp_path / "bad.mvdc"
    save_cube(dataclasses.replace(cube, samples=samples), str(path))
    frame_bytes = 8 * cfg.pipeline.n_fft_range * cfg.geometry.n_tx * cfg.geometry.n_rx
    monkeypatch.setattr(pipeline, "_CHUNK_BYTES", 6 * frame_bytes)
    frames = _recording_chunks(monkeypatch)
    out = tmp_path / "t.csv"
    assert main(["process", "--cube", str(path), "--config", str(workdir["cfg"]),
                 "--out", str(out)]) == 1
    cause_read = {"nan-last-frame": [6, 6, 4], "inf-middle-chunk": [6, 6], "all-zero": []}
    assert frames == [6, 6, 4] + cause_read[bad]
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "processing" and match in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_frame_outside_the_subset_fails_process(workdir, tmp_path, bad):
    """A NaN or inf in a frame the subject is not located from still
    reaches the subject column: process exits 1 with exactly one JSON
    object on stderr, names the cause and writes no trace file."""
    geometry = load_run_config(str(workdir["cfg"])).geometry
    cube = load_cube(str(workdir["cube"]), geometry=geometry)
    frame = 12
    assert frame not in pipeline._subset_frames(16)
    samples = cube.samples.copy()
    samples[frame, 4, 9, 100] = bad
    bad_cube = tmp_path / "bad.mvdc"
    save_cube(dataclasses.replace(cube, samples=samples), str(bad_cube))
    out = tmp_path / "t.csv"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from multivital.cli import main; sys.exit(main())",
         "process", "--cube", str(bad_cube),
         "--config", str(workdir["cfg"]), "--out", str(out)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 1
    (line,) = proc.stderr.splitlines()
    err = json.loads(line)
    assert err["error"] == "processing"
    assert err["message"] == "range profile is not finite: the cube holds NaN or inf samples"
    assert not out.exists()


def _peak_rise(argv: list[str]) -> int:
    """Bytes by which main(argv) raises the peak RSS of a fresh interpreter.

    The child reads its own address space's high-water mark (VmHWM) before
    and after the command: ru_maxrss would start from this test process's
    RSS, carried over the fork and exec. numpy and scipy.fft are loaded
    before the first reading, so the rise is the command's data.
    """
    script = "\n".join([
        "import json, sys",
        "import numpy, scipy.fft",
        "from multivital.cli import main",
        "def peak():",
        "    with open('/proc/self/status') as fh:",
        "        return next(int(line.split()[1]) * 1024 for line in fh",
        "                    if line.startswith('VmHWM:'))",
        "before = peak()",
        "rc = main(json.loads(sys.argv[1]))",
        "print(json.dumps({'rc': rc, 'rise': peak() - before}))",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["rc"] == 0
    return got["rise"]


_BIG_CUBE = {  # 540 frames of 12 x 16 x 256 samples: a 203 MiB cube
    "chirp": {"fc_hz": 77.0e9, "prt_s": 70.0e-6, "t_frame_s": 0.05, "n_adc": 256,
              "fs_hz": 5.0e6, "k_chirp_hz_per_s": 65.998e12, "n_frames": 540},
    "geometry": "ti-cascade",
    "scene": {"points": [{"position_m": [0.0, 0.5, 0.0]}]},
    "pipeline": {"n_fft_range": 256, "n_fft_azimuth": 256},
}


@pytest.fixture(scope="module")
def big_cube(tmp_path_factory):
    """A 203 MiB cube, simulated in a fresh interpreter, with its config and
    the peak RSS rise of that simulate."""
    root = tmp_path_factory.mktemp("big")
    cfg, cube = root / "big.json", root / "big.mvdc"
    cfg.write_text(json.dumps(_BIG_CUBE))
    rise = _peak_rise(["simulate", "--config", str(cfg), "--out", str(cube)])
    assert cube.stat().st_size >= 200 * 2**20
    return {"root": root, "cfg": cfg, "cube": cube, "simulate_rise": rise}


@pytest.mark.memory
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_simulate_peak_memory_is_one_chunk(big_cube):
    """simulate writes its frames a chunk of at most pipeline._CHUNK_BYTES
    at a time: the peak rises by at most half the cube. Holding the whole
    cube took ~1x."""
    assert big_cube["simulate_rise"] <= 0.5 * big_cube["cube"].stat().st_size


@pytest.mark.memory
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_process_peak_memory_is_the_cube_plus_one_chunk(big_cube):
    """In a fresh interpreter, process on a 203 MiB cube raises the peak RSS
    by at most 1.5x the cube. A full range cube beside the loaded one took
    ~2x."""
    cube_bytes = big_cube["cube"].stat().st_size
    rise = _peak_rise(["process", "--cube", str(big_cube["cube"]),
                       "--config", str(big_cube["cfg"]),
                       "--out", str(big_cube["root"] / "t.csv")])
    assert rise <= 1.5 * cube_bytes


@pytest.mark.memory
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_process_angle_map_peak_memory_is_one_chunk(big_cube):
    """process --angle-map maps the cube read-only and gives back each
    frame chunk's pages once both range passes are done with it: the peak
    rises by at most half the cube. Reading the whole cube in took ~1x."""
    root = big_cube["root"]
    rise = _peak_rise(["process", "--cube", str(big_cube["cube"]),
                       "--config", str(big_cube["cfg"]), "--out", str(root / "t.csv"),
                       "--angle-map", str(root / "map.csv")])
    assert rise <= 0.5 * big_cube["cube"].stat().st_size


@pytest.mark.memory
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_simulate_peak_memory_is_within_two_blocks(big_cube):
    """simulate raises the peak by at most two 8 MiB blocks
    (pipeline._CHUNK_BYTES): its chunk of frames and little else. With
    32 MiB chunks it rose 32.2 MiB."""
    assert big_cube["simulate_rise"] <= 2 * pipeline._CHUNK_BYTES <= 2 * (8 << 20)


@pytest.mark.memory
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_process_angle_map_peak_memory_is_within_three_blocks(big_cube):
    """process --angle-map on the 203 MiB cube raises the peak by at most
    three 8 MiB blocks (pipeline._CHUNK_BYTES): every frame pass holds one
    block of samples or bins, and the angle map focuses its grid a block
    at a time. With 32 MiB chunks and the grid focused at once it rose
    52.7 MiB."""
    root = big_cube["root"]
    rise = _peak_rise(["process", "--cube", str(big_cube["cube"]),
                       "--config", str(big_cube["cfg"]), "--out", str(root / "t.csv"),
                       "--angle-map", str(root / "map.csv")])
    assert rise <= 3 * pipeline._CHUNK_BYTES <= 3 * (8 << 20)


def test_process_writes_the_angle_map(workdir, tmp_path, capsys):
    out = tmp_path / "traces.csv"
    amap = tmp_path / "map.csv"
    rc = main([
        "process", "--cube", str(workdir["cube"]),
        "--config", str(workdir["cfg"]), "--out", str(out), "--angle-map", str(amap),
    ])
    assert rc == 0
    lines = amap.read_text().splitlines()
    assert lines[0].startswith("azimuth_deg\\elevation_deg,")
    assert len(lines) > 10
    first_row = lines[1].split(",")
    float(first_row[0])  # azimuth in degrees
    assert all(float(v) >= 0.0 for v in first_row[1:])  # power
    capsys.readouterr()


def test_angle_map_range_transforms_frame_zero_only(workdir, tmp_path, monkeypatch, capsys):
    """process --angle-map range-transforms the run's location subset (a
    gathered copy of 2 of the 16 frames), then a one-frame view of the
    same loaded cube for the map."""
    cubes, loaded = [], []
    range_fft = pipeline.range_fft
    load = cli.load_cube

    def recording(cube, n_fft_range):
        cubes.append(cube)
        return range_fft(cube, n_fft_range)

    def loading(*args, **kwargs):
        loaded.append(load(*args, **kwargs))
        return loaded[-1]

    monkeypatch.setattr(pipeline, "range_fft", recording)
    monkeypatch.setattr(cli, "load_cube", loading)
    assert main([
        "process", "--cube", str(workdir["cube"]), "--config", str(workdir["cfg"]),
        "--out", str(tmp_path / "traces.csv"), "--angle-map", str(tmp_path / "map.csv"),
    ]) == 0
    (cube,) = loaded
    assert [c.samples.shape[0] for c in cubes] == [2, 1]
    assert np.array_equal(cubes[0].samples, cube.samples[pipeline._subset_frames(16)])
    assert cubes[1].chirp.n_frames == 1
    assert not np.shares_memory(cubes[0].samples, cube.samples)  # the subset is a copy
    assert np.shares_memory(cubes[1].samples, cube.samples)  # the map's frame is a view
    capsys.readouterr()


def test_process_builds_the_steering_once(workdir, tmp_path, monkeypatch, capsys):
    """process --angle-map makes one ULA selection, one phase table and one
    Beamformer: the map steers with the run's."""
    calls = {"table": 0, "build": 0, "ula": 0}

    def counting(fn, key):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    for module in (pipeline, doa):
        monkeypatch.setattr(module, "build_phase_error_table",
                            counting(module.build_phase_error_table, "table"))
    monkeypatch.setattr(doa.Beamformer, "build", counting(doa.Beamformer.build, "build"))
    monkeypatch.setattr(pipeline, "select_azimuth_ula",
                        counting(pipeline.select_azimuth_ula, "ula"))
    assert main([
        "process", "--cube", str(workdir["cube"]), "--config", str(workdir["cfg"]),
        "--out", str(tmp_path / "traces.csv"), "--angle-map", str(tmp_path / "map.csv"),
    ]) == 0
    assert calls == {"table": 1, "build": 1, "ula": 1}
    capsys.readouterr()


def test_process_makes_one_azimuth_ula_selection(workdir, tmp_path, capsys):
    """The config check and the pipeline share one cached selection: a
    process run selects the azimuth ULA once, not once for each."""
    select_azimuth_ula.cache_clear()
    assert main(["process", "--cube", str(workdir["cube"]), "--config", str(workdir["cfg"]),
                 "--out", str(tmp_path / "traces.csv")]) == 0
    info = select_azimuth_ula.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    capsys.readouterr()


@pytest.mark.parametrize("key,value", [("n_fft_range", 128), ("n_fft_azimuth", 64)])
def test_short_fft_is_rejected_before_simulating(workdir, tmp_path, key, value):
    """An FFT shorter than n_adc (256) or than the cascade's 86-element
    azimuth ULA fails e2e at config load, before a cube is written."""
    doc = json.loads(workdir["cfg"].read_text())
    doc["pipeline"][key] = value
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "multivital",
         "e2e", "--config", str(cfg), "--out", str(tmp_path / "run")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 1
    err = json.loads(proc.stderr)  # nothing else on stderr
    assert err["error"] == "config"
    assert f"config.pipeline.{key}" in err["message"]
    assert not (tmp_path / "run" / "cube.mvdc").exists()


def test_scg_subcommand(workdir, tmp_path, capsys):
    accel = tmp_path / "accel.csv"
    out = tmp_path / "disp.csv"
    _write_accel_csv(accel)
    assert main(["scg", "--in", str(accel), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "no displacement rows written"
    assert set(rows[0]) == {"time_s", "region", "axis", "displacement_mm", "ecg"}
    assert {r["axis"] for r in rows} == {"x", "y", "z"}
    assert {r["region"] for r in rows} == {"A"}
    float(rows[0]["displacement_mm"])
    # the table reads back under the shared trace schema, keyed region.axis
    table = read_trace_table(str(out))
    assert set(table) == {"A.x", "A.y", "A.z"}
    capsys.readouterr()


def test_scg_output_matches_csv_writer(tmp_path, capsys):
    # The f-string writer gives the bytes csv.writer gives, including a
    # region name that needs quoting and the shared ecg column.
    accel = tmp_path / "accel.csv"
    out = tmp_path / "disp.csv"
    _write_accel_csv(accel, region='R,"1')
    assert main(["scg", "--in", str(accel), "--out", str(out)]) == 0
    channels, ecg, _ = load_scg_csv(str(accel))
    traces = [tr for ch in channels for tr in scg_to_displacement(ch)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["time_s", "region", "axis", "displacement_mm", "ecg"])
    for tr in traces:
        for i in range(len(tr.displacement)):
            writer.writerow([repr(i / tr.fs), tr.region, tr.axis,
                             repr(float(tr.displacement[i])), repr(float(ecg[i]))])
    assert out.read_bytes() == buf.getvalue().encode()
    table = read_trace_table(str(out))
    assert np.array_equal(table['R,"1.y']["displacement_mm"], traces[1].displacement)
    capsys.readouterr()


def test_scg_output_is_written_one_trace_at_a_time(tmp_path, monkeypatch, capsys):
    """Once the traces exist, writing 15 of them takes less than twice the
    file's size; holding every row as text, joined and encoded took ~4x."""
    t = np.arange(int(10.0 * RATE)) / RATE
    header = ["time_s"] + [f"{r}_a{ax}" for r in "ABCDE" for ax in "xyz"] + ["ecg"]
    cols = [t] + [0.1 * np.sin(2 * np.pi * (1.0 + 0.1 * k) * t) for k in range(15)]
    cols.append(np.zeros_like(t))
    accel = tmp_path / "accel.csv"
    accel.write_text(",".join(header) + "\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in np.column_stack(cols).tolist()))
    out = tmp_path / "disp.csv"
    held = []

    def calibrate_then_reset_peak(*args, **kwargs):
        traces = scg_to_displacement(*args, **kwargs)
        tracemalloc.reset_peak()
        held.append(tracemalloc.get_traced_memory()[0])
        return traces

    monkeypatch.setattr("multivital.cli.scg_to_displacement", calibrate_then_reset_peak)
    tracemalloc.start()
    try:
        assert main(["scg", "--in", str(accel), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held[-1] < 2 * out.stat().st_size
    capsys.readouterr()


@pytest.mark.parametrize("bad", ["nan-cell", "constant-time"])
def test_bad_scg_input_reports_processing_error(tmp_path, bad):
    """A nan cell, or a constant time_s column, fails scg as one JSON error
    naming line 3, the first row that is wrong."""
    accel = tmp_path / "accel.csv"
    _write_accel_csv(accel)
    rows = accel.read_text().splitlines()
    if bad == "nan-cell":
        cells = rows[2].split(",")
        cells[2] = "nan"
        rows[2] = ",".join(cells)
    else:
        rows[1:] = ["0.0," + row.split(",", 1)[1] for row in rows[1:]]
    accel.write_text("\n".join(rows) + "\n")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from multivital.cli import main; sys.exit(main())",
         "scg", "--in", str(accel), "--out", str(tmp_path / "disp.csv")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 1
    err = json.loads(proc.stderr)  # nothing else on stderr
    assert err["error"] == "processing"
    assert f"{accel}, line 3:" in err["message"]
    assert not (tmp_path / "disp.csv").exists()


def test_scg_without_acceleration_columns_reports_processing_error(tmp_path, capsys):
    """A time_s,ecg recording has no channel to integrate: scg fails as one
    JSON error naming the file, and no output is written."""
    accel = tmp_path / "ecg-only.csv"
    out = tmp_path / "disp.csv"
    accel.write_text("time_s,ecg\n" + "".join(f"{i / RATE!r},0.0\n" for i in range(8)))
    capsys.readouterr()
    assert main(["scg", "--in", str(accel), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)  # one object, nothing else
    assert err["error"] == "processing"
    assert str(accel) in err["message"]
    assert not out.exists()


def test_scg_recording_too_slow_for_cutoff_reports_config_error(tmp_path, capsys):
    """A recording sampled at 1 Hz puts the 0.5 Hz high-pass at Nyquist:
    scg fails as one JSON config error, and no output is written."""
    accel = tmp_path / "accel.csv"
    out = tmp_path / "disp.csv"
    accel.write_text("time_s,A_ax,A_ay,A_az,ecg\n" + "".join(
        f"{float(i)!r},{0.1 * math.sin(i)!r},0.0,0.0,0.0\n" for i in range(30)))
    capsys.readouterr()
    assert main(["scg", "--in", str(accel), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)  # one object, nothing else
    assert err["error"] == "config"
    assert "cutoff" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("cutoff", ["0", "nan", "inf", str(RATE / 2)])
def test_scg_bad_cutoff_reports_config_error(tmp_path, capsys, monkeypatch, cutoff):
    """A high-pass cutoff outside (0, fs/2) fails scg as one JSON config
    error, and no output is written."""
    monkeypatch.setattr(scg, "CUTOFF_HZ", float(cutoff))
    accel = tmp_path / "accel.csv"
    out = tmp_path / "disp.csv"
    _write_accel_csv(accel)
    capsys.readouterr()
    assert main(["scg", "--in", str(accel), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)  # one object, nothing else
    assert err["error"] == "config"
    assert "cutoff" in err["message"]
    assert not out.exists()


def test_compare_self_is_perfect(workdir, tmp_path, capsys):
    traces = tmp_path / "traces.csv"
    report = tmp_path / "report.json"
    assert main(["process", "--cube", str(workdir["cube"]),
                 "--config", str(workdir["cfg"]), "--out", str(traces)]) == 0
    rc = main(["compare", "--radar", str(traces), "--ref", str(traces),
               "--out", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    entry = doc["regions"]["A"]
    assert entry["rho"] == 1.0
    assert entry["lag_samples"] == 0
    assert entry["delta_f_max_hz"] == 0.0
    assert "lowest rho" in capsys.readouterr().out


def test_compare_pairs_region_with_scg_axes(workdir, tmp_path, capsys):
    traces = tmp_path / "traces.csv"
    accel = tmp_path / "accel.csv"
    disp = tmp_path / "disp.csv"
    report = tmp_path / "report.json"
    assert main(["process", "--cube", str(workdir["cube"]),
                 "--config", str(workdir["cfg"]), "--out", str(traces)]) == 0
    _write_accel_csv(accel)
    assert main(["scg", "--in", str(accel), "--out", str(disp)]) == 0
    rc = main(["compare", "--radar", str(traces), "--ref", str(disp),
               "--out", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert set(doc["regions"]) == {"A.x", "A.y", "A.z"}
    for entry in doc["regions"].values():
        assert 0.0 <= entry["rho"] <= 1.0
    capsys.readouterr()


def test_compare_without_overlap_fails(workdir, tmp_path, capsys):
    traces = tmp_path / "traces.csv"
    other = tmp_path / "other.csv"
    report = tmp_path / "report.json"
    assert main(["process", "--cube", str(workdir["cube"]),
                 "--config", str(workdir["cfg"]), "--out", str(traces)]) == 0
    # same schema, disjoint region id
    other.write_text(traces.read_text().replace(",A,", ",P,"))
    rc = main(["compare", "--radar", str(traces), "--ref", str(other),
               "--out", str(report)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "processing"
    assert "overlap" in err["message"]


def test_compare_error_names_its_pair(tmp_path, capsys):
    """A pair that cannot be scored fails compare as one JSON error whose
    message starts with the pair's key."""
    radar = tmp_path / "radar.csv"
    ref = tmp_path / "ref.csv"
    report = tmp_path / "report.json"
    header = "time_s,region,phase_rad,displacement_mm\n"
    wave = [math.sin(2 * math.pi * i / 20.0) for i in range(100)]
    radar.write_text(header + "".join(
        f"{i / 20.0!r},{rid},0.0,{d!r}\n" for rid, scale in (("A", 1.0), ("P", 0.0))
        for i, d in enumerate(w * scale for w in wave)))
    ref.write_text(header + "".join(
        f"{i / 20.0!r},{rid},0.0,{d!r}\n" for rid in "AP" for i, d in enumerate(wave)))
    capsys.readouterr()
    assert main(["compare", "--radar", str(radar), "--ref", str(ref),
                 "--out", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)  # one object, nothing else
    assert err["error"] == "processing"
    assert err["message"].startswith("P: constant input")
    assert not report.exists()


@pytest.mark.parametrize("radar_step,ref_step", [(1 / 20.0, 1e-6), (1e-320, 1 / 20.0)],
                         ids=["20Hz-against-1MHz", "subnormal-steps"])
def test_compare_rate_extremes_report_processing_error(tmp_path, capsys, radar_step, ref_step):
    """A rate ratio that rounds to 0 at the resampler's denominators, or
    time_s steps that imply an infinite rate, fail compare as one JSON error."""
    radar = tmp_path / "radar.csv"
    ref = tmp_path / "ref.csv"
    report = tmp_path / "report.json"
    for path, step in ((radar, radar_step), (ref, ref_step)):
        path.write_text("time_s,region,phase_rad,displacement_mm\n" + "".join(
            f"{i * step!r},A,0.0,{math.sin(i)!r}\n" for i in range(40)))
    capsys.readouterr()
    assert main(["compare", "--radar", str(radar), "--ref", str(ref),
                 "--out", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "processing"  # one object, nothing else
    assert not report.exists()


def test_compare_scores_like_e2e(tmp_path, capsys):
    """compare of e2e's traces against its truth gives e2e's own scores:
    both use the one fixed heart band, so no command can score a trace
    differently. compare reads the rate off the time column, 20 Hz to
    within rounding, which moves delta_f by far less than 1e-12 Hz."""
    bundled = resources.files("multivital") / "configs" / "phantom-five-point.json"
    doc = json.loads(bundled.read_text())
    doc["chirp"].update(n_frames=100, n_adc=64)
    doc["pipeline"]["n_fft_range"] = 64
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["e2e", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["compare", "--radar", str(out / "traces.csv"), "--ref", str(out / "truth.csv"),
                 "--out", str(tmp_path / "compare.json")]) == 0
    scored = json.loads((out / "report.json").read_text())["regions"]
    compared = json.loads((tmp_path / "compare.json").read_text())["regions"]
    assert list(compared) == list(scored) == ["A", "P", "T", "E", "M"]
    for rid, got in compared.items():
        want = scored[rid]
        assert got["rho"] == want["rho"]
        assert got["lag_samples"] == want["lag_samples"]
        assert got["delta_f_max_hz"] == pytest.approx(want["delta_f_max_hz"], rel=0, abs=1e-12)
        assert got["rate_hz"] == pytest.approx(want["rate_hz"], rel=1e-9)
    capsys.readouterr()


def test_e2e_writes_expected_files(workdir, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["e2e", "--config", str(workdir["cfg"]), "--out", str(out)])
    assert rc == 0
    for name in ("cube.mvdc", "traces.csv", "truth.csv", "report.json"):
        assert (out / name).exists(), name
    doc = json.loads((out / "report.json").read_text())
    assert set(doc["subject"]) == {
        "range_bin", "range_m", "runner_up_ratio", "located_frames",
        "azimuth_peak_deg", "elevation_peak_deg",
    }
    # one return, located from the subset's one frame in each block of 8
    assert doc["subject"]["runner_up_ratio"] < 0.3
    assert doc["subject"]["located_frames"] == len(pipeline._subset_frames(16))
    entry = doc["regions"]["A"]
    for key in ("dominant_frequency_hz", "peak_to_peak_phase_rad",
                "peak_to_peak_displacement_mm", "rho", "lag_samples",
                "delta_f_max_hz", "rate_hz"):
        assert key in entry, key
    # 0.5 m boresight target: range within a bin, high truth correlation
    assert abs(doc["subject"]["range_m"] - 0.5) < 0.05
    assert entry["rho"] > 0.9
    assert "wrote" in capsys.readouterr().out

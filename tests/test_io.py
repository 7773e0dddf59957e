import json
import struct

import numpy as np
import pytest

from multivital.errors import CubeFormatError, ProcessingError
from multivital.geometry import ArrayGeometry
from multivital.io import (
    export_angle_map,
    export_traces,
    load_cube,
    read_trace_table,
    save_cube,
    trace_rate_hz,
    write_report,
)
from multivital.doa import AngleMap
from multivital.simulate import RawDataCube
from multivital.vitals import DisplacementTrace

WL = 3.893409e-3


def _small_cube(table2, cascade, n_frames=2, seed=42):
    import dataclasses
    cfg = dataclasses.replace(table2, n_frames=n_frames)
    rng = np.random.default_rng(seed)
    samples = (rng.standard_normal((n_frames, 12, 16, 256))
               + 1j * rng.standard_normal((n_frames, 12, 16, 256))
               ).astype(np.complex64)
    return RawDataCube(samples=samples, chirp=cfg, geometry=cascade, seed=seed)


def test_cube_round_trip(tmp_path, table2, cascade):
    cube = _small_cube(table2, cascade)
    path = str(tmp_path / "cube.mvdc")
    save_cube(cube, path)
    back = load_cube(path)
    assert np.array_equal(back.samples, cube.samples)
    assert back.seed == 42
    assert back.geometry == cascade
    c = back.chirp
    assert (c.fc, c.fs, c.k_chirp) == (table2.fc, table2.fs, table2.k_chirp)
    assert (c.prt, c.t_frame) == (table2.prt, table2.t_frame)
    assert c.n_adc == 256
    assert c.n_frames == 2


def test_cube_header_layout(tmp_path, table2, cascade):
    cube = _small_cube(table2, cascade)
    path = str(tmp_path / "cube.mvdc")
    save_cube(cube, path)
    raw = open(path, "rb").read()
    assert raw[:4] == b"MVDC"
    header = struct.unpack_from("<4s5I5dQ", raw)
    assert header[1] == 1  # version
    assert header[2:6] == (2, 12, 16, 256)
    assert len(raw) == 72 + 2 * 12 * 16 * 256 * 8


def test_cube_bad_magic(tmp_path, table2, cascade):
    cube = _small_cube(table2, cascade)
    path = str(tmp_path / "cube.mvdc")
    save_cube(cube, path)
    raw = bytearray(open(path, "rb").read())
    raw[:4] = b"NOPE"
    (tmp_path / "bad.mvdc").write_bytes(bytes(raw))
    with pytest.raises(CubeFormatError, match="magic"):
        load_cube(str(tmp_path / "bad.mvdc"))


def test_cube_bad_version(tmp_path, table2, cascade):
    cube = _small_cube(table2, cascade)
    path = str(tmp_path / "cube.mvdc")
    save_cube(cube, path)
    raw = bytearray(open(path, "rb").read())
    raw[4:8] = struct.pack("<I", 9)
    (tmp_path / "bad.mvdc").write_bytes(bytes(raw))
    with pytest.raises(CubeFormatError, match="version"):
        load_cube(str(tmp_path / "bad.mvdc"))


def test_cube_truncation(tmp_path, table2, cascade):
    cube = _small_cube(table2, cascade)
    path = str(tmp_path / "cube.mvdc")
    save_cube(cube, path)
    raw = open(path, "rb").read()
    (tmp_path / "short.mvdc").write_bytes(raw[:40])
    with pytest.raises(CubeFormatError, match="header"):
        load_cube(str(tmp_path / "short.mvdc"))
    (tmp_path / "chopped.mvdc").write_bytes(raw[:-17])
    with pytest.raises(CubeFormatError, match="payload"):
        load_cube(str(tmp_path / "chopped.mvdc"))


def test_cube_trailing_bytes_rejected(tmp_path, table2, cascade):
    cube = _small_cube(table2, cascade)
    path = tmp_path / "cube.mvdc"
    save_cube(cube, str(path))
    (tmp_path / "long.mvdc").write_bytes(path.read_bytes() + b"\0" * 8)
    with pytest.raises(CubeFormatError, match="payload"):
        load_cube(str(tmp_path / "long.mvdc"))


def test_loaded_samples_are_writable_contiguous_complex64(tmp_path, table2, cascade):
    path = str(tmp_path / "cube.mvdc")
    save_cube(_small_cube(table2, cascade), path)
    samples = load_cube(path).samples
    assert samples.dtype == np.complex64
    assert samples.flags.c_contiguous and samples.flags.writeable
    samples[0, 0, 0, 0] = 1j  # the cube owns its buffer


def test_saved_cube_is_header_then_sample_bytes(tmp_path, table2, cascade):
    """The file is the packed header followed by the samples' own bytes."""
    cube = _small_cube(table2, cascade)
    path = tmp_path / "cube.mvdc"
    save_cube(cube, str(path))
    c = cube.chirp
    header = struct.pack("<4s5I5dQ", b"MVDC", 1, *cube.samples.shape,
                         c.fc, c.fs, c.k_chirp, c.prt, c.t_frame, cube.seed)
    assert path.read_bytes() == header + cube.samples.astype("<c8").tobytes()


def test_cube_geometry_mismatch(tmp_path, table2, cascade):
    cube = _small_cube(table2, cascade)
    path = str(tmp_path / "cube.mvdc")
    save_cube(cube, path)
    other = ArrayGeometry(tx_elements=((0, 0),), rx_elements=((0, 0), (1, 0)))
    with pytest.raises(CubeFormatError, match="geometry"):
        load_cube(path, geometry=other)


def test_trace_export_round_trip(tmp_path):
    t = np.arange(40) / 20.0
    traces = [
        DisplacementTrace.from_phase("A", 0.5 * np.sin(2 * np.pi * t), WL, 20.0),
        DisplacementTrace.from_phase("P", 0.4 * np.cos(2 * np.pi * t), WL, 20.0),
    ]
    path = str(tmp_path / "traces.csv")
    export_traces(traces, path)
    head = open(path).readline().strip()
    assert head == "time_s,region,phase_rad,displacement_mm"
    table = read_trace_table(path)
    assert list(table) == ["A", "P"]
    assert np.array_equal(table["A"]["phase_rad"], traces[0].phase)
    assert np.array_equal(table["A"]["displacement_mm"], traces[0].displacement)
    assert np.array_equal(table["A"]["time_s"], traces[0].times)
    assert trace_rate_hz(table["P"]["time_s"]) == pytest.approx(20.0)


def test_trace_export_uses_lf_endings(tmp_path):
    t = np.arange(4) / 20.0
    path = str(tmp_path / "traces.csv")
    export_traces(
        [DisplacementTrace.from_phase("A", np.sin(t), WL, 20.0)], path
    )
    raw = open(path, "rb").read()
    assert b"\r" not in raw


def test_trace_export_empty_raises(tmp_path):
    with pytest.raises(ProcessingError):
        export_traces([], str(tmp_path / "traces.csv"))


def test_read_trace_table_scg_schema(tmp_path):
    path = tmp_path / "scg.csv"
    path.write_text(
        "time_s,region,axis,displacement_mm,ecg\n"
        "0.0,A,x,0.1,0.9\n0.05,A,x,0.2,0.8\n"
        "0.0,A,y,0.3,0.9\n0.05,A,y,0.4,0.8\n"
    )
    table = read_trace_table(str(path))
    assert set(table) == {"A.x", "A.y"}
    assert np.allclose(table["A.x"]["displacement_mm"], [0.1, 0.2])


def test_read_trace_table_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time_s,region\n0.0,A\n")
    with pytest.raises(ProcessingError):
        read_trace_table(str(bad))
    empty = tmp_path / "empty.csv"
    empty.write_text("time_s,region,phase_rad,displacement_mm\n")
    with pytest.raises(ProcessingError):
        read_trace_table(str(empty))
    nonnum = tmp_path / "nonnum.csv"
    nonnum.write_text(
        "time_s,region,phase_rad,displacement_mm\n0.0,A,x,0.1\n"
    )
    with pytest.raises(ProcessingError):
        read_trace_table(str(nonnum))


def test_export_angle_map(tmp_path):
    am = AngleMap(
        power=np.arange(6, dtype=np.float64).reshape(3, 2),
        azimuth_grid=np.deg2rad([-10.0, 0.0, 10.0]),
        elevation_grid=np.deg2rad([-5.0, 5.0]),
    )
    path = str(tmp_path / "map.csv")
    export_angle_map(am, path)
    lines = open(path).read().strip().split("\n")
    assert len(lines) == 4
    assert lines[0].split(",")[1] == repr(-5.0)
    row = lines[2].split(",")
    assert float(row[0]) == pytest.approx(0.0)
    assert [float(v) for v in row[1:]] == [2.0, 3.0]


def test_write_report(tmp_path):
    path = str(tmp_path / "report.json")
    write_report({"regions": {"A": {"rho": 1.0}}}, path)
    doc = json.loads(open(path).read())
    assert doc["regions"]["A"]["rho"] == 1.0

import csv
import io
import json
import math
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multivital.errors import ConfigError, CubeFormatError, MultivitalError, ProcessingError
from multivital.geometry import ArrayGeometry
from multivital.io import (
    export_angle_map,
    export_scg_traces,
    export_traces,
    load_cube,
    load_scg_csv,
    read_trace_table,
    save_cube,
    trace_rate_hz,
    write_report,
)
from multivital.doa import AngleMap
from multivital.scg import ScgTrace
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
    back = load_cube(path, cascade)
    assert np.array_equal(back.samples, cube.samples)
    assert back.seed == 42
    assert back.geometry == cascade
    c = back.chirp
    assert (c.fc, c.fs, c.k_chirp) == (table2.fc, table2.fs, table2.k_chirp)
    assert (c.prt, c.t_frame) == (table2.prt, table2.t_frame)
    assert c.n_adc == 256
    assert c.n_frames == 2


def test_save_cube_validates_the_cube(tmp_path, table2, cascade):
    # A cube built by hand and never validated used to die in the MVDC
    # header with a bare TypeError.
    import dataclasses
    cube = dataclasses.replace(_small_cube(table2, cascade), seed=1.5)
    with pytest.raises(ConfigError, match="cube seed must be an integer, got 1.5"):
        save_cube(cube, str(tmp_path / "cube.mvdc"))
    assert list(tmp_path.iterdir()) == []


def test_cube_header_layout(tmp_path, table2, cascade):
    cube = _small_cube(table2, cascade)
    path = str(tmp_path / "cube.mvdc")
    save_cube(cube, path)
    raw = Path(path).read_bytes()
    assert raw[:4] == b"MVDC"
    header = struct.unpack_from("<4s5I5dQ", raw)
    assert header[1] == 1  # version
    assert header[2:6] == (2, 12, 16, 256)
    assert len(raw) == 72 + 2 * 12 * 16 * 256 * 8


def test_cube_bad_magic(tmp_path, table2, cascade):
    cube = _small_cube(table2, cascade)
    path = str(tmp_path / "cube.mvdc")
    save_cube(cube, path)
    raw = bytearray(Path(path).read_bytes())
    raw[:4] = b"NOPE"
    (tmp_path / "bad.mvdc").write_bytes(bytes(raw))
    with pytest.raises(CubeFormatError, match="magic"):
        load_cube(str(tmp_path / "bad.mvdc"), cascade)


def test_cube_bad_version(tmp_path, table2, cascade):
    cube = _small_cube(table2, cascade)
    path = str(tmp_path / "cube.mvdc")
    save_cube(cube, path)
    raw = bytearray(Path(path).read_bytes())
    raw[4:8] = struct.pack("<I", 9)
    (tmp_path / "bad.mvdc").write_bytes(bytes(raw))
    with pytest.raises(CubeFormatError, match="version"):
        load_cube(str(tmp_path / "bad.mvdc"), cascade)


def test_cube_truncation(tmp_path, table2, cascade):
    cube = _small_cube(table2, cascade)
    path = str(tmp_path / "cube.mvdc")
    save_cube(cube, path)
    raw = Path(path).read_bytes()
    (tmp_path / "short.mvdc").write_bytes(raw[:40])
    with pytest.raises(CubeFormatError, match="header"):
        load_cube(str(tmp_path / "short.mvdc"), cascade)
    (tmp_path / "chopped.mvdc").write_bytes(raw[:-17])
    with pytest.raises(CubeFormatError, match="payload"):
        load_cube(str(tmp_path / "chopped.mvdc"), cascade)


def test_cube_trailing_bytes_rejected(tmp_path, table2, cascade):
    cube = _small_cube(table2, cascade)
    path = tmp_path / "cube.mvdc"
    save_cube(cube, str(path))
    (tmp_path / "long.mvdc").write_bytes(path.read_bytes() + b"\0" * 8)
    with pytest.raises(CubeFormatError, match="payload"):
        load_cube(str(tmp_path / "long.mvdc"), cascade)


def test_loaded_samples_are_a_read_only_contiguous_complex64_view(tmp_path, table2, cascade):
    """Loaded samples are a read-only view of the mapped file: equal to the
    saved cube, refusing writes, and writable once copied."""
    path = str(tmp_path / "cube.mvdc")
    cube = _small_cube(table2, cascade)
    save_cube(cube, path)
    samples = load_cube(path, cascade).samples
    assert samples.dtype == np.complex64 and samples.flags.c_contiguous
    assert np.array_equal(samples, cube.samples)
    with pytest.raises(ValueError):
        samples[0, 0, 0, 0] = 1j
    copy = samples.copy()
    copy[0, 0, 0, 0] = 1j
    assert copy[0, 0, 0, 0] == 1j and samples[0, 0, 0, 0] == cube.samples[0, 0, 0, 0]


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


_HEADER_FIELDS = ("n_frames", "n_tx", "n_rx", "n_samples",
                  "fc", "fs", "k_chirp", "prt", "t_frame", "seed")


def _header_bytes(header):
    return struct.pack("<4s5I5dQ", b"MVDC", 1, *(header[f] for f in _HEADER_FIELDS))


@pytest.mark.parametrize("field", ["fc", "fs", "k_chirp", "prt", "t_frame"])
def test_cube_non_finite_header_rejected(tmp_path, table2, cascade, field):
    path = tmp_path / "cube.mvdc"
    save_cube(_small_cube(table2, cascade), str(path))
    raw = path.read_bytes()
    header = dict(zip(_HEADER_FIELDS, struct.unpack_from("<4s5I5dQ", raw)[2:]))
    header[field] = float("inf")
    path.write_bytes(_header_bytes(header) + raw[72:])
    with pytest.raises(CubeFormatError, match=f"cube.mvdc: chirp.{field} must be finite"):
        load_cube(str(path), cascade)


def test_cube_header_frame_shorter_than_chirp_rejected(tmp_path, table2, cascade):
    path = tmp_path / "cube.mvdc"
    save_cube(_small_cube(table2, cascade), str(path))
    raw = path.read_bytes()
    header = dict(zip(_HEADER_FIELDS, struct.unpack_from("<4s5I5dQ", raw)[2:]))
    header["t_frame"] = header["prt"] / 2
    path.write_bytes(_header_bytes(header) + raw[72:])
    with pytest.raises(CubeFormatError, match="cube.mvdc: frame duration t_frame"):
        load_cube(str(path), cascade)


_U32 = st.integers(0, 2**32 - 1)
_F64 = st.floats(allow_nan=True, allow_infinity=True)
_VALID_HEADER = dict(n_frames=2, n_tx=12, n_rx=16, n_samples=8, fc=77e9, fs=5e6,
                     k_chirp=65.998e12, prt=70e-6, t_frame=0.05, seed=42)
_FUZZ = dict(n_frames=st.integers(0, 3) | _U32, n_tx=_U32, n_rx=_U32,
             n_samples=st.integers(0, 8) | _U32, fc=_F64, fs=_F64, k_chirp=_F64,
             prt=_F64, t_frame=_F64, seed=st.integers(0, 2**64 - 1))


@given(fuzzed=st.sets(st.sampled_from(_HEADER_FIELDS)), data=st.data())
@settings(max_examples=200, deadline=None)
def test_fuzzed_header_loads_valid_or_fails_as_package_error(tmp_path_factory, fuzzed, data):
    # A valid header with some fields replaced. Small dims get a payload of
    # the size the header implies, so the chirp values decide the outcome.
    header = {f: data.draw(_FUZZ[f], label=f) if f in fuzzed else v
              for f, v in _VALID_HEADER.items()}
    size = 8 * header["n_frames"] * header["n_tx"] * header["n_rx"] * header["n_samples"]
    path = tmp_path_factory.mktemp("fuzz") / "cube.mvdc"
    path.write_bytes(_header_bytes(header) + bytes(size if size <= 1 << 16 else 8))
    try:
        cube = load_cube(str(path), ArrayGeometry.ti_cascade())
    except MultivitalError:
        return
    chirp = cube.chirp.validate()
    assert all(math.isfinite(getattr(chirp, f)) for f in ("fc", "fs", "k_chirp", "prt", "t_frame"))


def test_trace_export_round_trip(tmp_path):
    t = np.arange(40) / 20.0
    traces = [
        DisplacementTrace.from_phase("A", 0.5 * np.sin(2 * np.pi * t), WL, 20.0),
        DisplacementTrace.from_phase("P", 0.4 * np.cos(2 * np.pi * t), WL, 20.0),
    ]
    path = str(tmp_path / "traces.csv")
    export_traces(traces, path)
    head = Path(path).read_text().splitlines()[0].strip()
    assert head == "time_s,region,phase_rad,displacement_mm"
    table = read_trace_table(path)
    assert list(table) == ["A", "P"]
    assert np.array_equal(table["A"]["phase_rad"], traces[0].phase)
    assert np.array_equal(table["A"]["displacement_mm"], traces[0].displacement)
    assert np.array_equal(table["A"]["time_s"], traces[0].times)
    assert trace_rate_hz(table["P"]["time_s"]) == pytest.approx(20.0)


def test_trace_export_matches_csv_writer(tmp_path):
    # The f-string writer gives the bytes csv.writer gives, quoting included.
    t = np.arange(30) / 20.0
    traces = [
        DisplacementTrace.from_phase("A", 0.5 * np.sin(2 * np.pi * t), WL, 20.0),
        DisplacementTrace.from_phase('P,"q', 1e-9 * np.cos(t), WL, 20.0),
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["time_s", "region", "phase_rad", "displacement_mm"])
    for tr in traces:
        for tt, ph, d in zip(tr.times, tr.phase, tr.displacement):
            writer.writerow([repr(float(tt)), tr.region, repr(float(ph)), repr(float(d))])
    path = tmp_path / "traces.csv"
    export_traces(traces, str(path))
    assert path.read_bytes() == buf.getvalue().encode()
    assert list(read_trace_table(str(path))) == ["A", 'P,"q']


def test_trace_export_uses_lf_endings(tmp_path):
    t = np.arange(4) / 20.0
    path = str(tmp_path / "traces.csv")
    export_traces(
        [DisplacementTrace.from_phase("A", np.sin(t), WL, 20.0)], path
    )
    raw = Path(path).read_bytes()
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


@pytest.mark.parametrize("body, line", [
    (b"time_s,region,displacement_mm\n0.1\n", 2),  # short row
    (b"time_s,region,displacement_mm\n0.0,A,0.1\n0.1,A,\xff\n", 3),  # not UTF-8
    (b"time_s,region,displacement_mm\n0.0,A,0.1\n\n0.1,A,nan\n", 4),
    (b"time_s,region,displacement_mm\n0.0,A,0.1\n0.1,A,0.2\n-inf,A,0.3\n", 4),
    (b"time_s,region,phase_rad,displacement_mm\n0.0,A,1e400,0.1\n", 2),
], ids=["short", "utf8", "nan", "inf", "overflow"])
def test_read_trace_table_bad_row_names_file_and_line(tmp_path, body, line):
    path = tmp_path / "bad.csv"
    path.write_bytes(body)
    with pytest.raises(ProcessingError, match=re.escape(f"{path}, line {line}:")):
        read_trace_table(str(path))


def test_read_trace_table_duplicate_column_is_rejected(tmp_path):
    # Which of two displacement_mm columns is the trace cannot be told;
    # reading the first one silently dropped the other.
    path = tmp_path / "scg.csv"
    path.write_text("time_s,region,axis,displacement_mm,displacement_mm\n"
                    "0.0,A,x,0.1,0.5\n0.05,A,x,0.2,0.6\n")
    want = f"{path}: column 'displacement_mm' appears more than once"
    with pytest.raises(ProcessingError, match=re.escape(want)):
        read_trace_table(str(path))


_RADAR = ["time_s", "region", "phase_rad", "displacement_mm"]
_SCG = ["time_s", "region", "axis", "displacement_mm", "ecg"]
_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["", "nan", "-inf", "inf", "1e400", "A", "x", " 1 ", "0x1"]),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6),
)


@settings(max_examples=200, deadline=None)
@given(
    header=st.sampled_from([_RADAR, _SCG]).flatmap(lambda h: st.one_of(
        st.just(h),
        st.just(h + ["extra"]),
        st.integers(0, len(h) - 1).map(lambda i: h[:i] + h[i + 1:]),
    )),
    rows=st.lists(st.tuples(st.integers(-2, 2), st.lists(_cells, min_size=7, max_size=7)),
                  max_size=6),
    finite_rows=st.integers(0, 4),
    data=st.data(),
)
def test_fuzzed_trace_csv_reads_finite_or_fails_as_package_error(
    tmp_path_factory, header, rows, finite_rows, data
):
    """Short rows, extra fields, empty cells and non-finite values in either
    schema: equal-length finite columns per key, or a MultivitalError."""
    numeric = {"time_s", "phase_rad", "displacement_mm", "ecg"}
    body = [[repr(data.draw(st.floats(-1e3, 1e3))) if h in numeric else "A"
             for h in header] for _ in range(finite_rows)]
    body += [cells[:max(len(header) + delta, 0)] for delta, cells in rows]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header] + body)
    path = tmp_path_factory.mktemp("fuzz") / "trace.csv"
    path.write_text(buf.getvalue(), encoding="utf-8")
    try:
        table = read_trace_table(str(path))
    except MultivitalError:
        return
    assert table
    for columns in table.values():
        lengths = {len(v) for v in columns.values()}
        assert len(lengths) == 1 and lengths != {0}
        assert all(np.isfinite(v).all() for v in columns.values())


_SCG_HEADER = ["time_s", "A_ax", "A_ay", "A_az", "P_ax", "P_ay", "P_az", "ecg"]
_SCG_EDITS = st.sampled_from(
    ["cell", "drop-field", "dup-field", "drop-row", "dup-row", "swap-time"]
)
_scg_cells = st.one_of(
    _cells,
    st.sampled_from(["1e308", "-1e308", "5e-324", "1_0", "\0"]),
    st.sampled_from([20, 400, 200_000]).map(lambda n: "9" * n),
)


@settings(max_examples=200, deadline=None)
@given(edits=st.lists(
    st.tuples(_SCG_EDITS, st.integers(0, 99), st.integers(0, 99), _scg_cells), max_size=4
))
def test_fuzzed_scg_csv_reads_finite_or_fails_as_package_error(tmp_path_factory, edits):
    """A valid two-region SCG recording with cells replaced by non-numbers,
    non-finite, huge or empty strings, fields and rows dropped or repeated
    (the header's fields are its columns) and time_s cells swapped: finite
    columns of one length with strictly increasing time, or a
    MultivitalError."""
    table = [list(_SCG_HEADER)] + [
        [repr(k / 100)] + [repr(0.1 * math.sin(k + j)) for j in range(1, len(_SCG_HEADER))]
        for k in range(6)
    ]
    for edit, i, j, cell in edits:
        if not table:
            break
        row = table[i % len(table)]
        if edit == "drop-row":
            table.remove(row)
        elif edit == "dup-row":
            table.insert(i % len(table), list(row))
        elif row and edit == "cell":
            row[j % len(row)] = cell
        elif row and edit == "drop-field":
            del row[j % len(row)]
        elif row and edit == "dup-field":
            row.insert(j % len(row), row[j % len(row)])
        elif row and edit == "swap-time":
            other = table[j % len(table)]
            if other:
                row[0], other[0] = other[0], row[0]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(table)
    path = tmp_path_factory.mktemp("fuzz") / "accel.csv"
    path.write_text(buf.getvalue(), encoding="utf-8")
    try:
        channels, ecg, time_s = load_scg_csv(str(path))
    except MultivitalError:
        return
    assert len(time_s) >= 2 and np.all(time_s[1:] > time_s[:-1])
    columns = [ecg, time_s] + [a for ch in channels for a in (ch.ax, ch.ay, ch.az)]
    assert all(len(a) == len(time_s) and np.isfinite(a).all() for a in columns)
    assert all(math.isfinite(ch.fs) and ch.fs > 0 for ch in channels)


@pytest.mark.parametrize("body, line, fields", [
    ("0,0,0,0,0\n\n0.01,0,0,0\n", 4, 4),  # short, after a blank line
    ("0,0,0,0,0\n0.01,0,0,0,0\n0.02,0,0,0,0,0\n", 4, 6),  # long
], ids=["short", "long"])
def test_load_scg_csv_ragged_row_names_its_line(tmp_path, body, line, fields):
    path = tmp_path / "bad.csv"
    path.write_text("time_s,A_ax,A_ay,A_az,ecg\n" + body)
    want = f"{path}, line {line}: ragged rows, {fields} fields under 5 columns"
    with pytest.raises(ProcessingError, match=re.escape(want)):
        load_scg_csv(str(path))


@pytest.mark.parametrize("times, rate", [
    (("-1e308", "1e308"), "0.0"),  # the step overflows
    (("0", "5e-324", "1e-323"), "inf"),  # subnormal steps
], ids=["overflow", "subnormal"])
def test_load_scg_csv_rate_must_be_finite(tmp_path, times, rate):
    path = tmp_path / "bad.csv"
    path.write_text("time_s,A_ax,A_ay,A_az,ecg\n" + "".join(f"{t},0,0,0,0\n" for t in times))
    want = f"{path}: time_s steps imply a sample rate of {rate} Hz"
    with pytest.raises(ProcessingError, match=re.escape(want)):
        load_scg_csv(str(path))


def test_load_scg_csv_peak_memory_is_bounded_by_its_arrays(tmp_path):
    """Reading 3 x 8192 rows of 17 columns (five regions, as the phantom's
    accelerometer file) peaks at under 4x the bytes of the arrays returned;
    holding every cell as text took ~15x."""
    n = 3 * 8192
    rng = np.random.default_rng(5)
    cols = [np.arange(n) / 200.0] + [rng.normal(0.0, 0.1, n) for _ in range(16)]
    header = ["time_s"] + [f"{r}_a{ax}" for r in "APTEM" for ax in "xyz"] + ["ecg"]
    path = tmp_path / "accel.csv"
    np.savetxt(path, np.column_stack(cols), delimiter=",", header=",".join(header),
               comments="", fmt="%.10g")
    tracemalloc.start()
    try:
        channels, ecg, time_s = load_scg_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = ecg.nbytes + time_s.nbytes + sum(3 * ch.ax.nbytes for ch in channels)
    assert nbytes == 17 * 8 * n
    assert peak < 4 * nbytes


@pytest.mark.parametrize("writer", ["traces", "scg"])
def test_trace_writers_hold_one_trace_at_a_time(tmp_path, writer):
    """Writing 15 traces of 2000 rows peaks below the size of the file
    written: each trace's rows are encoded and written before the next
    trace's are made. Encoding every trace before writing peaked above it."""
    n = 2000
    rng = np.random.default_rng(9)
    path = tmp_path / "out.csv"
    if writer == "traces":
        export, args = export_traces, [
            [DisplacementTrace.from_phase(r, rng.normal(0.0, 1.0, n), WL, 20.0)
             for r in "APTEM" * 3]
        ]
    else:
        export, args = export_scg_traces, [
            [ScgTrace(region=r, axis=ax, fs=200.0, displacement=rng.normal(0.0, 1.0, n),
                      transient_samples=400) for r in "APTEM" for ax in "xyz"],
            rng.normal(0.0, 1.0, n),
        ]
    tracemalloc.start()
    try:
        export(*args, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


@pytest.mark.parametrize("ecg_size", [99, 101], ids=["shorter", "longer"])
def test_export_scg_traces_rejects_ecg_of_other_length(tmp_path, ecg_size):
    """An ecg whose length is not the traces' is a ProcessingError naming
    the trace and both lengths, and leaves no file behind."""
    traces = [ScgTrace(region="A", axis=ax, fs=200.0, displacement=np.zeros(100),
                       transient_samples=10) for ax in "xyz"]
    with pytest.raises(ProcessingError,
                       match=rf"SCG trace A\.x has 100 samples but the ecg has {ecg_size}"):
        export_scg_traces(traces, np.zeros(ecg_size), str(tmp_path / "out.csv"))
    assert list(tmp_path.iterdir()) == []


def test_read_trace_table_holds_one_chunk_of_cells_at_a_time(tmp_path):
    """Reading 4 chunks of an SCG-schema trace CSV peaks below 1.3x reading
    1 chunk of the same width: the rows of a chunk are freed before the
    next chunk is read. Holding the previous chunk as well gave ~1.8x."""
    rows_per_chunk = 32768 // 5  # io's chunk of 32768 cells at this width

    def peak(n):
        rng = np.random.default_rng(3)
        path = tmp_path / f"scg_{n}.csv"
        path.write_text("time_s,region,axis,displacement_mm,ecg\n" + "".join(
            f"{i / 200.0!r},chest,{'xyz'[i % 3]},{d!r},{e!r}\n"
            for i, (d, e) in enumerate(rng.normal(0.0, 1.0, (n, 2)).tolist())))
        tracemalloc.start()
        try:
            table = read_trace_table(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(len(t["time_s"]) for t in table.values()) == n
        return peak

    assert peak(4 * rows_per_chunk) < 1.3 * peak(rows_per_chunk)


def test_export_angle_map(tmp_path):
    am = AngleMap(
        power=np.arange(6, dtype=np.float64).reshape(3, 2),
        azimuth_grid=np.deg2rad([-10.0, 0.0, 10.0]),
        elevation_grid=np.deg2rad([-5.0, 5.0]),
    )
    path = str(tmp_path / "map.csv")
    export_angle_map(am, path)
    lines = Path(path).read_text().strip().split("\n")
    assert len(lines) == 4
    assert lines[0].split(",")[1] == repr(-5.0)
    row = lines[2].split(",")
    assert float(row[0]) == pytest.approx(0.0)
    assert [float(v) for v in row[1:]] == [2.0, 3.0]


def test_export_angle_map_matches_csv_writer(tmp_path):
    """The joined rows give the bytes csv.writer gives, for signed zeros,
    tiny, subnormal and huge powers as for ordinary ones."""
    rng = np.random.default_rng(11)
    power = rng.exponential(1.0, (512, 91))
    power[0, :4] = [-0.0, 0.0, 1e-300, 1e300]
    power[-1, -2:] = [5e-324, 1.7976931348623157e308]
    am = AngleMap(
        power=power,
        azimuth_grid=np.arcsin(np.arange(-256, 256) / 256.0),
        elevation_grid=np.deg2rad(np.arange(-45.0, 46.0, 1.0)),
    )
    path = tmp_path / "map.csv"
    export_angle_map(am, str(path))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["azimuth_deg\\elevation_deg"]
                    + [repr(float(np.degrees(e))) for e in am.elevation_grid])
    for i, az in enumerate(am.azimuth_grid):
        writer.writerow([repr(float(np.degrees(az)))] + [repr(float(v)) for v in am.power[i]])
    assert path.read_bytes() == buf.getvalue().encode()


def test_write_report(tmp_path):
    path = str(tmp_path / "report.json")
    write_report({"regions": {"A": {"rho": 1.0}}}, path)
    doc = json.loads(Path(path).read_text())
    assert doc["regions"]["A"]["rho"] == 1.0

import dataclasses
import math
import re

import numpy as np
import pytest

from multivital.errors import ConfigError, ProcessingError
from multivital.io import load_scg_csv
from multivital.scg import (
    ScgChannel,
    detrend,
    scg_to_displacement,
)


def _tone_channel(fs=500.0, seconds=30.0, amp=0.1, freq=5.0, bias=0.0,
                  region="A"):
    t = np.arange(int(fs * seconds)) / fs
    a = amp * np.sin(2 * np.pi * freq * t) + bias
    return ScgChannel(fs=fs, ax=a, ay=np.zeros_like(a), az=a.copy(),
                      region=region)


def _amplitude(trace):
    d = trace.trimmed
    return (d.max() - d.min()) / 2.0


def test_double_integration_amplitude():
    # 0.1 m/s^2 at 5 Hz integrates twice to a / (2 pi f)^2 = 0.10132 mm.
    traces = scg_to_displacement(_tone_channel())
    assert [t.axis for t in traces] == ["x", "y", "z"]
    assert _amplitude(traces[0]) == pytest.approx(0.10132, rel=0.02)
    assert _amplitude(traces[2]) == pytest.approx(0.10132, rel=0.02)


def test_constant_bias_is_rejected():
    clean = scg_to_displacement(_tone_channel())[0]
    biased = scg_to_displacement(_tone_channel(bias=0.5))[0]
    a0 = _amplitude(clean)
    a1 = _amplitude(biased)
    assert abs(a1 - a0) / a0 < 0.01


def test_silent_axis_stays_silent():
    traces = scg_to_displacement(_tone_channel())
    assert np.max(np.abs(traces[1].trimmed)) < 1e-6  # mm


def test_transient_trim():
    tr = scg_to_displacement(_tone_channel(fs=200.0))[0]
    assert tr.transient_samples == 400
    assert len(tr.trimmed) == len(tr.displacement) - 800


def test_filter_is_designed_once_per_channel(monkeypatch):
    """The three high-pass stages of all three axes share one design."""
    from scipy import signal

    designs = []
    butter = signal.butter

    def counting(*args, **kwargs):
        designs.append(args)
        return butter(*args, **kwargs)

    monkeypatch.setattr(signal, "butter", counting)
    for region in ("A", "B"):
        assert len(scg_to_displacement(_tone_channel(fs=200.0, region=region))) == 3
    assert len(designs) == 2


def test_short_record_raises():
    # 10 time constants of the 0.5 Hz filter are 3.18 s.
    with pytest.raises(ProcessingError, match="time constants"):
        scg_to_displacement(_tone_channel(seconds=2.0))


def test_cutoff_validation():
    # At 1 Hz the 0.5 Hz high-pass sits at Nyquist: no filter to design.
    with pytest.raises(ConfigError,
                       match=re.escape("cutoff 0.5 Hz must lie in (0, fs/2) = (0, 0.5) Hz")):
        scg_to_displacement(_tone_channel(fs=1.0, freq=0.2))


def test_channel_validation():
    with pytest.raises(ConfigError):
        ScgChannel(fs=0.0, ax=np.zeros(4), ay=np.zeros(4), az=np.zeros(4),
                   region="A").validate()
    with pytest.raises(ConfigError):
        ScgChannel(fs=100.0, ax=np.zeros(4), ay=np.zeros(3), az=np.zeros(4),
                   region="A").validate()


@pytest.mark.parametrize("fs", [math.inf, math.nan])
def test_channel_validation_rejects_non_finite_rate(fs):
    with pytest.raises(ConfigError, match="finite"):
        ScgChannel(fs=fs, ax=np.zeros(4), ay=np.zeros(4), az=np.zeros(4),
                   region="A").validate()


@pytest.mark.parametrize("axis", ["ax", "ay", "az"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_channel_validation_rejects_non_finite_samples(axis, bad):
    ch = _tone_channel(region="T")
    acc = getattr(ch, axis).copy()
    acc[100] = bad
    ch = dataclasses.replace(ch, **{axis: acc})
    with pytest.raises(ConfigError, match=f"region T {axis} has non-finite samples"):
        scg_to_displacement(ch)


def test_detrend_removes_line():
    t = np.linspace(0.0, 1.0, 101)
    out = detrend(3.0 + 2.0 * t)
    assert np.max(np.abs(out)) < 1e-9


def _write_csv(path, fs=250.0, seconds=10.0, regions=("A", "P")):
    t = np.arange(int(fs * seconds)) / fs
    header = ["time_s"]
    cols = [t]
    for i, r in enumerate(regions):
        for ax in "xyz":
            header.append(f"{r}_a{ax}")
            cols.append(0.1 * np.sin(2 * np.pi * (5.0 + i) * t))
    header.append("ecg")
    cols.append(np.sin(2 * np.pi * 1.0 * t))
    data = np.column_stack(cols)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in data:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return t


def test_load_scg_csv(tmp_path):
    path = tmp_path / "channels.csv"
    _write_csv(path)
    channels, ecg, time_s = load_scg_csv(str(path))
    assert [c.region for c in channels] == ["A", "P"]
    assert channels[0].fs == pytest.approx(250.0)
    assert len(ecg) == len(time_s) == 2500
    traces = scg_to_displacement(channels[0])
    assert _amplitude(traces[0]) == pytest.approx(0.10132, rel=0.02)


def test_load_scg_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_s,A_ax,A_ay,A_az\n0,0,0,0\n")
    with pytest.raises(ProcessingError, match="ecg"):
        load_scg_csv(str(path))


def test_load_scg_csv_missing_axis(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_s,A_ax,A_ay,ecg\n0,0,0,0\n0.01,0,0,0\n")
    with pytest.raises(ProcessingError, match="lacks axes"):
        load_scg_csv(str(path))


def test_load_scg_csv_duplicate_column_is_rejected(tmp_path):
    # Region A used to be built from the second of two A_ax columns.
    path = tmp_path / "bad.csv"
    path.write_text("time_s,A_ax,A_ax,A_ay,A_az,ecg\n0,1,2,0,0,0\n0.01,1,2,0,0,0\n")
    want = f"{path}: column 'A_ax' appears more than once"
    with pytest.raises(ProcessingError, match=re.escape(want)):
        load_scg_csv(str(path))


def test_load_scg_csv_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_s,A_ax,A_ay,A_az,ecg\n0,x,0,0,0\n")
    want = f"{path}, line 2: A_ax 'x' is not a finite number"
    with pytest.raises(ProcessingError, match=re.escape(want)):
        load_scg_csv(str(path))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_scg_csv_non_finite_cell_names_its_line(tmp_path, cell):
    # The blank line 3 still counts, so the bad row is line 4.
    path = tmp_path / "bad.csv"
    path.write_text(f"time_s,A_ax,A_ay,A_az,ecg\n0,0,0,0,0\n\n0.01,0,{cell},0,0\n")
    want = f"{path}, line 4: A_ay '{cell}' is not a finite number"
    with pytest.raises(ProcessingError, match=re.escape(want)):
        load_scg_csv(str(path))


@pytest.mark.parametrize("times, line", [
    (("0", "0", "0"), 3),  # constant
    (("0.02", "0.01", "0"), 3),  # reversed
    (("0", "0.01", "0.01", "0.03"), 4),  # one repeated stamp
])
def test_load_scg_csv_time_must_increase(tmp_path, times, line):
    path = tmp_path / "bad.csv"
    path.write_text("time_s,A_ax,A_ay,A_az,ecg\n" + "".join(f"{t},0,0,0,0\n" for t in times))
    with pytest.raises(ProcessingError,
                       match=re.escape(f"{path}, line {line}: time_s '{times[line - 2]}'")):
        load_scg_csv(str(path))


@pytest.mark.parametrize("raw, message", [
    (b"time_s,A_ax,A_ay,A_az,ecg\n0,\xff,0,0,0\n", "not UTF-8 text"),
    (b"time_s,A_ax,A_ay,A_az,ecg\n0,\"" + b"0" * 200_000 + b"\",0,0,0\n",
     "line 2: field larger than field limit"),
], ids=["not-utf8", "huge-field"])
def test_load_scg_csv_unreadable_text(tmp_path, raw, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    with pytest.raises(ProcessingError, match=message):
        load_scg_csv(str(path))

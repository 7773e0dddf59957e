"""JSON run-config parsing: bundled configs, strict key checking, errors."""

import copy
import json
import re
from importlib import resources
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from multivital import ConfigError
from multivital.errors import MultivitalError
from multivital import runconfig
from multivital.geometry import ArrayGeometry
from multivital.runconfig import (
    PipelineConfig,
    RunConfig,
    bundled_config_names,
    load_run_config,
    parse_run_config,
)
from multivital.simulate import SampledMotion, SinusoidMotion


def minimal_doc() -> dict:
    return {
        "chirp": {
            "fc_hz": 77.0e9,
            "prt_s": 70.0e-6,
            "t_frame_s": 0.05,
            "n_adc": 256,
            "fs_hz": 5.0e6,
            "k_chirp_hz_per_s": 65.998e12,
            "n_frames": 4,
        },
        "geometry": "ti-cascade",
        "scene": {"points": [{"position_m": [0.0, 0.5, 0.0]}]},
        "pipeline": {"n_fft_range": 256, "n_fft_azimuth": 256},
    }


def test_bundled_names():
    names = bundled_config_names()
    assert "sim-single-target" in names
    assert "phantom-five-point" in names


def test_load_bundled_single_target():
    cfg = load_run_config("sim-single-target")
    assert cfg.chirp.fc == 77.0e9
    assert cfg.chirp.n_frames == 50
    # Cubes hold one chirp per frame, so a chirp count is an unknown key.
    doc = minimal_doc()
    doc["chirp"]["n_chirps_per_frame"] = 128
    with pytest.raises(ConfigError, match=r"unknown key config\.chirp\.n_chirps_per_frame"):
        parse_run_config(doc)
    assert len(cfg.scene.points) == 1
    point = cfg.scene.points[0]
    assert point.position0 == (3.0, 4.0, 0.0)
    assert isinstance(point.motion, SinusoidMotion)
    assert point.motion.amplitude == 1.0e-3
    assert point.motion.frequency == 1.0
    assert cfg.scene.snr_db is None
    assert cfg.pipeline == PipelineConfig(n_fft_range=512, n_fft_azimuth=512)
    assert cfg.layout is None


def test_load_bundled_phantom():
    cfg = load_run_config("phantom-five-point")
    assert len(cfg.scene.points) == 5
    assert cfg.chirp.n_frames == 600
    assert cfg.scene.snr_db == 30.0
    assert cfg.layout is not None
    assert set(cfg.layout.positions) == {"A", "P", "T", "E", "M"}
    assert cfg.layout.z_a == 0.5
    assert cfg.layout.positions["A"] == (0.0, 0.0)
    # scene points and layout regions line up one-to-one for truth export
    for point, region in zip(cfg.scene.points, cfg.layout.positions):
        x, y = cfg.layout.positions[region]
        assert point.position0 == (x, cfg.layout.z_a, y)


def test_load_from_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(minimal_doc()))
    cfg = load_run_config(str(path))
    assert cfg.chirp.n_adc == 256
    assert cfg.geometry == ArrayGeometry.ti_cascade()
    assert cfg.scene.points[0].motion is None


def test_unknown_source_name():
    with pytest.raises(ConfigError, match="neither a file nor a bundled name"):
        load_run_config("no-such-config")


def test_invalid_json_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_run_config(str(path))


@pytest.mark.parametrize("raw", [
    b"\xff\xfe{}",
    b'{"chirp": 1' + b"0" * 5000 + b"}",  # past Python's integer-string limit
], ids=["not-utf8", "long-integer"])
def test_unreadable_json_file(tmp_path, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_run_config(str(path))


@pytest.mark.parametrize("bundled", [False, True], ids=["file", "bundled"])
def test_duplicate_key_is_rejected(tmp_path, monkeypatch, bundled):
    # json keeps the last of two equal keys; a run config must not, or an
    # edit that adds a key without removing the old one changes the run.
    text = (resources.files("multivital") / "configs" / "sim-single-target.json").read_text()
    assert text.count('"n_adc": 512,') == 1
    path = tmp_path / "configs" / "dup.json"
    path.parent.mkdir()
    path.write_text(text.replace('"n_adc": 512,', '"n_adc": 512, "n_adc": 256,'))
    source = str(path)
    if bundled:
        monkeypatch.setattr(runconfig, "resources", SimpleNamespace(files=lambda package: tmp_path))
        source = "dup"
    with pytest.raises(ConfigError, match=re.escape(f"{source}: duplicate key 'n_adc'")):
        load_run_config(source)


def test_unknown_key_reports_full_path():
    doc = minimal_doc()
    doc["chirp"]["bogus"] = 1.0
    with pytest.raises(ConfigError, match=r"config\.chirp\.bogus"):
        parse_run_config(doc)


@pytest.mark.parametrize("value", [True, False])
def test_retired_near_field_key_is_unknown(value):
    """Junction compensation is always on, so the old switch is an unknown key."""
    doc = minimal_doc()
    doc["pipeline"]["near_field"] = value
    with pytest.raises(ConfigError, match=r"unknown key config\.pipeline\.near_field"):
        parse_run_config(doc)


def test_missing_required_key():
    doc = minimal_doc()
    del doc["chirp"]["fs_hz"]
    with pytest.raises(ConfigError, match=r"config\.chirp\.fs_hz"):
        parse_run_config(doc)


def test_bool_is_not_a_number():
    doc = minimal_doc()
    doc["chirp"]["fc_hz"] = True
    with pytest.raises(ConfigError, match="must be a number"):
        parse_run_config(doc)


def test_fft_size_must_be_integer():
    doc = minimal_doc()
    doc["pipeline"]["n_fft_range"] = "256"
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_run_config(doc)


def test_fft_size_must_be_power_of_two():
    doc = minimal_doc()
    doc["pipeline"]["n_fft_azimuth"] = 300
    with pytest.raises(ConfigError, match="power of two"):
        parse_run_config(doc)


def test_cascade_rejects_out_of_band_carrier():
    doc = minimal_doc()
    doc["chirp"]["fc_hz"] = 60.0e9
    with pytest.raises(ConfigError, match="cascade band"):
        parse_run_config(doc)


def test_custom_geometry_object():
    doc = minimal_doc()
    doc["geometry"] = {
        "tx_elements": [[0, 0], [4, 0]],
        "rx_elements": [[0, 0], [1, 0]],
    }
    doc["chirp"]["fc_hz"] = 60.0e9  # no band restriction off the cascade
    cfg = parse_run_config(doc)
    assert cfg.geometry.tx_elements == ((0, 0), (4, 0))
    assert cfg.geometry.rx_elements == ((0, 0), (1, 0))


@pytest.mark.parametrize("key,short,enough", [
    ("n_fft_range", 128, 256),  # n_adc is 256
    ("n_fft_azimuth", 64, 128),  # the cascade's azimuth ULA has 86 elements
])
def test_fft_shorter_than_its_input_is_rejected(key, short, enough):
    doc = minimal_doc()
    doc["pipeline"][key] = short
    with pytest.raises(ConfigError, match=rf"config\.pipeline\.{key} {short} is smaller"):
        parse_run_config(doc)
    doc["pipeline"][key] = enough
    assert getattr(parse_run_config(doc).pipeline, key) == enough


def test_frame_shorter_than_its_chirp_is_rejected():
    doc = minimal_doc()
    doc["chirp"]["t_frame_s"] = 1e-5  # prt_s is 70 us
    with pytest.raises(ConfigError, match="t_frame = 1.000e-05 s is shorter"):
        parse_run_config(doc)


def test_azimuth_fft_is_sized_against_the_geometry_ula():
    doc = minimal_doc()
    doc["geometry"] = {
        "tx_elements": [[0, 0], [2, 0]],
        "rx_elements": [[0, 0], [1, 0]],  # virtual positions 0..3: a 4-element ULA
    }
    doc["chirp"]["fc_hz"] = 60.0e9
    doc["pipeline"]["n_fft_azimuth"] = 4
    assert parse_run_config(doc).pipeline.n_fft_azimuth == 4
    doc["pipeline"]["n_fft_azimuth"] = 2
    with pytest.raises(ConfigError, match=r"azimuth ULA length 4"):
        parse_run_config(doc)


def test_custom_geometry_requires_integer_grid():
    doc = minimal_doc()
    doc["geometry"] = {"tx_elements": [[0.5, 0]], "rx_elements": [[0, 0]]}
    with pytest.raises(ConfigError, match="integer half-wavelengths"):
        parse_run_config(doc)


def test_sinusoid_motion_parse():
    doc = minimal_doc()
    doc["scene"]["points"][0]["motion"] = {
        "kind": "sinusoid",
        "direction": [0.0, 1.0, 0.0],
        "amplitude_m": 0.5e-3,
        "frequency_hz": 1.2,
        "phase_rad": 0.3,
    }
    motion = parse_run_config(doc).scene.points[0].motion
    assert isinstance(motion, SinusoidMotion)
    assert motion.phase == 0.3


def test_sampled_motion_parse():
    doc = minimal_doc()
    doc["scene"]["points"][0]["motion"] = {
        "kind": "sampled",
        "direction": [0.0, 1.0, 0.0],
        "displacement_m": [0.0, 1.0e-4, 0.0, -1.0e-4],
        "rate_hz": 20.0,
    }
    motion = parse_run_config(doc).scene.points[0].motion
    assert isinstance(motion, SampledMotion)
    assert len(motion.displacement_m) == 4


def test_unknown_motion_kind():
    doc = minimal_doc()
    doc["scene"]["points"][0]["motion"] = {"kind": "spline"}
    with pytest.raises(ConfigError, match="kind"):
        parse_run_config(doc)


@pytest.mark.parametrize("mode", ["auto", "plane-wave", "exact-path"])
def test_retired_scene_mode_key_is_unknown(mode):
    """Every scene is simulated along exact paths: scene.mode is gone."""
    doc = minimal_doc()
    doc["scene"]["mode"] = mode
    with pytest.raises(ConfigError, match=r"unknown key config\.scene\.mode"):
        parse_run_config(doc)


@pytest.mark.parametrize("path, value", [
    ("pipeline.band_hz", [0.5, 3.0]),
    ("outputs", {"cube": "x.mvdc"}),
], ids=["pipeline.band_hz", "outputs"])
def test_retired_key_is_unknown(path, value):
    """The heart band is fixed and e2e writes fixed file names, so neither
    is a key any more."""
    doc = minimal_doc()
    _set(doc, path.split("."), value)
    with pytest.raises(ConfigError, match=rf"unknown key config\.{re.escape(path)}$"):
        parse_run_config(doc)


def test_layout_rejects_unknown_region():
    doc = minimal_doc()
    doc["layout"] = {"z_a_m": 0.5, "positions_m": {"Q": [0.0, 0.0]}}
    with pytest.raises(ConfigError, match="region"):
        parse_run_config(doc)


def test_direction_vector_length():
    doc = copy.deepcopy(minimal_doc())
    doc["scene"]["points"][0]["position_m"] = [1.0, 2.0]
    with pytest.raises(ConfigError, match="list of 3 numbers"):
        parse_run_config(doc)


def _with_motion_and_layout() -> dict:
    doc = minimal_doc()
    doc["scene"]["points"][0]["motion"] = {
        "kind": "sinusoid",
        "direction": [0.0, 1.0, 0.0],
        "amplitude_m": 0.5e-3,
        "frequency_hz": 1.2,
    }
    doc["layout"] = {"z_a_m": 0.5, "positions_m": {"A": [0.0, 0.0]}}
    return doc


def _set(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


@pytest.mark.parametrize("keys, value, where", [
    (("layout", "z_a_m"), float("inf"), r"config\.layout\.z_a_m"),
    (("scene", "points", 0, "position_m", 1), float("nan"),
     r"config\.scene\.points\[0\]\.position_m\[1\]"),
    (("scene", "points", 0, "motion", "amplitude_m"), float("-inf"),
     r"config\.scene\.points\[0\]\.motion\.amplitude_m"),
    (("chirp", "fc_hz"), float("nan"), r"config\.chirp\.fc_hz"),
    (("chirp", "fc_hz"), 10**400, r"config\.chirp\.fc_hz"),  # past the float range
], ids=["layout.z_a_m", "position_m", "motion.amplitude_m", "chirp.fc_hz",
        "chirp.fc_hz-huge-int"])
def test_non_finite_number_rejected_with_its_path(tmp_path, keys, value, where):
    # json.load accepts NaN and Infinity; the schema must not.
    doc = _with_motion_and_layout()
    parse_run_config(copy.deepcopy(doc))
    _set(doc, keys, value)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=where + " must be a finite number"):
        load_run_config(str(path))


_BUNDLED = {
    name: json.loads((resources.files("multivital") / "configs" / f"{name}.json").read_text())
    for name in bundled_config_names()
}
_EXTREMES = st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400, -10**400,
                             2**64, 1e308, -1e308, 5e-324, 0, -1])
_ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.integers(), st.floats(), _EXTREMES,
    st.lists(st.floats(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _nodes(node, path=()):
    """The path of every value below node, node itself first."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


@given(name=st.sampled_from(sorted(_BUNDLED)), data=st.data())
@settings(max_examples=200, deadline=None)
def test_fuzzed_config_parses_or_fails_as_package_error(name, data):
    """A bundled config with keys dropped or added, values swapped for other
    types, non-finite or huge numbers: a RunConfig or a MultivitalError."""
    doc = copy.deepcopy(_BUNDLED[name])
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        path = data.draw(st.sampled_from(list(_nodes(doc))[1:]), label="path")
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = data.draw(st.sampled_from(["drop", "swap", "extreme", "insert"]),
                           label="action")
        if action == "drop":
            del parent[path[-1]]
        elif action in ("swap", "extreme"):
            parent[path[-1]] = data.draw(_ODD_VALUES if action == "swap" else _EXTREMES,
                                         label="value")
        elif isinstance(parent, dict):
            parent[data.draw(st.text(max_size=4), label="key")] = data.draw(_ODD_VALUES)
        else:
            parent.insert(path[-1], data.draw(_ODD_VALUES, label="value"))
    try:
        cfg = parse_run_config(doc)
    except MultivitalError:
        return
    assert isinstance(cfg, RunConfig)

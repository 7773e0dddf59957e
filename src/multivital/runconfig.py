"""JSON run-configuration schema: strict parsing into domain objects.

Validation is fail-closed: any key the schema does not know is rejected
with its full path, so typos cannot silently change a run.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from importlib import resources

from .config import W_BAND_HZ, ChirpConfig
from .doa import REGION_IDS
from .errors import ConfigError, ProcessingError
from .geometry import ArrayGeometry, build_virtual_array, select_azimuth_ula
from .metrics import SensorLayout
from .simulate import SampledMotion, ScatterPoint, Scene, SinusoidMotion


@dataclass(frozen=True)
class PipelineConfig:
    """Processing-stage settings."""

    n_fft_range: int
    n_fft_azimuth: int


@dataclass(frozen=True)
class RunConfig:
    chirp: ChirpConfig
    geometry: ArrayGeometry
    scene: Scene
    pipeline: PipelineConfig
    layout: SensorLayout | None = None


def _check_keys(obj: dict, path: str, required: tuple, optional: tuple = ()) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown key {path}.{key}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"missing required key {path}.{key}")


def _finite(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    return number


def _number(obj: dict, path: str, key: str, default=None) -> float:
    if key not in obj:
        return default
    return _finite(obj[key], f"{path}.{key}")


def _integer(obj: dict, path: str, key: str, default=None) -> int:
    if key not in obj:
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key} must be an integer, got {value!r}")
    return value


def _vector(value, path: str, length: int) -> tuple:
    if not isinstance(value, list) or len(value) != length:
        raise ConfigError(f"{path} must be a list of {length} numbers")
    return tuple(_finite(v, f"{path}[{i}]") for i, v in enumerate(value))


def _parse_chirp(obj: dict, path: str) -> ChirpConfig:
    _check_keys(
        obj, path,
        required=("fc_hz", "prt_s", "t_frame_s", "n_adc", "fs_hz", "k_chirp_hz_per_s"),
        optional=("n_frames",),
    )
    return ChirpConfig(
        fc=_number(obj, path, "fc_hz"),
        prt=_number(obj, path, "prt_s"),
        t_frame=_number(obj, path, "t_frame_s"),
        n_adc=_integer(obj, path, "n_adc"),
        fs=_number(obj, path, "fs_hz"),
        k_chirp=_number(obj, path, "k_chirp_hz_per_s"),
        n_frames=_integer(obj, path, "n_frames", 1),
    ).validate()


def _parse_geometry(value, path: str) -> tuple[ArrayGeometry, bool]:
    if value == "ti-cascade":
        return ArrayGeometry.ti_cascade(), True
    if isinstance(value, str):
        raise ConfigError(f"{path} must be \"ti-cascade\" or an object, got {value!r}")
    _check_keys(value, path, required=("tx_elements", "rx_elements"))
    def elements(key):
        items = value[key]
        if not isinstance(items, list) or not items:
            raise ConfigError(f"{path}.{key} must be a non-empty list")
        out = []
        for i, item in enumerate(items):
            pair = _vector(item, f"{path}.{key}[{i}]", 2)
            if any(p != int(p) for p in pair):
                raise ConfigError(
                    f"{path}.{key}[{i}] positions must be integer half-wavelengths"
                )
            out.append((int(pair[0]), int(pair[1])))
        return tuple(out)
    return ArrayGeometry(
        tx_elements=elements("tx_elements"), rx_elements=elements("rx_elements")
    ).validate(), False


def _parse_motion(obj, path: str):
    if obj is None:
        return None
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{path} must be null or an object with a kind")
    kind = obj["kind"]
    if kind == "sinusoid":
        _check_keys(obj, path,
                    required=("kind", "direction", "amplitude_m", "frequency_hz"),
                    optional=("phase_rad",))
        return SinusoidMotion(
            direction=_vector(obj["direction"], f"{path}.direction", 3),
            amplitude=_number(obj, path, "amplitude_m"),
            frequency=_number(obj, path, "frequency_hz"),
            phase=_number(obj, path, "phase_rad", 0.0),
        ).validate()
    if kind == "sampled":
        _check_keys(obj, path,
                    required=("kind", "direction", "displacement_m", "rate_hz"))
        series = obj["displacement_m"]
        if not isinstance(series, list) or not series:
            raise ConfigError(f"{path}.displacement_m must be a non-empty list")
        return SampledMotion(
            direction=_vector(obj["direction"], f"{path}.direction", 3),
            displacement_m=tuple(
                _finite(v, f"{path}.displacement_m[{i}]") for i, v in enumerate(series)
            ),
            rate_hz=_number(obj, path, "rate_hz"),
        ).validate()
    raise ConfigError(f"{path}.kind must be \"sinusoid\" or \"sampled\", got {kind!r}")


def _parse_scene(obj: dict, path: str) -> Scene:
    _check_keys(obj, path, required=("points",),
                optional=("snr_db", "seed"))
    points_doc = obj["points"]
    if not isinstance(points_doc, list) or not points_doc:
        raise ConfigError(f"{path}.points must be a non-empty list")
    points = []
    for i, p in enumerate(points_doc):
        ppath = f"{path}.points[{i}]"
        _check_keys(p, ppath, required=("position_m",),
                    optional=("reflectivity", "motion"))
        points.append(
            ScatterPoint(
                position0=_vector(p["position_m"], f"{ppath}.position_m", 3),
                motion=_parse_motion(p.get("motion"), f"{ppath}.motion"),
                reflectivity=_number(p, ppath, "reflectivity", 1.0),
            )
        )
    snr = obj.get("snr_db")
    if snr is not None:
        snr = _number(obj, path, "snr_db")
    return Scene(
        points=tuple(points),
        snr_db=snr,
        seed=_integer(obj, path, "seed", 0),
    ).validate()


def _parse_pipeline(obj: dict, path: str) -> PipelineConfig:
    _check_keys(obj, path, required=("n_fft_range", "n_fft_azimuth"))
    def fft_size(key):
        n = _integer(obj, path, key)
        if n < 2 or n & (n - 1):
            raise ConfigError(f"{path}.{key} must be a power of two, got {n}")
        return n
    return PipelineConfig(
        n_fft_range=fft_size("n_fft_range"),
        n_fft_azimuth=fft_size("n_fft_azimuth"),
    )


def _check_fft_sizes(pipeline: PipelineConfig, chirp: ChirpConfig,
                     geometry: ArrayGeometry) -> None:
    """Reject FFT lengths shorter than what they transform, before any work."""
    if pipeline.n_fft_range < chirp.n_adc:
        raise ConfigError(
            f"config.pipeline.n_fft_range {pipeline.n_fft_range} is smaller than "
            f"config.chirp.n_adc {chirp.n_adc}"
        )
    try:
        n_ula = len(select_azimuth_ula(build_virtual_array(geometry)).chosen)
    except ProcessingError:
        return  # no azimuth ULA to size; processing reports the geometry itself
    if pipeline.n_fft_azimuth < n_ula:
        raise ConfigError(
            f"config.pipeline.n_fft_azimuth {pipeline.n_fft_azimuth} is smaller than "
            f"the azimuth ULA length {n_ula} of config.geometry"
        )


def _parse_layout(obj: dict, path: str) -> SensorLayout:
    _check_keys(obj, path, required=("z_a_m", "positions_m"))
    positions_doc = obj["positions_m"]
    if not isinstance(positions_doc, dict) or not positions_doc:
        raise ConfigError(f"{path}.positions_m must be a non-empty object")
    positions = {}
    for rid, xy in positions_doc.items():
        if rid not in REGION_IDS:
            raise ConfigError(
                f"{path}.positions_m.{rid}: region must be one of {REGION_IDS}"
            )
        positions[rid] = _vector(xy, f"{path}.positions_m.{rid}", 2)
    return SensorLayout(positions=positions, z_a=_number(obj, path, "z_a_m")).validate()


def parse_run_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig."""
    _check_keys(doc, "config", required=("chirp", "geometry", "scene", "pipeline"),
                optional=("layout",))
    chirp = _parse_chirp(doc["chirp"], "config.chirp")
    geometry, is_cascade = _parse_geometry(doc["geometry"], "config.geometry")
    if is_cascade and not W_BAND_HZ[0] <= chirp.fc <= W_BAND_HZ[1]:
        raise ConfigError(
            f"config.chirp.fc_hz = {chirp.fc:.3e} outside the cascade band "
            f"{W_BAND_HZ[0]:.0f}..{W_BAND_HZ[1]:.0f} Hz"
        )
    scene = _parse_scene(doc["scene"], "config.scene")
    pipeline = _parse_pipeline(doc["pipeline"], "config.pipeline")
    _check_fft_sizes(pipeline, chirp, geometry)
    return RunConfig(
        chirp=chirp,
        geometry=geometry,
        scene=scene,
        pipeline=pipeline,
        layout=(_parse_layout(doc["layout"], "config.layout")
                if "layout" in doc else None),
    )


def bundled_config_names() -> list[str]:
    """Names of configs shipped inside the package."""
    root = resources.files("multivital") / "configs"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def _unique_keys(source: str, pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict. A key given twice is a
    ConfigError, where json would keep the last one silently."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"{source}: duplicate key {key!r}")
        obj[key] = value
    return obj


def load_run_config(source: str) -> RunConfig:
    """Load a RunConfig from a file path or a bundled config name."""
    unique = functools.partial(_unique_keys, source)
    if os.path.exists(source):
        with open(source, encoding="utf-8") as fh:
            try:
                doc = json.load(fh, object_pairs_hook=unique)
            except ValueError as exc:  # bad syntax, not UTF-8, an integer too long to read
                raise ConfigError(f"{source}: invalid JSON: {exc}") from None
        return parse_run_config(doc)
    candidate = resources.files("multivital") / "configs" / f"{source}.json"
    if candidate.is_file():
        doc = json.loads(candidate.read_text(), object_pairs_hook=unique)
        return parse_run_config(doc)
    raise ConfigError(
        f"config {source!r} is neither a file nor a bundled name "
        f"{bundled_config_names()}"
    )

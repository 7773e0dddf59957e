"""Radar vital-sign toolkit: FMCW MIMO simulation, DOA, displacement recovery.

The package covers a full loop: synthesize raw IF data cubes for scenes of
moving chest-wall scatterers, locate the subject in range, read its azimuth
from a stitched ULA (with near-field junction compensation), focus the whole
array on each chest region's point, convert slow-time phase to displacement
traces, and score them against accelerometer-derived references.
"""

from .config import (
    SPEED_OF_LIGHT,
    ChirpConfig,
    DerivedWaveform,
    derive_waveform,
)
from .doa import (
    AngleMap,
    REGION_IDS,
    RegionSignal,
    angle_map,
    build_phase_error_table,
    junction_phase_error,
    select_region_signal,
)
from .errors import ConfigError, CubeFormatError, MultivitalError, ProcessingError
from .geometry import (
    ArrayGeometry,
    AzimuthUlaSelection,
    VirtualArray,
    VirtualElement,
    build_virtual_array,
    select_azimuth_ula,
)
from .io import (
    export_angle_map,
    export_traces,
    load_cube,
    load_scg_csv,
    read_trace_table,
    save_cube,
    write_report,
)
from .metrics import (
    SensorLayout,
    compare_traces,
    compute_alignment,
    normalized_xcorr_max,
)
from .pipeline import PipelineResult, run_pipeline
from .rangeproc import (
    RangeCube,
    SubjectLocation,
    extract_range_bin,
    locate_subject,
    range_fft,
)
from .runconfig import PipelineConfig, RunConfig, load_run_config
from .scg import ScgChannel, ScgTrace, scg_to_displacement
from .simulate import (
    RawDataCube,
    SampledMotion,
    ScatterPoint,
    Scene,
    SinusoidMotion,
    simulate,
    synthesize_frame,
)
from .vitals import (
    DisplacementTrace,
    dominant_frequency,
    extract_phase,
    phase_to_displacement,
    region_signal_to_trace,
    spectral_peak_frequency,
)

__version__ = "0.1.0"

__all__ = [
    "SPEED_OF_LIGHT",
    "ChirpConfig",
    "DerivedWaveform",
    "derive_waveform",
    "AngleMap",
    "REGION_IDS",
    "RegionSignal",
    "angle_map",
    "build_phase_error_table",
    "junction_phase_error",
    "select_region_signal",
    "ConfigError",
    "CubeFormatError",
    "MultivitalError",
    "ProcessingError",
    "ArrayGeometry",
    "AzimuthUlaSelection",
    "VirtualArray",
    "VirtualElement",
    "build_virtual_array",
    "select_azimuth_ula",
    "export_angle_map",
    "export_traces",
    "load_cube",
    "read_trace_table",
    "save_cube",
    "write_report",
    "SensorLayout",
    "compare_traces",
    "compute_alignment",
    "normalized_xcorr_max",
    "PipelineResult",
    "run_pipeline",
    "RangeCube",
    "SubjectLocation",
    "extract_range_bin",
    "locate_subject",
    "range_fft",
    "PipelineConfig",
    "RunConfig",
    "load_run_config",
    "ScgChannel",
    "ScgTrace",
    "load_scg_csv",
    "scg_to_displacement",
    "RawDataCube",
    "SampledMotion",
    "ScatterPoint",
    "Scene",
    "SinusoidMotion",
    "simulate",
    "synthesize_frame",
    "DisplacementTrace",
    "dominant_frequency",
    "extract_phase",
    "phase_to_displacement",
    "region_signal_to_trace",
    "spectral_peak_frequency",
    "__version__",
]

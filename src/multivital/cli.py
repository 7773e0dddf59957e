"""Command-line entry points: simulate, process, scg, compare, e2e.

Exit codes: 0 on success, 1 for data/processing errors (a JSON object with
"error" and "message" goes to stderr), 2 for usage errors (argparse).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

import numpy as np

from .config import derive_waveform
from .errors import MultivitalError
from .io import (
    export_angle_map,
    export_scg_traces,
    export_traces,
    load_cube,
    load_scg_csv,
    read_trace_table,
    save_cube,
    trace_rate_hz,
    write_cube,
    write_report,
)
from .metrics import compare_traces
from .pipeline import frames_per_chunk, make_angle_map, run_pipeline
from .runconfig import load_run_config
from .scg import scg_to_displacement
from .simulate import simulate, simulate_chunks
from .vitals import DisplacementTrace, dominant_frequency


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multivital",
        description="FMCW MIMO radar vital-sign simulation and processing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a raw data cube from a scene config")
    p.add_argument("--config", required=True, help="config file path or bundled name")
    p.add_argument("--out", required=True, help="output cube path (.mvdc)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("process", help="recover per-region displacement traces from a cube")
    p.add_argument("--cube", required=True, help="input .mvdc cube")
    p.add_argument("--config", required=True, help="config file path or bundled name")
    p.add_argument("--out", required=True, help="output trace CSV path")
    p.add_argument("--angle-map", default=None, dest="angle_map",
                   help="also write a frame-0 angle map CSV to this path")
    p.set_defaults(func=_cmd_process)

    p = sub.add_parser("scg", help="integrate accelerometer channels to displacement")
    p.add_argument("--in", dest="infile", required=True, help="accelerometer CSV")
    p.add_argument("--out", required=True, help="output displacement CSV path")
    p.set_defaults(func=_cmd_scg)

    p = sub.add_parser("compare", help="correlation and frequency metrics between trace tables")
    p.add_argument("--radar", required=True, help="radar trace CSV")
    p.add_argument("--ref", required=True, help="reference trace CSV")
    p.add_argument("--out", required=True, help="output report JSON path")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("e2e", help="simulate, process, and compare against ground truth")
    p.add_argument("--config", required=True, help="config file path or bundled name")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_e2e)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except MultivitalError as exc:
        _fail(exc.code, str(exc))
        return 1
    except FileNotFoundError as exc:
        _fail("io", f"file not found: {exc.filename or exc}")
        return 1
    except OSError as exc:
        _fail("io", str(exc))
        return 1


def _fail(code: str, message: str) -> None:
    json.dump({"error": code, "message": message}, sys.stderr)
    sys.stderr.write("\n")


def _cmd_simulate(args) -> int:
    cfg = load_run_config(args.config)
    scene, chirp, geom = cfg.scene, cfg.chirp, cfg.geometry
    # One chunk of frames at a time: each is written before the next is made.
    step = frames_per_chunk(8 * geom.n_tx * geom.n_rx * chirp.n_adc)
    write_cube(args.out, chirp, geom, scene.seed, simulate_chunks(scene, chirp, geom, step))
    print(f"wrote {args.out}: {chirp.n_frames} frames, {geom.n_tx}x{geom.n_rx} channels, "
          f"{chirp.n_adc} samples")
    return 0


def _require_directories(*paths: str | None) -> None:
    """Raise FileNotFoundError naming the first output path whose directory
    does not exist, so a run fails before its work rather than at its
    first write."""
    for path in paths:
        if path is not None and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise FileNotFoundError(errno.ENOENT, "no such directory", path)


def _cmd_process(args) -> int:
    cfg = load_run_config(args.config)
    _require_directories(args.out, args.angle_map)
    cube = load_cube(args.cube, geometry=cfg.geometry)
    result = run_pipeline(cube, cfg.pipeline, layout=cfg.layout)
    export_traces(result.traces, args.out)
    if args.angle_map:
        export_angle_map(make_angle_map(cube, cfg.pipeline, result), args.angle_map)
    print(f"subject at {result.range_m:.3f} m (bin {result.range_bin}), "
          f"azimuth peak {np.degrees(result.azimuth_peak_rad):.2f} deg; "
          f"wrote {len(result.traces)} trace(s) to {args.out}")
    return 0


def _cmd_scg(args) -> int:
    channels, ecg, _ = load_scg_csv(args.infile)
    traces = [tr for ch in channels for tr in scg_to_displacement(ch)]
    export_scg_traces(traces, ecg, args.out)
    print(f"wrote {len(traces)} trace(s) to {args.out}")
    return 0


def _paired_tables(radar_tbl: dict, ref_tbl: dict) -> dict:
    """Match radar regions to reference keys, including per-axis SCG keys.

    A radar region "A" pairs with a reference "A" or with "A.x"/"A.y"/"A.z";
    per-axis pairs keep the axis suffix in the output key. No pair at all
    is left for compare_traces to refuse.
    """
    pairs = {}
    for rid, entry in radar_tbl.items():
        rate = trace_rate_hz(entry["time_s"])
        for key in ref_tbl:
            if key != rid and not key.startswith(rid + "."):
                continue
            ref_entry = ref_tbl[key]
            pairs[key] = ((entry["displacement_mm"], rate),
                          (ref_entry["displacement_mm"], trace_rate_hz(ref_entry["time_s"])))
    return pairs


def _cmd_compare(args) -> int:
    radar_tbl = read_trace_table(args.radar)
    ref_tbl = read_trace_table(args.ref)
    report = compare_traces(_paired_tables(radar_tbl, ref_tbl))
    write_report({"regions": report}, args.out)
    worst = min(entry["rho"] for entry in report.values())
    print(f"compared {len(report)} region(s), lowest rho {worst:.3f}; "
          f"wrote {args.out}")
    return 0


def _truth_traces(cfg, region_ids) -> list[DisplacementTrace]:
    """Ground-truth displacement per region from the scene's own motion."""
    frame_rate = cfg.chirp.frame_rate
    times = np.arange(cfg.chirp.n_frames) / frame_rate
    wl = derive_waveform(cfg.chirp).wavelength
    traces = []
    for rid, point in zip(region_ids, cfg.scene.points):
        d = point.radial_displacement(times)  # m
        traces.append(DisplacementTrace(
            region=rid,
            frame_rate=frame_rate,
            displacement=d * 1000.0,
            phase=4.0 * np.pi * d / wl,
        ))
    return traces


def _cmd_e2e(args) -> int:
    cfg = load_run_config(args.config)
    names = {"cube": "cube.mvdc", "traces": "traces.csv",
             "truth": "truth.csv", "report": "report.json"}
    paths = {k: os.path.join(args.out, v) for k, v in names.items()}
    os.makedirs(args.out, exist_ok=True)

    cube = simulate(cfg.scene, cfg.chirp, cfg.geometry)
    save_cube(cube, paths["cube"])
    result = run_pipeline(cube, cfg.pipeline, layout=cfg.layout)
    export_traces(result.traces, paths["traces"])

    region_ids = list(result.region_points)
    doc: dict = {
        "subject": {
            "range_bin": result.range_bin,
            "range_m": result.range_m,
            "runner_up_ratio": result.runner_up_ratio,
            "located_frames": result.located_frames,
            "azimuth_peak_deg": float(np.degrees(result.azimuth_peak_rad)),
            "elevation_peak_deg": float(np.degrees(result.elevation_peak_rad)),
        },
        "regions": {},
        "files": {"cube": paths["cube"], "traces": paths["traces"]},
    }
    for tr in result.traces:
        doc["regions"][tr.region] = {
            "dominant_frequency_hz": dominant_frequency(tr),
            "peak_to_peak_phase_rad": float(np.ptp(tr.phase)),
            "peak_to_peak_displacement_mm": float(np.ptp(tr.displacement)),
        }

    if len(cfg.scene.points) == len(region_ids):
        truth = _truth_traces(cfg, region_ids)
        export_traces(truth, paths["truth"])
        doc["files"]["truth"] = paths["truth"]
        frame_rate = cfg.chirp.frame_rate
        report = compare_traces({
            tr.region: ((tr.displacement, frame_rate), (ref.displacement, frame_rate))
            for tr, ref in zip(result.traces, truth)
        })
        for rid, entry in report.items():
            doc["regions"][rid].update(entry)

    write_report(doc, paths["report"])
    first = doc["regions"][region_ids[0]]
    print(f"subject at {result.range_m:.3f} m; region {region_ids[0]}: "
          f"{first['dominant_frequency_hz']:.3f} Hz, "
          f"{first['peak_to_peak_phase_rad']:.3f} rad peak to peak; "
          f"wrote {paths['report']}")
    return 0

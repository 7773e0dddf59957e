"""The workloads: seeded inputs, the CLI calls of one op, output checks.

Configs are derived in code from the bundled ones; every input is made from
the seed, so the same seed gives the same files.

- phantom: the paper's headline scene end to end, then the SCG validation of
  its five regions: ``e2e``, ``scg`` on a chest accelerometer recording of
  the same motion, and ``compare`` of the radar traces against it. The only
  op that runs the exact-path simulator, the cube write path and the SCG
  and trace-CSV layers.
- capture: an 81 s single-target capture processed from disk with an angle
  map. The op reads the cube and runs the range stage twice but never
  simulates, so it is the read-side counterpart to phantom.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from multivital.runconfig import load_run_config

SPEED_OF_LIGHT = 299_792_458.0  # m/s


@dataclass
class Check:
    """Outcome of checking one op's outputs."""

    rho_min: float = float("nan")
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def require(self, cond: bool, message: str) -> None:
        if not cond:
            self.problems.append(message)


def bundled_config(name: str) -> dict:
    return json.loads(
        (resources.files("multivital") / "configs" / f"{name}.json").read_text()
    )


def xcorr_rho(a: np.ndarray, b: np.ndarray) -> float:
    """Peak normalized cross-correlation magnitude over all lags."""
    a = np.asarray(a, dtype=np.float64) - np.mean(a)
    b = np.asarray(b, dtype=np.float64) - np.mean(b)
    c = np.abs(np.correlate(a, b, mode="full")).max()
    return float(c / math.sqrt(np.dot(a, a) * np.dot(b, b)))


def read_trace_csv(path: Path) -> dict[str, np.ndarray]:
    """Displacement column of a radar trace CSV, per region."""
    grouped: dict[str, list[float]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            grouped.setdefault(row["region"], []).append(float(row["displacement_mm"]))
    return {k: np.array(v) for k, v in grouped.items()}


def range_bin_width_m(chirp: dict, n_fft: int) -> float:
    return SPEED_OF_LIGHT * chirp["fs_hz"] / (2.0 * chirp["k_chirp_hz_per_s"] * n_fft)


class Workload:
    name = ""
    rho_floor = 0.0

    def __init__(self, size: str = "full"):
        if size not in ("full", "tiny"):
            raise ValueError(f"size must be full or tiny, got {size!r}")
        self.size = size

    def derive_config(self, seed: int) -> dict:
        """The run config for this seed."""
        raise NotImplementedError

    def prepare(self, workdir: Path, seed: int) -> tuple[dict, float, float]:
        """Write the config and inputs into workdir.

        The config is loaded through ``load_run_config`` so a bad derived
        config fails in set-up, not in the first op.

        Returns
        -------
        (inputs, config_s, inputs_s): the input paths, the CPU seconds spent
        in ``load_run_config``, and the CPU seconds spent making everything
        else.
        """
        t0 = time.process_time()
        workdir.mkdir(parents=True, exist_ok=True)
        doc = self.derive_config(seed)
        inputs = {"dir": workdir, "doc": doc, "config": workdir / "config.json"}
        inputs["config"].write_text(json.dumps(doc))
        t1 = time.process_time()
        load_run_config(str(inputs["config"]))
        t2 = time.process_time()
        self.make_inputs(inputs, seed)
        t3 = time.process_time()
        return inputs, t2 - t1, (t1 - t0) + (t3 - t2)

    def make_inputs(self, inputs: dict, seed: int) -> None:
        raise NotImplementedError

    def outputs(self, inputs: dict, outdir: Path) -> dict[str, Path]:
        raise NotImplementedError

    def argvs(self, inputs: dict, outdir: Path) -> list[list[str]]:
        raise NotImplementedError

    def clear(self, inputs: dict, outdir: Path) -> None:
        """Delete a previous op's outputs so a check never reads stale files."""
        outdir.mkdir(parents=True, exist_ok=True)
        for path in self.outputs(inputs, outdir).values():
            path.unlink(missing_ok=True)

    def check(self, inputs: dict, outdir: Path, stdout: str) -> Check:
        raise NotImplementedError


class Phantom(Workload):
    """``e2e`` on phantom-five-point, then ``scg`` and ``compare`` against it.

    The scene seed comes from --seed. The accelerometer recording follows
    each region's scripted motion, seen along a seeded sensor orientation,
    with a constant zero-point offset and seeded noise.
    """

    name = "phantom"
    rho_floor = 0.9
    expected_range_m = 0.5
    offset_m_s2 = 0.05
    noise_m_s2 = 0.0005

    def derive_config(self, seed: int) -> dict:
        doc = bundled_config("phantom-five-point")
        doc["scene"]["seed"] = seed
        if self.size == "tiny":
            # 15 s, long enough for the SCG filters, in few short frames
            doc["chirp"].update(n_frames=150, t_frame_s=0.1, n_adc=64)
            doc["pipeline"]["n_fft_range"] = 64
        return doc

    def scg_rate_hz(self) -> float:
        return 50.0 if self.size == "tiny" else 200.0

    def regions(self, doc: dict) -> dict[str, dict]:
        """Layout region id -> the scene point's motion, in scene order."""
        return {rid: point["motion"] for rid, point in
                zip(doc["layout"]["positions_m"], doc["scene"]["points"])}

    def make_inputs(self, inputs, seed):
        doc = inputs["doc"]
        rate = self.scg_rate_hz()
        n = int(round(doc["chirp"]["n_frames"] * doc["chirp"]["t_frame_s"] * rate))
        t = np.arange(n) / rate
        rng = np.random.default_rng([seed, 1])
        cols = [t]
        for m in self.regions(doc).values():
            w = 2.0 * np.pi * m["frequency_hz"]
            acc = -m["amplitude_m"] * w * w * np.sin(w * t + m["phase_rad"])
            axes = rng.uniform(0.4, 1.0, 3) * rng.choice([-1.0, 1.0], 3)
            for c in axes / np.linalg.norm(axes):
                cols.append(c * acc + self.offset_m_s2 + rng.normal(0.0, self.noise_m_s2, n))
        cols.append(rng.normal(0.0, 1.0, n))  # ecg, passed through
        header = (["time_s"] + [f"{r}_a{a}" for r in self.regions(doc) for a in "xyz"]
                  + ["ecg"])
        inputs["accel"] = inputs["dir"] / "accel.csv"
        np.savetxt(inputs["accel"], np.column_stack(cols), delimiter=",",
                   header=",".join(header), comments="", fmt="%.10g")
        inputs["accel_samples"] = n

    def outputs(self, inputs, outdir):
        names = (("cube", "mvdc"), ("traces", "csv"), ("truth", "csv"), ("report", "json"),
                 ("scg", "csv"), ("scg_report", "json"))
        return {k: outdir / f"{k}.{ext}" for k, ext in names}

    def argvs(self, inputs, outdir):
        out = self.outputs(inputs, outdir)
        return [
            ["e2e", "--config", str(inputs["config"]), "--out", str(outdir)],
            ["scg", "--in", str(inputs["accel"]), "--out", str(out["scg"])],
            ["compare", "--radar", str(out["traces"]), "--ref", str(out["scg"]),
             "--out", str(out["scg_report"])],
        ]

    def truth(self, doc: dict) -> dict[str, np.ndarray]:
        """Radial displacement of each layout region's point, mm."""
        chirp = doc["chirp"]
        t = np.arange(chirp["n_frames"]) * chirp["t_frame_s"]
        out = {}
        for rid, point in zip(doc["layout"]["positions_m"], doc["scene"]["points"]):
            m = point["motion"]
            d = m["amplitude_m"] * np.sin(2 * np.pi * m["frequency_hz"] * t + m["phase_rad"])
            p = np.asarray(point["position_m"])[None, :] + d[:, None] * np.asarray(m["direction"])
            r = np.linalg.norm(p, axis=1)
            out[rid] = (r - r[0]) * 1000.0
        return out

    def check(self, inputs, outdir, stdout):
        doc = inputs["doc"]
        chirp = doc["chirp"]
        out = self.outputs(inputs, outdir)
        chk = Check()
        missing = [k for k, p in out.items() if not p.is_file()]
        chk.require(not missing, f"missing outputs {missing}")
        if missing:
            return chk
        n_samples = chirp["n_frames"] * 12 * 16 * chirp["n_adc"]
        chk.require(out["cube"].stat().st_size == 72 + 8 * n_samples,
                    "cube file has the wrong size")
        report = json.loads(out["report"].read_text())
        width = range_bin_width_m(chirp, doc["pipeline"]["n_fft_range"])
        range_m = report["subject"]["range_m"]
        chk.require(abs(range_m - self.expected_range_m) <= width,
                    f"subject at {range_m:.3f} m, not within one bin of 0.5 m")
        regions = list(doc["layout"]["positions_m"])
        chk.require(list(report["regions"]) == regions,
                    f"report regions {list(report['regions'])} != {regions}")
        traces = read_trace_csv(out["traces"])
        chk.require(list(traces) == regions, f"trace regions {list(traces)} != {regions}")

        pairs = {f"{r}.{a}" for r in regions for a in "xyz"}
        with open(out["scg"], "rb") as fh:
            lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
        chk.require(lines == 1 + len(pairs) * inputs["accel_samples"],
                    f"scg output has {lines} lines")
        chk.require(f"wrote {len(pairs)} trace(s)" in stdout, "scg did not report 15 traces")
        scg_rhos = json.loads(out["scg_report"].read_text())["regions"]
        chk.require(set(scg_rhos) == pairs, f"scg comparison keys {sorted(scg_rhos)}")
        if chk.ok:
            truth = self.truth(doc)
            chk.rho_min = min([xcorr_rho(traces[r], truth[r]) for r in regions]
                              + [rc["rho"] for rc in scg_rhos.values()])
            chk.require(chk.rho_min > self.rho_floor,
                        f"rho_min {chk.rho_min:.4f} <= floor {self.rho_floor}")
        return chk


class Capture(Workload):
    """``process --angle-map`` on a saved 600-frame single-target cube."""

    name = "capture"
    rho_floor = 0.95
    expected_range_m = 5.0
    expected_azimuth_deg = math.degrees(math.atan2(3.0, 4.0))
    azimuth_tolerance_deg = 1.0
    _SUMMARY = re.compile(
        r"subject at ([-\d.]+) m \(bin \d+\), azimuth peak ([-\d.]+) deg; "
        r"wrote (\d+) trace"
    )

    def derive_config(self, seed):
        doc = bundled_config("sim-single-target")
        doc["chirp"]["n_frames"] = 32 if self.size == "tiny" else 600
        doc["scene"]["seed"] = seed
        # Only the motion's phase varies: at 7.4 frames/s the bundled 1 mm,
        # 1 Hz motion already moves close to the lambda/4 per frame that
        # phase unwrapping can follow.
        motion = doc["scene"]["points"][0]["motion"]
        motion["phase_rad"] = float(np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi))
        return doc

    def make_inputs(self, inputs, seed):
        from multivital.cli import main

        inputs["cube"] = inputs["dir"] / "capture.mvdc"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(["simulate", "--config", str(inputs["config"]),
                       "--out", str(inputs["cube"])])
        if rc != 0:
            raise RuntimeError(f"simulate for the capture input exited {rc}")

    def outputs(self, inputs, outdir):
        return {"traces": outdir / "traces.csv", "angle_map": outdir / "angle_map.csv"}

    def argvs(self, inputs, outdir):
        out = self.outputs(inputs, outdir)
        return [["process", "--cube", str(inputs["cube"]), "--config", str(inputs["config"]),
                 "--out", str(out["traces"]), "--angle-map", str(out["angle_map"])]]

    def truth(self, doc):
        chirp = doc["chirp"]
        m = doc["scene"]["points"][0]["motion"]
        t = np.arange(chirp["n_frames"]) * chirp["t_frame_s"]
        return 1000.0 * m["amplitude_m"] * np.sin(
            2 * np.pi * m["frequency_hz"] * t + m["phase_rad"])

    def check(self, inputs, outdir, stdout):
        doc = inputs["doc"]
        out = self.outputs(inputs, outdir)
        chk = Check()
        missing = [k for k, p in out.items() if not p.is_file()]
        chk.require(not missing, f"missing outputs {missing}")
        summary = self._SUMMARY.search(stdout)
        chk.require(summary is not None, "no subject summary on stdout")
        if not chk.ok:
            return chk
        range_m, az_deg, n_traces = float(summary[1]), float(summary[2]), int(summary[3])
        width = range_bin_width_m(doc["chirp"], doc["pipeline"]["n_fft_range"])
        chk.require(abs(range_m - self.expected_range_m) <= width,
                    f"subject at {range_m:.3f} m, not within one bin of 5 m")
        chk.require(abs(az_deg - self.expected_azimuth_deg) <= self.azimuth_tolerance_deg,
                    f"azimuth peak {az_deg:.2f} deg, expected about "
                    f"{self.expected_azimuth_deg:.2f}")
        grid = np.loadtxt(out["angle_map"], delimiter=",", skiprows=1)
        chk.require(grid.shape == (doc["pipeline"]["n_fft_azimuth"], 92),
                    f"angle map has shape {grid.shape}")
        map_az = grid[int(np.argmax(grid[:, 1:].max(axis=1))), 0]
        chk.require(abs(map_az - self.expected_azimuth_deg) <= self.azimuth_tolerance_deg,
                    f"angle map peaks at {map_az:.2f} deg azimuth")
        traces = read_trace_csv(out["traces"])
        chk.require(n_traces == 1 and list(traces) == ["A"],
                    f"expected one trace A, got {list(traces)}")
        if chk.ok:
            chk.rho_min = xcorr_rho(traces["A"], self.truth(doc))
            chk.require(chk.rho_min > self.rho_floor,
                        f"rho_min {chk.rho_min:.4f} <= floor {self.rho_floor}")
        return chk


WORKLOADS = {w.name: w for w in (Phantom, Capture)}

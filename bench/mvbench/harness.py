"""Closed-loop runner: one client, each op starts after the previous one ends.

A run sets the workload up SETUP_REPS times, runs one warm-up op, then runs
ops back to back for ``seconds``. Every op's outputs are checked before its
time counts; a failed check never yields a timing.
The end-to-end times are CPU seconds of this process (user + system, all
threads): on a shared VM the wall time of an op also holds the time the
host gave its CPUs to other guests (steal), which came and went between
0 and 50 % within minutes, while CPU time leaves it out. Wall times are
reported next to them.
With tracing on, the first half of the window runs plain ops and the second
half traced ops, so the same process gives the tracing overhead. Traced ops
alternate between timing only and timing with memory; layer times come from
the first kind, layer peaks from the second.
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from multivital.cli import main as cli_main

from .env import BENCH_DIR, keep_freed_memory, ref_loop_s
from .trace import MIB, SPAN_METRICS, Tracer, aggregate, span_metrics, spans_as_records
from .workloads import WORKLOADS, Check

SETUP_REPS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("e2e_cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("rho_min", "ratio"),
)

SPAN_METRIC_NAMES = [m for m, _, _, _ in SPAN_METRICS] + ["simulate.frames_per_s"]
PEAK_METRICS = {m for m, _, _, f in SPAN_METRICS if f == "peak_mb"}

PER_LAYER = tuple((m, unit) for m, unit, _, _ in SPAN_METRICS) + (
    ("simulate.frames_per_s", "1/s"),
    ("setup.import_s", "s"),
    ("runconfig.load_run_config_s", "s"),
    ("setup.inputs_s", "s"),
    ("e2e_wall_s", "s"),
    ("trace.op_s", "s"),
    ("trace.overhead_s", "s"),
    ("warmup.op_s", "s"),
    ("host.ref_loop_s", "s"),
)


@dataclass
class RunResult:
    workload: str
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, dict] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def summary(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics}


def _median(values) -> float:
    return statistics.median(values) if values else math.nan


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB


def run_op(workload, inputs: dict, outdir: Path, tracer: Tracer | None = None):
    """One op through ``multivital.cli.main``.

    Returns (wall seconds, CPU seconds of the process, Check).
    """
    workload.clear(inputs, outdir)
    gc.collect()  # every op starts from a collected heap
    out, err = io.StringIO(), io.StringIO()
    rc = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t, c = time.perf_counter(), time.process_time()
        for argv in workload.argvs(inputs, outdir):
            if tracer is None:
                rc = cli_main(argv)
            else:
                rc = tracer.op(f"cli.{argv[0]}", cli_main, argv)
            if rc != 0:
                break
        seconds, cpu_s = time.perf_counter() - t, time.process_time() - c
    if rc != 0:
        return seconds, cpu_s, Check(
            problems=[f"{argv[0]} exited {rc}: {err.getvalue().strip()}"])
    return seconds, cpu_s, workload.check(inputs, outdir, out.getvalue())


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float,
                 size: str = "full", work_root: Path = BENCH_DIR) -> RunResult:
    """Set up, warm up and measure one workload in this process.

    import_s is the CPU time the process spent before it could set up.
    ``seconds`` is a wall-clock window.

    Generated inputs and outputs live in a temporary directory under
    work_root that is deleted on return.
    """
    workload = WORKLOADS[name](size)
    res = RunResult(workload=name)
    ref_before = ref_loop_s()
    plain: list[float] = []  # wall seconds of plain ops
    plain_cpu: list[float] = []
    traced: list[float] = []  # timing-only traced ops
    layer_samples: list[dict[str, float]] = []
    memory_samples: list[dict[str, float]] = []
    rhos: list[float] = []

    def record(chk: Check) -> bool:
        """Count an op; True when its time may count."""
        res.attempted += 1
        if chk.ok:
            rhos.append(chk.rho_min)
        else:
            res.failed += 1
            res.problems.extend(chk.problems)
        return chk.ok

    with tempfile.TemporaryDirectory(dir=work_root, prefix=".work-") as tmp:
        tmp = Path(tmp)
        setups = []
        for k in range(SETUP_REPS):
            if k:
                shutil.rmtree(tmp / f"setup{k - 1}")
            inputs, config_s, inputs_s = workload.prepare(tmp / f"setup{k}", seed)
            setups.append((config_s, inputs_s))
        outdir = tmp / "out"
        # Only now: set-up pays what a fresh process pays, and its
        # allocations would leave the kept heap fragmented differently from
        # run to run, and so the peak.
        malloc = keep_freed_memory()

        warmup_s, _, chk = run_op(workload, inputs, outdir)
        warmup_rss_mb = _max_rss_mb()
        record(chk)
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if res.failed and elapsed >= seconds:
                break
            # An op starts only if one like the last fits in the window, so
            # a run ends on time; the first op of each kind always runs.
            if trace and plain and (traced or elapsed >= seconds / 2
                                    or elapsed + plain[-1] > seconds):
                if traced and memory_samples and elapsed + traced[-1] > seconds:
                    break
                memory = len(memory_samples) < len(layer_samples)
                with Tracer(memory) as tracer:
                    op_s, _, chk = run_op(workload, inputs, outdir, tracer)
                if record(chk):
                    if not memory:
                        traced.append(op_s)
                    samples = memory_samples if memory else layer_samples
                    samples.append(span_metrics(aggregate(tracer.spans)))
                    res.spans.extend(spans_as_records(tracer.spans, res.attempted))
            else:
                if plain and elapsed + plain[-1] > seconds:
                    break
                op_s, cpu_s, chk = run_op(workload, inputs, outdir)
                if record(chk):
                    plain.append(op_s)
                    plain_cpu.append(cpu_s)
    ref_after = ref_loop_s()

    setup_s = import_s + _median([c + i for c, i in setups])
    rho_min = min(rhos) if rhos else math.nan
    if trace:
        values = {
            m: _median([s[m] for s in (memory_samples if m in PEAK_METRICS else layer_samples)])
            for m in SPAN_METRIC_NAMES
        }
        values.update({
            "setup.import_s": import_s,
            "runconfig.load_run_config_s": _median([c for c, _ in setups]),
            "setup.inputs_s": _median([i for _, i in setups]),
            "e2e_wall_s": _median(plain),
            "trace.op_s": _median(traced),
            "trace.overhead_s": _median(traced) - _median(plain),
            "warmup.op_s": warmup_s,
            "host.ref_loop_s": (ref_before + ref_after) / 2.0,
        })
        units = dict(PER_LAYER)
    else:
        values = {
            "setup_s": setup_s,
            "e2e_cpu_s": _median(plain_cpu),
            "peak_rss_mb": warmup_rss_mb,
            "rho_min": rho_min,
        }
        units = dict(END_TO_END)
    res.metrics = {
        m: {"value": None if math.isnan(v) else v, "unit": units[m]}
        for m, v in values.items()
    }

    timed, timed_cpu = sorted(plain), sorted(plain_cpu)
    res.notes = [
        f"{name}: seed {seed}, {res.attempted} op(s) incl. warm-up, "
        f"{res.failed} failed; closed loop, 1 client; malloc for the ops: {malloc}",
        f"{name}/setup_s = {setup_s:.4f} s (import {import_s:.4f} s + median of "
        f"{SETUP_REPS} config+input set-ups, CPU time)",
        f"{name}/e2e_cpu_s = {_median(plain_cpu):.4f} s, median of n={len(plain)} plain "
        f"op(s)" + (f" (min {timed_cpu[0]:.4f}, max {timed_cpu[-1]:.4f})" if timed else ""),
        f"e2e_wall_s = {_median(plain):.4f} s" + (
            f" (min {timed[0]:.4f}, max {timed[-1]:.4f})" if timed else ""),
        f"{name}/rho_min = {rho_min:.5f} (floor {workload.rho_floor})",
        f"warmup.op_s = {warmup_s:.4f} s; host.ref_loop_s before {ref_before:.4f} s, "
        f"after {ref_after:.4f} s",
    ]
    if trace:
        res.notes.append(
            f"traced: n={len(traced)} timing op(s) + {len(memory_samples)} memory op(s), "
            f"trace.op_s = {_median(traced):.4f} s, "
            f"trace.overhead_s = {_median(traced) - _median(plain):.4f} s")
    else:
        res.notes.append(f"{name}/peak_rss_mb = {warmup_rss_mb:.1f} MiB through the warm-up "
                         f"op, {_max_rss_mb():.1f} MiB at the end")
    return res

"""Fast checks of the benchmark itself, at tiny input sizes."""

import contextlib
import importlib.util
import io
import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from mvbench.env import use_checkout_sources  # noqa: E402

use_checkout_sources()

from multivital.cli import main  # noqa: E402
from mvbench import harness, workloads  # noqa: E402
from mvbench.trace import Tracer, aggregate  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny_run(name, tmp_path, trace):
    res = harness.run_workload(name, seed=5, seconds=0.0, trace=trace, import_s=0.5,
                               size="tiny", work_root=tmp_path)
    assert res.correct, res.problems
    assert list(tmp_path.iterdir()) == []  # the work directory is gone
    return res


def test_spec_matches_what_the_runner_reports():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(harness.PER_LAYER)


def test_plain_run_reports_every_end_to_end_metric(tmp_path):
    res = tiny_run("capture", tmp_path, trace=False)
    assert list(res.metrics) == [m for m, _ in harness.END_TO_END]
    assert all(v["value"] > 0 for v in res.metrics.values())
    assert res.attempted == 2 and res.failed == 0  # warm-up plus one timed op


def test_traced_phantom_counts_frames_and_accounts_for_the_op(tmp_path):
    res = tiny_run("phantom", tmp_path, trace=True)
    values = {m: v["value"] for m, v in res.metrics.items()}
    assert list(values) == [m for m, _ in harness.PER_LAYER]
    assert values["simulate.synthesize_frame.calls"] == 150
    assert values["simulate.peak_mb"] > 0 and values["rangeproc.range_fft.peak_mb"] > 0
    assert values["scg.samples"] == 15 * 750 and values["cli.scg.self_s"] > 0
    assert values["metrics.normalized_xcorr_max.calls"] == 5 + 15
    assert values["io.load_cube_s"] == 0.0  # a layer phantom never runs

    op_spans = [s for s in res.spans if s["op"] == res.spans[0]["op"]]  # a timing op
    roots = [s for s in op_spans if s["parent"] is None]
    assert [r["name"] for r in roots] == ["cli.e2e", "cli.scg", "cli.compare"]
    e2e_s = roots[0]["end"] - roots[0]["start"]
    child_s = sum(s["end"] - s["start"] for s in op_spans if s["parent"] == roots[0]["id"])
    assert values["cli.e2e.self_s"] + child_s == pytest.approx(e2e_s, abs=1e-9)
    roots_s = sum(r["end"] - r["start"] for r in roots)
    assert roots_s <= values["trace.op_s"] < roots_s + 0.05


def test_traced_capture_runs_the_range_stage_twice(tmp_path):
    res = tiny_run("capture", tmp_path, trace=True)
    values = {m: v["value"] for m, v in res.metrics.items()}
    assert values["rangeproc.range_fft.calls"] == 2
    assert values["io.load_cube.bytes"] == 72 + 8 * 32 * 12 * 16 * 512
    assert values["simulate.synthesize_frame.calls"] == 0  # simulated in set-up only
    assert values["scg.scg_to_displacement_s"] == 0.0


def test_tracer_self_time_threads_and_recursion():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: traced_leaf(), range(4)))

    def countdown(n):
        return n if n == 0 else traced_countdown(n - 1)

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_countdown = tracer.wrap(countdown, "countdown")
    tracer.op("root", lambda: (tracer.wrap(fan_out, "fan_out")(), traced_countdown(3)))
    totals = aggregate(tracer.spans)

    fan_idx = next(i for i, s in enumerate(tracer.spans) if s.name == "fan_out")
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 4 and all(s.parent == fan_idx for s in leaves)
    assert totals["leaf"].seconds >= 0.04  # busy time summed over threads
    assert totals["fan_out"].self_seconds < totals["fan_out"].seconds - 0.015
    assert totals["countdown"].calls == 1  # recursive calls are not counted again


def test_inputs_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    phantom = workloads.Phantom("tiny")
    files = []
    for i, seed in enumerate((7, 7, 8)):
        inputs, _, _ = phantom.prepare(tmp_path / str(i), seed)
        files.append(inputs["accel"].read_bytes() + inputs["config"].read_bytes())
    assert files[0] == files[1] != files[2]
    for cls in (workloads.Phantom, workloads.Capture):
        w = cls("tiny")
        assert w.derive_config(7) == w.derive_config(7) != w.derive_config(8)


def test_failed_ops_never_pass_their_check(tmp_path):
    capture = workloads.Capture("tiny")
    inputs, _, _ = capture.prepare(tmp_path / "in", 3)
    outdir = tmp_path / "out"
    capture.clear(inputs, outdir)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(capture.argvs(inputs, outdir)[0]) == 0
    assert capture.check(inputs, outdir, out.getvalue()).ok

    wrong = out.getvalue().replace("azimuth peak", "azimuth peak 1")
    assert not capture.check(inputs, outdir, wrong).ok
    traces = outdir / "traces.csv"
    traces.write_text(traces.read_text().replace(",A,", ",P,"))
    assert not capture.check(inputs, outdir, out.getvalue()).ok

    inputs["cube"].unlink()
    _, _, chk = harness.run_op(capture, inputs, outdir)
    assert not chk.ok and "process exited 1" in chk.problems[0]


def test_copy_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*", "results"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "phantom", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Spans around the public functions of each multivital layer.

The tracer swaps timing wrappers onto module attributes at the points where
callers look the functions up (``multivital.cli.simulate``,
``multivital.pipeline.range_fft``, the simulate module's
``synthesize_frame`` ...) and puts the originals back afterwards. Nothing
inside the package changes. Spans stay in memory (name, start, end, parent,
thread) and are aggregated per op into per-layer metrics.

A tracer built with ``memory=True`` also measures the spans in
MEMORY_SPANS: tracemalloc runs from their entry to their exit, and the
span's peak is the largest amount allocated since entry and not yet freed,
worker threads included. tracemalloc slows allocation-heavy code such as the
simulator twofold, so times come from ops traced without it.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
import tracemalloc
from dataclasses import dataclass, field

MIB = float(1 << 20)

MEMORY_SPANS = frozenset(
    {"simulate.simulate", "io.save_cube", "io.load_cube", "rangeproc.range_fft"}
)


def _file_bytes(path) -> dict:
    return {"bytes": os.path.getsize(path)}


# (module, attribute, span name, counters(args, result) -> dict)
WRAPS = (
    ("multivital.cli", "load_run_config", "runconfig.load_run_config", None),
    ("multivital.cli", "simulate", "simulate.simulate",
     lambda a, r: {"frames": r.samples.shape[0]}),
    ("multivital.simulate", "synthesize_frame", "simulate.synthesize_frame", None),
    ("multivital.cli", "save_cube", "io.save_cube", lambda a, r: _file_bytes(a[1])),
    ("multivital.cli", "load_cube", "io.load_cube", lambda a, r: _file_bytes(a[0])),
    ("multivital.cli", "run_pipeline", "pipeline.run_pipeline", None),
    ("multivital.cli", "make_angle_map", "pipeline.make_angle_map", None),
    ("multivital.cli", "export_traces", "io.export_traces", None),
    ("multivital.cli", "export_angle_map", "io.export_angle_map", None),
    ("multivital.cli", "write_report", "io.write_report", None),
    ("multivital.cli", "read_trace_table", "io.read_trace_table",
     lambda a, r: {"rows": sum(len(g["time_s"]) for g in r.values())}),
    ("multivital.cli", "load_scg_csv", "scg.load_scg_csv",
     lambda a, r: {"rows": len(r[2])}),
    ("multivital.cli", "scg_to_displacement", "scg.scg_to_displacement",
     lambda a, r: {"samples": sum(len(t.displacement) for t in r)}),
    ("multivital.cli", "compare_traces", "metrics.compare_traces", None),
    ("multivital.cli", "dominant_frequency", "vitals.dominant_frequency", None),
    ("multivital.pipeline", "range_fft", "rangeproc.range_fft",
     lambda a, r: {"bytes": a[0].samples.nbytes + r.bins.nbytes}),
    ("multivital.pipeline", "locate_subject", "rangeproc.locate_subject", None),
    ("multivital.pipeline", "extract_range_bin", "rangeproc.extract_range_bin", None),
    ("multivital.doa", "extract_range_bin", "rangeproc.extract_range_bin", None),
    ("multivital.pipeline", "estimate_angles", "pipeline.estimate_angles", None),
    ("multivital.pipeline", "select_region_signal", "doa.select_region_signal", None),
    ("multivital.pipeline", "angle_map", "doa.angle_map", None),
    ("multivital.pipeline", "build_phase_error_table", "doa.build_phase_error_table", None),
    ("multivital.doa", "build_phase_error_table", "doa.build_phase_error_table", None),
    ("multivital.pipeline", "build_virtual_array", "geometry.build_virtual_array", None),
    ("multivital.pipeline", "select_azimuth_ula", "geometry.select_azimuth_ula", None),
    ("multivital.pipeline", "compute_alignment", "metrics.compute_alignment", None),
    ("multivital.pipeline", "region_signal_to_trace", "vitals.region_signal_to_trace", None),
    ("multivital.metrics", "align_rates", "metrics.align_rates", None),
    ("multivital.metrics", "normalized_xcorr_max", "metrics.normalized_xcorr_max",
     lambda a, r: {"samples": len(a[0]) + len(a[1])}),
    ("multivital.metrics", "max_freq_difference", "metrics.max_freq_difference", None),
)


@dataclass
class Span:
    name: str
    parent: int | None
    thread: int
    start: float = 0.0
    end: float = 0.0
    peak_bytes: int | None = None
    counters: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans for one op; use as a context manager."""

    def __init__(self, memory: bool = False):
        self.spans: list[Span] = []
        self.memory = memory
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op_stack: list[int] = []
        self._memory_span: int | None = None  # the span tracemalloc runs for
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, object] = {}
        for module_name, attr, name, counters in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            key = id(original)
            if key not in wrappers:
                wrappers[key] = self.wrap(original, name, counters)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrappers[key])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, counters=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counters is not None:
                self.spans[idx].counters = counters(args, result)
            return result

        return traced

    def op(self, name: str, fn, *args):
        """Run fn(*args) as the root span; its thread is the op thread."""
        self._op_stack = self._stack()
        return self.wrap(fn, name)(*args)

    def _open(self, name: str) -> int:
        stack = self._stack()
        # A worker thread's first span hangs under the span the op thread
        # has open, which is the one that handed the work out.
        parents = stack[-1:] or self._op_stack[-1:]
        span = Span(name=name, parent=parents[0] if parents else None,
                    thread=threading.get_ident())
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        if self.memory and name in MEMORY_SPANS and not tracemalloc.is_tracing():
            self._memory_span = idx
            tracemalloc.start()
        stack.append(idx)
        span.start = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack().pop()
        if idx == self._memory_span:
            span.peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self._memory_span = None


@dataclass
class LayerTotals:
    seconds: float = 0.0
    self_seconds: float = 0.0
    calls: int = 0
    peak_bytes: int = 0
    counters: dict = field(default_factory=dict)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def aggregate(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per-name totals for one op.

    A span nested inside a span of the same name (a recursive call) adds
    neither time nor a call. Self time is a span's duration minus the part
    of it that its children cover.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: dict[str, LayerTotals] = {}
    for idx, span in enumerate(spans):
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is not None:
            continue
        t = totals.setdefault(span.name, LayerTotals())
        t.seconds += span.seconds
        t.self_seconds += span.seconds - _covered(children.get(idx, []))
        t.calls += 1
        if span.peak_bytes is not None:
            t.peak_bytes = max(t.peak_bytes, span.peak_bytes)
        for key, value in span.counters.items():
            t.counters[key] = t.counters.get(key, 0) + value
    return totals


def _get(totals: dict[str, LayerTotals], name: str, fieldname: str) -> float:
    t = totals.get(name)
    if t is None:
        return 0.0
    if fieldname == "s":
        return t.seconds
    if fieldname == "self_s":
        return t.self_seconds
    if fieldname == "calls":
        return float(t.calls)
    if fieldname == "peak_mb":
        return t.peak_bytes / MIB
    return float(t.counters.get(fieldname, 0))


# (metric, unit, span name, field). A layer the workload does not run
# reads 0.
SPAN_METRICS = (
    ("simulate.simulate_s", "s", "simulate.simulate", "s"),
    ("simulate.synthesize_frame.calls", "count", "simulate.synthesize_frame", "calls"),
    ("simulate.synthesize_frame.busy_s", "s", "simulate.synthesize_frame", "s"),
    ("simulate.peak_mb", "MiB", "simulate.simulate", "peak_mb"),
    ("io.save_cube_s", "s", "io.save_cube", "s"),
    ("io.save_cube.bytes", "bytes", "io.save_cube", "bytes"),
    ("io.save_cube.peak_mb", "MiB", "io.save_cube", "peak_mb"),
    ("io.load_cube_s", "s", "io.load_cube", "s"),
    ("io.load_cube.bytes", "bytes", "io.load_cube", "bytes"),
    ("io.load_cube.peak_mb", "MiB", "io.load_cube", "peak_mb"),
    ("rangeproc.range_fft_s", "s", "rangeproc.range_fft", "s"),
    ("rangeproc.range_fft.calls", "count", "rangeproc.range_fft", "calls"),
    ("rangeproc.range_fft.peak_mb", "MiB", "rangeproc.range_fft", "peak_mb"),
    ("rangeproc.range_fft.bytes", "bytes", "rangeproc.range_fft", "bytes"),
    ("rangeproc.locate_subject_s", "s", "rangeproc.locate_subject", "s"),
    ("rangeproc.extract_range_bin.calls", "count", "rangeproc.extract_range_bin", "calls"),
    ("pipeline.run_pipeline_s", "s", "pipeline.run_pipeline", "s"),
    ("pipeline.run_pipeline.self_s", "s", "pipeline.run_pipeline", "self_s"),
    ("pipeline.make_angle_map_s", "s", "pipeline.make_angle_map", "s"),
    ("pipeline.estimate_angles_s", "s", "pipeline.estimate_angles", "s"),
    ("doa.select_region_signal_s", "s", "doa.select_region_signal", "s"),
    ("doa.angle_map_s", "s", "doa.angle_map", "s"),
    ("doa.build_phase_error_table.calls", "count", "doa.build_phase_error_table", "calls"),
    ("geometry.select_azimuth_ula.calls", "count", "geometry.select_azimuth_ula", "calls"),
    ("vitals.region_signal_to_trace_s", "s", "vitals.region_signal_to_trace", "s"),
    ("io.read_trace_table_s", "s", "io.read_trace_table", "s"),
    ("io.read_trace_table.rows", "count", "io.read_trace_table", "rows"),
    ("scg.load_scg_csv_s", "s", "scg.load_scg_csv", "s"),
    ("scg.load_scg_csv.rows", "count", "scg.load_scg_csv", "rows"),
    ("scg.scg_to_displacement_s", "s", "scg.scg_to_displacement", "s"),
    ("scg.samples", "count", "scg.scg_to_displacement", "samples"),
    ("metrics.compare_traces_s", "s", "metrics.compare_traces", "s"),
    ("metrics.align_rates_s", "s", "metrics.align_rates", "s"),
    ("metrics.normalized_xcorr_max_s", "s", "metrics.normalized_xcorr_max", "s"),
    ("metrics.normalized_xcorr_max.calls", "count", "metrics.normalized_xcorr_max", "calls"),
    ("metrics.xcorr_samples", "count", "metrics.normalized_xcorr_max", "samples"),
    ("io.export_traces_s", "s", "io.export_traces", "s"),
    ("io.export_angle_map_s", "s", "io.export_angle_map", "s"),
    ("io.write_report_s", "s", "io.write_report", "s"),
    ("cli.e2e.self_s", "s", "cli.e2e", "self_s"),
    ("cli.process.self_s", "s", "cli.process", "self_s"),
    ("cli.scg.self_s", "s", "cli.scg", "self_s"),
    ("cli.compare.self_s", "s", "cli.compare", "self_s"),
)


def span_metrics(totals: dict[str, LayerTotals]) -> dict[str, float]:
    out = {metric: _get(totals, name, f) for metric, _, name, f in SPAN_METRICS}
    sim_s = _get(totals, "simulate.simulate", "s")
    frames = _get(totals, "simulate.simulate", "frames")
    out["simulate.frames_per_s"] = frames / sim_s if sim_s > 0 else 0.0
    return out


def spans_as_records(spans: list[Span], op: int) -> list[dict]:
    return [
        {"op": op, "id": i, "name": s.name, "parent": s.parent, "thread": s.thread,
         "start": s.start, "end": s.end, "peak_bytes": s.peak_bytes,
         **s.counters}
        for i, s in enumerate(spans)
    ]

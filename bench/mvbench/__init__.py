"""Benchmark of the multivital CLI: workloads, closed-loop runner, tracing."""

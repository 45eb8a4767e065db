"""The repo benchmark: a five-workload PIC ladder measured from outside.

``python -m benchmarks.perf --seed S`` (or the ``BENCHMARK.json`` command)
runs the workloads of :mod:`.workloads` on the unmodified ``src/repro``,
reports the end-to-end metrics with tracing off and the per-layer metrics
from a separate traced pass, and checks the physics of every run.  See
``README.md`` in this directory for the metric and workload tables.

Imports inside the package are relative so it works both as
``benchmarks.perf`` and, when launched by path, as the top-level ``perf``.
"""

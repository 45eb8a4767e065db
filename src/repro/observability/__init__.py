"""Observability: structured tracing, metrics, and run reports.

The measurement substrate behind every performance claim this
reproduction makes (and behind the paper's Figs. 5-7 / Tables 3-4 in the
original): hierarchical spans (step → phase → kernel, per rank/box/
level), a metrics registry whose every metric is a view of the run's
own books (step clock, communicator, load balancer, resilience), and text
dashboards plus a trace-summarizing CLI (``python -m
repro.observability``).

Quick start::

    from repro.observability import attach_observability

    tracer, metrics = attach_observability(sim)
    sim.step(100)
    tracer.to_chrome("trace.json")      # chrome://tracing
    tracer.to_jsonl("trace.jsonl")      # python -m repro.observability
    print(RunReport.from_timers(sim.timers).render())
"""

from repro.observability.commlog import (
    CommLogReplay,
    read_comm_log,
    write_comm_log,
)
from repro.observability.instrument import attach_observability
from repro.observability.metrics import (
    MetricsRegistry,
    comm_matrix_from_snapshot,
    metric_id,
    parse_metric_id,
)
from repro.observability.report import (
    RunReport,
    StepReport,
    percentiles,
    render_comm_matrix,
)
from repro.observability.tracer import (
    NULL_TRACER,
    SpanRecord,
    Tracer,
    build_tree,
    phase_span,
    read_jsonl,
)

__all__ = [
    "CommLogReplay",
    "read_comm_log",
    "write_comm_log",
    "attach_observability",
    "MetricsRegistry",
    "comm_matrix_from_snapshot",
    "metric_id",
    "parse_metric_id",
    "RunReport",
    "StepReport",
    "percentiles",
    "render_comm_matrix",
    "NULL_TRACER",
    "SpanRecord",
    "Tracer",
    "build_tree",
    "phase_span",
    "read_jsonl",
]

"""Unified observability: correlated message spans + metrics registry.

Spans are the one record; the event log and the histograms are views.

Quick start::

    from repro.obs import Observability

    obs = Observability(env)
    obs.attach(network)              # before deploying services
    ...run the workload...
    obs.collect()
    obs.registry.value("net.messages", scheme="soap.tcp")
    print(render_dashboard(obs.snapshot()))
    pathlib.Path("events.jsonl").write_text(obs.event_log())

See ``docs/observability.md`` for the namespace catalog and span model.
"""

from repro.obs.core import Observability, obs_of
from repro.obs.dashboard import (
    load_snapshot,
    render_dashboard,
    render_event_tail,
    render_metric_tables,
    render_pipeline_breakdown,
    render_slowest_spans,
    render_trace,
)
from repro.obs.eventlog import parse_jsonl, spans_to_jsonl
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_metric_name,
)
from repro.obs.spans import METRIC_LABELS, Span, SpanRecorder

__all__ = [
    "METRIC_LABELS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "SpanRecorder",
    "format_metric_name",
    "load_snapshot",
    "obs_of",
    "parse_jsonl",
    "render_dashboard",
    "render_event_tail",
    "render_metric_tables",
    "render_pipeline_breakdown",
    "render_slowest_spans",
    "render_trace",
    "spans_to_jsonl",
]

"""Run observability: telemetry, live progress, metrics, run reports.

The paper's vetting story is continuous - "every app-store submission" -
and a continuous service is only operable with continuous visibility.
This package is the telemetry layer threaded through every tier:

* :mod:`repro.obs.telemetry` - counters/gauges/spans, the versioned
  JSONL event sink behind ``EngineOptions(telemetry=...)`` /
  ``--telemetry-out``, and the in-process progress board the service's
  ``/jobs/<id>/progress`` endpoint reads;
* :mod:`repro.obs.progress` - the opt-in single-line stderr meter for
  ``repro check --progress``;
* :mod:`repro.obs.prometheus` - the text exposition renderer (and
  parser) behind the service's ``/metrics`` endpoint;
* :mod:`repro.obs.report` - ``repro report RUN.jsonl``: a run timeline
  (phase spans, throughput sparkline) from the sink.

Telemetry is a pure observer: verdicts, violation sets, traces and the
vetting service's semantic digests are byte-identical with it on or off
(pinned by ``tests/test_telemetry.py``).
"""

from repro.obs.prometheus import parse_exposition, render_exposition
from repro.obs.report import render_report
from repro.obs.telemetry import (
    PROGRESS_BOARD,
    TELEMETRY_SCHEMA_VERSION,
    Counter,
    Gauge,
    MetricsRegistry,
    ProgressBoard,
    Span,
    TelemetryConfig,
    TelemetrySession,
    read_events,
    resolve_telemetry,
)

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "PROGRESS_BOARD",
    "ProgressBoard",
    "Span",
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetryConfig",
    "TelemetrySession",
    "parse_exposition",
    "read_events",
    "render_exposition",
    "render_report",
    "resolve_telemetry",
]

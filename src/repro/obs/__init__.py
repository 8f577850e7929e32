"""Unified observability: metrics registry, sim-time tracing, exporters.

``repro.obs`` is the one place counters, gauges, histograms, and spans
live.  The blockchain substrate (peers, consensus engines, the sync
manager, the invariant auditor, the simulated network) all record into a
shared :class:`MetricsRegistry`, and all count one way: a component
resolves each :class:`Counter` / :class:`Gauge` / :class:`Histogram` it
writes once, when it is built or attached, keeps the handle, and calls
``inc`` / ``set`` / ``observe`` on it; only a metric whose labels change
from call to call (``kind=``, ``reason=``) is looked up where it is
written.  Readers ask the registry by name (``obs.total(name)``,
``obs.counter(name, peer=...).value``).  The transaction lifecycle (endorse →
submit → ordering wait → consensus round → commit → sync fetch) is traced
with sim-time-aware :class:`Span` objects.  Exporters turn a registry +
tracer into a JSON-lines timeline and a markdown summary table; the
``repro-news report`` CLI entry point reconstructs the per-phase latency
breakdown from the JSON-lines file alone.
"""

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import Span, Tracer
from repro.obs.export import (
    append_perf_record,
    export_jsonl,
    markdown_report,
    read_jsonl,
    report_from_records,
    snapshot_crypto_cache,
    write_perf_record,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "export_jsonl",
    "read_jsonl",
    "markdown_report",
    "report_from_records",
    "append_perf_record",
    "write_perf_record",
    "snapshot_crypto_cache",
]

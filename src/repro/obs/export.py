"""Exporters: JSON-lines timeline, markdown summary, perf records.

The JSON-lines file is the durable artifact: one record per line —
``{"type": "meta", ...}`` then every finished span and every metric.
:func:`report_from_records` rebuilds the per-phase latency breakdown
from those parsed records alone (no live registry needed), which is what
``repro-news report`` does; :func:`markdown_report` is the same builder
fed straight from a live registry/tracer, so the two paths can never
drift apart.

Perf records are small JSON dicts benchmarks append to
``benchmarks/latest_obs.json`` so the performance trajectory accumulates
run over run.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Iterable

from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.trace import Tracer

__all__ = [
    "export_jsonl",
    "read_jsonl",
    "markdown_report",
    "report_from_records",
    "write_perf_record",
    "append_perf_record",
    "snapshot_crypto_cache",
]

#: Histogram-name prefix the phase-breakdown table is built from.
PHASE_PREFIX = "phase."


def _jsonable(value: Any) -> Any:
    """Best-effort conversion to something ``json.dumps`` accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (bytes, bytearray)):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return repr(value)


# -- JSON-lines timeline ----------------------------------------------------

def export_jsonl(
    path: str | pathlib.Path,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    meta: dict[str, Any] | None = None,
) -> int:
    """Write the full timeline; returns the number of records written."""
    records: list[dict[str, Any]] = [{"type": "meta", **(meta or {})}]
    if tracer is not None:
        records.extend(tracer.records())
        if tracer.dropped:
            records.append({"type": "meta", "spans_dropped": tracer.dropped})
    if registry is not None:
        records.extend(registry.collect())
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(_jsonable(record), sort_keys=True) + "\n")
    return len(records)


def read_jsonl(path: str | pathlib.Path) -> list[dict[str, Any]]:
    """Parse a JSON-lines timeline back into records."""
    records = []
    with pathlib.Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# -- markdown report --------------------------------------------------------

def _merge_phase(records: list[dict[str, Any]]) -> dict[str, Any]:
    """Pool one phase's histogram records across label sets."""
    count = sum(r["summary"]["count"] for r in records)
    total = sum(r["summary"]["total"] for r in records)
    pooled = Histogram("pooled", {})
    for record in records:
        for value in record.get("values", ()):
            pooled.observe(value)
    return {
        "count": int(count),
        "mean": total / count if count else 0.0,
        "p50": pooled.percentile(50),
        "p95": pooled.percentile(95),
        "p99": pooled.percentile(99),
        "max": max((r["summary"]["max"] for r in records if r["summary"]["count"]),
                   default=0.0),
    }


def report_from_records(records: Iterable[dict[str, Any]], title: str = "Observability report") -> str:
    """Markdown summary reconstructed from parsed JSON-lines records."""
    records = list(records)
    histograms: dict[str, list[dict[str, Any]]] = {}
    counters: dict[str, float] = {}
    spans: dict[str, list[float]] = {}
    for record in records:
        kind = record.get("type")
        if kind == "metric" and record.get("kind") == "histogram":
            histograms.setdefault(record["name"], []).append(record)
        elif kind == "metric" and record.get("kind") in ("counter", "gauge"):
            counters[record["name"]] = counters.get(record["name"], 0) + record["value"]
        elif kind == "span" and record.get("end") is not None:
            spans.setdefault(record["name"], []).append(record["duration"])

    lines = [f"# {title}", ""]

    phase_names = sorted(n for n in histograms if n.startswith(PHASE_PREFIX))
    if phase_names:
        lines += [
            "## Per-phase latency (simulated seconds unless noted)",
            "",
            "| phase | count | mean | p50 | p95 | p99 | max |",
            "|---|---:|---:|---:|---:|---:|---:|",
        ]
        for name in phase_names:
            merged = _merge_phase(histograms[name])
            if not merged["count"]:
                continue  # registered but never observed (e.g. no sync ran)
            lines.append(
                f"| {name[len(PHASE_PREFIX):]} | {merged['count']} | {merged['mean']:.4f} "
                f"| {merged['p50']:.4f} | {merged['p95']:.4f} | {merged['p99']:.4f} "
                f"| {merged['max']:.4f} |"
            )
        lines.append("")

    other_hists = sorted(n for n in histograms if not n.startswith(PHASE_PREFIX))
    if other_hists:
        lines += ["## Other distributions", "",
                  "| histogram | count | mean | p50 | p95 | p99 |",
                  "|---|---:|---:|---:|---:|---:|"]
        for name in other_hists:
            merged = _merge_phase(histograms[name])
            if not merged["count"]:
                continue
            lines.append(
                f"| {name} | {merged['count']} | {merged['mean']:.4f} | {merged['p50']:.4f} "
                f"| {merged['p95']:.4f} | {merged['p99']:.4f} |"
            )
        lines.append("")

    if spans:
        lines += ["## Traced spans", "",
                  "| span | count | mean dur | max dur |",
                  "|---|---:|---:|---:|"]
        for name in sorted(spans):
            durations = spans[name]
            lines.append(
                f"| {name} | {len(durations)} | {sum(durations) / len(durations):.4f} "
                f"| {max(durations):.4f} |"
            )
        lines.append("")

    if counters:
        lines += ["## Counters (summed across labels)", "",
                  "| counter | total |", "|---|---:|"]
        for name in sorted(counters):
            value = counters[name]
            text = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"| {name} | {text} |")
        lines.append("")

    return "\n".join(lines)


def markdown_report(
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    title: str = "Observability report",
) -> str:
    """Markdown summary straight from a live registry/tracer."""
    records: list[dict[str, Any]] = []
    if tracer is not None:
        records.extend(tracer.records())
    if registry is not None:
        records.extend(registry.collect())
    return report_from_records(records, title=title)


# -- perf records (benchmark trajectory) ------------------------------------

def write_perf_record(path: str | pathlib.Path, record: dict[str, Any]) -> None:
    """Overwrite *path* with a single perf-record JSON document."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_jsonable(record), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def append_perf_record(
    path: str | pathlib.Path, record: dict[str, Any], key: str | None = None
) -> list[dict[str, Any]]:
    """Append *record* to the JSON array at *path*; returns the array.

    With *key*, a stored record whose *key* field equals the new one's is
    replaced in place instead (benchmarks key on the experiment title, so
    a rerun of one experiment refreshes its record and keeps the rest).
    """
    path = pathlib.Path(path)
    existing: list[dict[str, Any]] = []
    if path.exists():
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(loaded, list):
                existing = loaded
        except (json.JSONDecodeError, OSError):
            existing = []
    record = _jsonable(record)
    slot = next((i for i, stored in enumerate(existing)
                 if key is not None and stored.get(key) == record.get(key)), len(existing))
    existing[slot:slot + 1] = [record]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return existing


# -- crypto cache bridge ----------------------------------------------------

def snapshot_crypto_cache(registry: MetricsRegistry) -> dict[str, int]:
    """Mirror the Ed25519 cache and batching stats into *registry*.

    The returned dict keeps the seed shape (the verify-cache stats);
    point-cache and batch-verification counters ride along as extra
    gauges only.
    """
    from repro.crypto import ed25519

    stats = ed25519.verify_cache_stats()
    for key, value in stats.items():
        registry.gauge(f"crypto.verify_cache_{key}").set(value)
    for key, value in ed25519.point_cache_stats().items():
        registry.gauge(f"crypto.point_cache_{key}").set(value)
    for key, value in ed25519.batch_stats().items():
        registry.gauge(f"crypto.batch_{key}").set(value)
    return stats

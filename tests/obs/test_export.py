"""Exporter round-trips: JSONL ↔ records ↔ markdown, perf records."""

import json

from repro.obs import (
    MetricsRegistry,
    Tracer,
    append_perf_record,
    export_jsonl,
    markdown_report,
    read_jsonl,
    report_from_records,
    write_perf_record,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _populated():
    clock = FakeClock()
    registry = MetricsRegistry()
    tracer = Tracer(clock, registry=registry)
    registry.counter("peer.txs_committed_valid", peer="p0").inc(7)
    for peer, values in (("p0", [0.1, 0.2, 0.3]), ("p1", [0.4, 0.5])):
        hist = registry.histogram("phase.commit_latency", peer=peer)
        for v in values:
            hist.observe(v)
    span = tracer.start("commit", peer="p0")
    clock.now = 0.5
    tracer.finish(span)
    return registry, tracer


def test_jsonl_round_trip(tmp_path):
    registry, tracer = _populated()
    path = tmp_path / "trace.jsonl"
    written = export_jsonl(path, registry, tracer, meta={"run": "test"})
    records = read_jsonl(path)
    assert len(records) == written
    assert records[0]["type"] == "meta"
    assert records[0]["run"] == "test"
    # Every line is valid standalone JSON (already proven by read_jsonl,
    # but assert the span + metric mix survived).
    types = {r["type"] for r in records}
    assert types == {"meta", "span", "metric"}


def test_report_reconstructed_from_file_matches_live(tmp_path):
    registry, tracer = _populated()
    live = markdown_report(registry, tracer, title="t")
    path = tmp_path / "trace.jsonl"
    export_jsonl(path, registry, tracer)
    rebuilt = report_from_records(read_jsonl(path), title="t")
    assert rebuilt == live


def test_report_pools_phase_across_labels():
    registry, tracer = _populated()
    report = markdown_report(registry, tracer)
    # commit_latency has 3 + 2 observations across two peers.
    line = next(l for l in report.splitlines() if l.startswith("| commit_latency"))
    cells = [c.strip() for c in line.split("|")]
    assert cells[2] == "5"  # pooled count
    assert float(cells[3]) == (0.1 + 0.2 + 0.3 + 0.4 + 0.5) / 5  # pooled mean
    # p50 of the pooled reservoir {0.1..0.5}.
    assert abs(float(cells[4]) - 0.3) < 1e-9
    assert "| peer.txs_committed_valid | 7 |" in report


def test_empty_phase_rows_are_omitted():
    registry = MetricsRegistry()
    registry.histogram("phase.sync_fetch", peer="p0")  # registered, never observed
    registry.histogram("phase.commit_latency", peer="p0").observe(0.2)
    report = markdown_report(registry)
    assert "commit_latency" in report
    assert "sync_fetch" not in report


def test_write_and_append_perf_records(tmp_path):
    path = tmp_path / "obs.json"
    write_perf_record(path, {"a": 1})
    assert json.loads(path.read_text()) == {"a": 1}

    arr_path = tmp_path / "latest_obs.json"
    append_perf_record(arr_path, {"run": 1})
    result = append_perf_record(arr_path, {"run": 2})
    assert [r["run"] for r in result] == [1, 2]
    assert [r["run"] for r in json.loads(arr_path.read_text())] == [1, 2]
    # Keyed: the record with the same "run" is replaced where it stands.
    append_perf_record(arr_path, {"run": 3, "v": "old"}, key="run")
    result = append_perf_record(arr_path, {"run": 1, "v": "new"}, key="run")
    assert result == [{"run": 1, "v": "new"}, {"run": 2}, {"run": 3, "v": "old"}]
    assert json.loads(arr_path.read_text()) == result


def test_jsonable_handles_non_json_values(tmp_path):
    registry = MetricsRegistry()
    clock = FakeClock()
    tracer = Tracer(clock)
    span = tracer.start("x", payload=b"\x01\x02", who={"a", "b"})
    tracer.finish(span)
    path = tmp_path / "t.jsonl"
    export_jsonl(path, registry, tracer)
    record = next(r for r in read_jsonl(path) if r["type"] == "span")
    assert record["attrs"]["payload"] == "0102"
    assert sorted(record["attrs"]["who"]) == ["a", "b"]

"""tools/bench_table.py: the busy-share table, on small canned records
(no benchmark runs here)."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_table", Path(__file__).resolve().parents[1] / "tools" / "bench_table.py")
bench_table = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_table)


def record(shares_by_workload, seeds=(0,)):
    """A ``BENCH_<n>.json``-shaped record: one untraced and one traced run
    per seed and workload, the traced ones carrying *shares_by_workload*."""
    def run(metrics):
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics, "detail": {}}

    return {"mode": "full", "seeds": list(seeds), "workloads": {
        workload: {"runs": [run({"ops_per_s": 1.0})] * len(seeds),
                   "traced_runs": [run({f"{layer}.busy_share": share
                                        for layer, share in shares.items()})] * len(seeds)}
        for workload, shares in shares_by_workload.items()}}


NOW = {"share_burst": {"crypto": 0.72, "core": 0.0},
       "reader_follow": {"crypto": 0.18, "core": 0.066}}
BEFORE = {"share_burst": {"crypto": 0.72, "core": 0.0},
          "reader_follow": {"crypto": 0.16, "core": 0.132}}


def test_rows_are_layers_and_columns_workloads():
    text = bench_table.table(["core", "crypto", "sync"], bench_table.shares(record(NOW)))
    assert text.splitlines() == [
        "| layer | `share_burst` | `reader_follow` |",
        "|---|---|---|",
        "| core | 0.00 | 0.07 |",
        "| crypto | 0.72 | 0.18 |",
        "| sync | 0.00 | 0.00 |",
    ]


def test_against_gives_each_cell_its_ratio_unless_it_was_zero():
    text = bench_table.table(["core", "crypto"], bench_table.shares(record(NOW)),
                             bench_table.shares(record(BEFORE)))
    assert text.splitlines()[2:] == [
        "| core | 0.00 | 0.07 (×0.50) |",
        "| crypto | 0.72 (×1.00) | 0.18 (×1.12) |",
    ]


def test_the_seed_0_run_is_the_one_read():
    rec = record(NOW, seeds=(3, 0))
    rec["workloads"]["reader_follow"]["traced_runs"] = [
        {"metrics": {"core.busy_share": 0.9}}, {"metrics": {"core.busy_share": 0.2}}]
    assert bench_table.shares(rec)["reader_follow"] == {"core.busy_share": 0.2}
    with pytest.raises(SystemExit, match="no seed-0 run"):
        bench_table.shares(record(NOW, seeds=(1,)))


def test_main_prints_the_table_in_benchmark_json_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    spec = {"per_layer": [{"name": "crypto.busy_share"}, {"name": "core.export_audit_ms"},
                          {"name": "core.busy_share"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
    (tmp_path / "BENCH_32.json").write_text(json.dumps(record(NOW)), encoding="utf-8")
    (tmp_path / "BENCH_31.json").write_text(json.dumps(record(BEFORE)), encoding="utf-8")
    assert bench_table.main(["32", "--against", "31"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "BENCH_32.json" in lines[0] and "BENCH_31.json" in lines[0]
    assert [line.split(" | ")[0] for line in lines[3:]] == ["| crypto", "| core"]
    with pytest.raises(SystemExit, match="bench-record PR=30"):
        bench_table.main(["32", "--against", "30"])

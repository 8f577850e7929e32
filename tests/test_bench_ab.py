"""tools/bench_ab.py: pairing and summarising, on canned ``run.py``
result lines (no benchmark runs here)."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_ab", Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

BETTER = {"ops_per_s": "higher", "op_wall_ms_p50": "lower", "peak_rss_mb": "lower"}


def result_line(ops, p50, rss=80.0, failed=0):
    """What ``run.py --workload W --trace 0`` prints, down to its last line."""
    metrics = {"ops_per_s": {"value": ops, "unit": "1/s"},
               "op_wall_ms_p50": {"value": p50, "unit": "ms"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return ("# reader_follow  seed=0 ...\nops_per_s   1.0 1/s\ndetail {}\n"
            + json.dumps({"correct": not failed, "attempted": 100, "failed": failed,
                          "metrics": metrics}) + "\n")


def test_parse_result_reads_the_last_line():
    metrics, failed = bench_ab.parse_result(result_line(16000.0, 0.043, failed=2))
    assert metrics == {"ops_per_s": 16000.0, "op_wall_ms_p50": 0.043, "peak_rss_mb": 80.0}
    assert failed == 2


def test_pairs_alternate_which_side_runs_first(capsys):
    canned = {"parent": [16000.0, 16500.0, 15800.0, 16200.0],
              "change": [21000.0, 16400.0, 22000.0, 16200.0]}
    order = []

    def run_side(side):
        order.append(side)
        ops = canned[side][order.count(side) - 1]
        return bench_ab.parse_result(result_line(ops, 1000.0 / ops))[0]

    pairs = bench_ab.run_pairs(4, run_side)
    assert order == ["parent", "change", "change", "parent", "parent", "change", "change", "parent"]
    assert [p["parent"]["ops_per_s"] for p in pairs] == canned["parent"]
    assert [p["change"]["ops_per_s"] for p in pairs] == canned["change"]
    assert capsys.readouterr().out.count("# pair ") == 4

    summary = bench_ab.summarise(pairs, BETTER)
    ops = summary["ops_per_s"]
    assert (ops["wins"], ops["losses"], ops["ties"]) == (2, 1, 1)
    assert ops["parent"] == {"median": 16100.0, "q1": 15950.0, "q3": 16275.0}
    assert ops["change"]["median"] == 18700.0
    # Lower is better: the same pairs, won where the change's number is smaller.
    p50 = summary["op_wall_ms_p50"]
    assert (p50["wins"], p50["losses"], p50["ties"]) == (2, 1, 1)
    assert summary["peak_rss_mb"]["ties"] == 4
    text = bench_ab.report(summary)
    assert "change ahead in 2/4" in text and "ops_per_s" in text


def test_one_pair_has_a_degenerate_spread():
    pairs = [{"parent": {"ops_per_s": 10.0}, "change": {"ops_per_s": 12.0}}]
    row = bench_ab.summarise(pairs, {"ops_per_s": "higher"})["ops_per_s"]
    assert row["parent"] == {"median": 10.0, "q1": 10.0, "q3": 10.0} and row["wins"] == 1


def test_record_replaces_the_entry_of_the_same_workload_and_seed(tmp_path):
    path = tmp_path / "BENCH_99.json"
    path.write_text(json.dumps({"pr": 99, "workloads": {}}), encoding="utf-8")
    bench_ab.record(path, {"workload": "reader_follow", "seed": 0, "pairs": [1]})
    bench_ab.record(path, {"workload": "reader_follow", "seed": 2, "pairs": [2]})
    bench_ab.record(path, {"workload": "reader_follow", "seed": 0, "pairs": [3]})
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["pr"] == 99
    assert [(e["seed"], e["pairs"]) for e in data["ab"]] == [(2, [2]), (0, [3])]


def test_missing_record_is_refused_before_anything_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit, match="bench-record PR=98"):
        bench_ab.main(["--parent", "HEAD", "--workload", "reader_follow", "--pr", "98"])

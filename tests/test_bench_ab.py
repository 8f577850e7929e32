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
BOUNDS = {"ops_per_s": 0.25, "op_wall_ms_p50": 0.25, "peak_rss_mb": 0.15}


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

    summary = bench_ab.summarise(pairs, BETTER, BOUNDS)
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
    row = bench_ab.summarise(pairs, {"ops_per_s": "higher"}, BOUNDS)["ops_per_s"]
    assert row["parent"] == {"median": 10.0, "q1": 10.0, "q3": 10.0} and row["wins"] == 1


def test_the_verdict_is_compare_py_s_under_the_bound():
    """Ten pairs that all move ``ops_per_s`` x1.12 win 10/10 and still read
    ``same``: the bound is 0.25.  x1.40 is ``better``, x0.70 ``worse``, and
    a change inside the bound whose runs spread wider than it is
    ``unresolved``."""
    def pairs_of(parent, change):
        return [{"parent": {"ops_per_s": p}, "change": {"ops_per_s": c}}
                for p, c in zip(parent, change)]

    parent = [1000.0 + 10 * i for i in range(10)]
    rows = {factor: bench_ab.summarise(pairs_of(parent, [v * factor for v in parent]),
                                       {"ops_per_s": "higher"}, BOUNDS)["ops_per_s"]
            for factor in (1.12, 1.40, 0.70)}
    assert rows[1.12]["wins"] == 10 and rows[1.12]["verdict"] == "same"
    assert rows[1.40]["verdict"] == "better" and rows[0.70]["verdict"] == "worse"
    wide = [500.0, 1500.0] * 5
    row = bench_ab.summarise(pairs_of(wide, wide[::-1]), {"ops_per_s": "higher"},
                             BOUNDS)["ops_per_s"]
    assert row["verdict"] == "unresolved"
    assert bench_ab.verdict is bench_ab._compare.verdict
    assert "verdict: same" in bench_ab.report({"ops_per_s": rows[1.12]})


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


def test_each_run_gets_the_fixed_mmap_threshold_in_its_own_environment(monkeypatch, tmp_path):
    seen = []

    def fake_run(command, **kwargs):
        seen.append(kwargs)
        return bench_ab.subprocess.CompletedProcess(command, 0, result_line(1.0, 1.0), "")

    monkeypatch.setattr(bench_ab.subprocess, "run", fake_run)
    before = dict(bench_ab.os.environ)
    bench_ab.run_workload(tmp_path, "reader_follow", 0, "--trace", "0")
    assert seen[0]["env"]["MALLOC_MMAP_THRESHOLD_"] == "131072"
    assert seen[0]["cwd"] == tmp_path
    assert dict(bench_ab.os.environ) == before  # the tool's own process is untouched


def test_both_sides_run_from_archives_in_sibling_directories(monkeypatch, capsys):
    """The parent and the committed HEAD are each unpacked, into paths of
    the same length; the working tree itself never runs."""
    unpacked, ran = {}, []

    def fake_unpack(ref, root, into):
        unpacked[ref] = Path(into)
        return ref.ljust(40, "0")

    def fake_run_workload(tree, workload, seed, *flags):
        ran.append(tree)
        return dict.fromkeys(("setup_s", "ops_per_s", "op_wall_ms_p50", "peak_rss_mb"), 1.0), 0

    monkeypatch.setattr(bench_ab, "unpack", fake_unpack)
    monkeypatch.setattr(bench_ab, "run_workload", fake_run_workload)
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    assert bench_ab.main(["--parent", "abc", "--workload", "reader_follow", "--pairs", "2"]) == 0
    parent, change = unpacked["abc"], unpacked["HEAD"]
    assert parent.parent == change.parent and len(str(parent)) == len(str(change))
    assert ran == [parent, change, change, parent]

"""Smoke test of the end-to-end benchmark (``make bench``; not tier-1).

Runs every workload at a tenth of its size with tracing on and checks the
harness itself: metric names against BENCHMARK.json, exact repeatability of
simulated-time metrics and counts for a seed, attribution coverage, and
that a wrong answer flips the exit code.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NETWORKED = [w for w in WORKLOADS if w != "external_screening"]

#: Per-layer metrics that hold no wall-clock time: they must repeat exactly.
EXACT = re.compile(
    r"_sim_|^sync\.(?!busy_share)|^crypto\.(signs_per_tx|batch_size_mean|batch_bisections|.*_hit_ratio)$"
    r"|^consensus\.(msgs_per_|vote_sig_checks|view_changes)"
    r"|^simnet\.(events_per_tx|msgs_sent_per_tx|bytes_per_tx|dropped)$"
    r"|^store\.(snapshots|wal_bytes_per_tx|fsyncs_per_block|degradations)$"
    r"|^peer\.(txs_per_block_mean|mvcc_conflicts|txs_committed_invalid)$"
    r"|^mempool\.(depth_max|rejected_full)$|^core\.graph_rebuilds$|^bench\.spans_recorded$"
    r"|^provenance\.candidates_scanned_per_call$|^corpus\.minhash_calls_per_article$"
    r"|^index\.scan_fallbacks$"
)


def run(workload: str, seed: int, trace: int, *extra: str) -> tuple[int, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--smoke", *extra],
        capture_output=True, text=True, check=False, cwd=ROOT,
    )
    assert done.stdout.strip(), done.stderr
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def values(result: dict) -> dict[str, float]:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run(workload: str) -> None:
    code, first = run(workload, 0, 1)
    assert code == 0 and first["correct"] and first["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(first["metrics"]) == set(declared)
    for name, metric in first["metrics"].items():
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
        assert metric["unit"] == declared[name]
    assert values(first)["bench.unattributed_share"] <= 0.10

    _, again = run(workload, 0, 1)
    exact = [name for name in declared if EXACT.search(name)]
    assert {n: values(first)[n] for n in exact} == {n: values(again)[n] for n in exact}

    if workload in NETWORKED:
        _, other = run(workload, 1, 1)
        assert values(other)["client.commit_sim_ms_p50"] != values(first)["client.commit_sim_ms_p50"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_run(workload: str) -> None:
    code, result = run(workload, 0, 0)
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_wrong_answer_flips_exit_code() -> None:
    code, result = run("reader_follow", 0, 0, "--tamper")
    assert code != 0 and not result["correct"] and result["failed"] == 1

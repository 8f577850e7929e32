"""Compare two result files of ``run.py`` under the bounds of BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A.json B.json

Prints one row per (end-to-end metric, workload): both medians, the ratio
B/A with A as its base, the bound, and a verdict -- ``better`` / ``same`` /
``worse`` by more than the bound, or ``unresolved`` when the median is no
worse but the run-to-run spread (quartile distance over median, files
holding at least four runs) is wider than the bound and the runs overlap.  Failed operations
are compared as shares of those attempted.  Exit code is non-zero on any
``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median; 0 below four runs."""
    if len(values) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[float, str]:
    """(ratio of medians B/A, verdict) for one metric on one workload."""
    ratio = statistics.median(b) / statistics.median(a)
    gain = ratio - 1.0 if better == "higher" else 1.0 - ratio
    if gain < -bound:
        return ratio, "worse"
    if max(spread(a), spread(b)) > bound:
        sign = 1.0 if better == "higher" else -1.0
        every_run_better = min(sign * v for v in b) > max(sign * v for v in a)
        return ratio, "better" if every_run_better else "unresolved"
    return ratio, "better" if gain > bound else "same"


def failed_share(runs: list[dict[str, Any]]) -> float:
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def compare(a: dict[str, Any], b: dict[str, Any], spec: dict[str, Any]) -> int:
    worse = 0
    print(f"{'workload':<20}{'metric':<18}{'A':>14}{'B':>14}{'B/A':>9}{'bound':>7}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        runs_a = a["workloads"][workload]["runs"]
        runs_b = b["workloads"][workload]["runs"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values_a = [run["metrics"][name] for run in runs_a]
            values_b = [run["metrics"][name] for run in runs_b]
            ratio, word = verdict(values_a, values_b, metric["better"], metric["bound"])
            worse += word == "worse"
            print(f"{workload:<20}{name:<18}{statistics.median(values_a):>14.4f}"
                  f"{statistics.median(values_b):>14.4f}{ratio:>9.3f}{metric['bound']:>7.2f}  "
                  f"{word} [{metric['unit']}, n={len(values_a)}/{len(values_b)}]")
        share_a, share_b = failed_share(runs_a), failed_share(runs_b)
        word = "worse" if share_b > share_a else "same"
        worse += word == "worse"
        print(f"{workload:<20}{'failed_ops_share':<18}{share_a:>14.6f}{share_b:>14.6f}"
              f"{'':>9}{0:>7.2f}  {word} [ratio]")
    return worse


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if a["mode"] != b["mode"] or a["seconds"] != b["seconds"]:
        print(f"not comparable: {a['mode']}/{a['seconds']} s vs {b['mode']}/{b['seconds']} s")
        return 2
    return 1 if compare(a, b, spec) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

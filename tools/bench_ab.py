"""`make bench-ab PARENT=<ref> [W=<workload>] PAIRS=<n>`: the pairs behind a claim.

Unpacks *PARENT* and the committed ``HEAD`` once each (``git archive``,
into two sibling directories whose paths have the same length, under a
temporary directory — set ``TMPDIR`` to choose where; nothing is left in
``.git``; commit the change first, the working tree is not what runs) and
runs the benchmark BENCHMARK.json declares, untraced —
``python3 benchmarks/e2e/run.py --workload W --seed S --trace 0`` —
alternately in the two trees, the side that goes first alternating from
pair to pair; for workload *W*, or without one for every workload
BENCHMARK.json names, one after another.  Every run gets the same fixed
glibc mmap threshold in its own environment (:data:`RUN_ENV`), so that
``peak_rss_mb`` does not depend on the directory a tree sits in.  Prints
every pair as it finishes,
then per end-to-end metric each side's median and quartiles, how many
pairs the change won (ties count for neither; "better" is the direction
BENCHMARK.json gives the metric) and the verdict
``benchmarks/e2e/compare.py`` gives the two sides' runs under the metric's
BENCHMARK.json bound: ``better`` / ``same`` / ``worse`` / ``unresolved``
(``better`` only for a gain past the bound).  With ``PR=<n>`` the summary and the
pairs are also written under the ``ab`` key of ``BENCH_<n>.json`` (made by
``make bench-record PR=<n>``), one entry per ``(workload, seed)``; a
second run of the same pair of names replaces its entry.  Nothing under
``benchmarks/e2e/`` is edited or needs to know.
"""
import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

Metrics = dict[str, float]
#: Also the names of the two trees' directories: the same length, so
#: neither side's paths are longer than the other's.
SIDES = ("parent", "change")

#: Set in each benchmark child process's environment, nowhere else.
#: glibc's dynamic mmap threshold moves with a process's allocation
#: history, and with it peak RSS: one tree read over 1 MB apart on
#: ``share_burst`` from three directories.  A fixed threshold reads the
#: same from each.
RUN_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}

# The verdict rule is compare.py's; it is imported from there, not restated.
_compare_spec = importlib.util.spec_from_file_location(
    "compare", Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "compare.py")
_compare = importlib.util.module_from_spec(_compare_spec)
_compare_spec.loader.exec_module(_compare)
verdict = _compare.verdict


def parse_result(stdout: str) -> tuple[Metrics, int]:
    """The metrics and the failed-operation count of one ``run.py`` run:
    its last line of output."""
    result = json.loads(stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}, result["failed"]


def unpack(ref: str, root: Path, into: str) -> str:
    """Extract the tree of *ref* (a git ref of the repository at *root*)
    into the directory *into* with ``git archive``, leaving nothing in
    ``.git``; returns the commit's full sha."""
    sha = subprocess.run(["git", "rev-parse", ref], cwd=root, capture_output=True,
                         text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=root, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", into], input=archive.stdout, check=True)
    return sha


def run_workload(tree: Path, workload: str, seed: int, *flags: str) -> tuple[Metrics, int]:
    """One ``run.py --workload <workload> --seed <seed> <flags>`` run in
    *tree*: its metrics and its failed-operation count."""
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), *flags],
        cwd=tree, capture_output=True, text=True, check=False, env={**os.environ, **RUN_ENV})
    if not done.stdout.strip():
        raise SystemExit(f"{tree}: run.py printed nothing (exit {done.returncode})\n"
                         + done.stderr)
    return parse_result(done.stdout)


def run_pairs(pairs: int, run_side: Callable[[str], Metrics]) -> list[dict[str, Metrics]]:
    """*pairs* runs of each side; even pairs start with the parent, odd
    ones with the change, so neither side always runs on a warm box."""
    done = []
    for number in range(pairs):
        first, second = SIDES if number % 2 == 0 else SIDES[::-1]
        pair = {first: run_side(first)}
        pair[second] = run_side(second)
        done.append(pair)
        print(f"# pair {number + 1}/{pairs} ({first} first): " + "  ".join(
            f"{name} {pair['parent'][name]:.6g} -> {pair['change'][name]:.6g}"
            for name in sorted(pair["parent"])), flush=True)
    return done


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list[dict[str, Metrics]], better: dict[str, str],
              bounds: dict[str, float]) -> dict[str, dict]:
    """Per metric: each side's median and quartiles, the pairs the change
    won, lost and tied, and compare.py's verdict under the metric's bound."""
    summary = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        gains = [sign * (pair["change"][name] - pair["parent"][name]) for pair in pairs]
        runs = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        summary[name] = {
            "better": direction,
            **{side: spread(runs[side]) for side in SIDES},
            "wins": sum(g > 0 for g in gains),
            "losses": sum(g < 0 for g in gains),
            "ties": sum(g == 0 for g in gains),
            "verdict": verdict(runs["parent"], runs["change"], direction, bounds[name])[1],
        }
    return summary


def report(summary: dict[str, dict]) -> str:
    lines = []
    for name, row in summary.items():
        parent, change = row["parent"], row["change"]
        lines.append(
            f"{name:<16} parent {parent['median']:.6g} [{parent['q1']:.6g}, {parent['q3']:.6g}]  "
            f"change {change['median']:.6g} [{change['q1']:.6g}, {change['q3']:.6g}]  "
            f"x{change['median'] / parent['median']:.3f}  "
            f"change ahead in {row['wins']}/{row['wins'] + row['losses'] + row['ties']} "
            f"({row['better']} is better)  verdict: {row['verdict']}")
    return "\n".join(lines)


def record(path: Path, entry: dict) -> None:
    """Put *entry* under ``ab`` in the record at *path*, in place of an
    earlier entry for the same workload and seed."""
    data = json.loads(path.read_text(encoding="utf-8"))
    kept = [e for e in data.get("ab", [])
            if (e["workload"], e["seed"]) != (entry["workload"], entry["seed"])]
    data["ab"] = kept + [entry]
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref to compare against")
    parser.add_argument("--workload", help="one workload (default: every one BENCHMARK.json names)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pr", type=int, help="also write the result into BENCH_<pr>.json")
    args = parser.parse_args(argv)
    root = Path.cwd()
    target = root / f"BENCH_{args.pr}.json"
    if args.pr is not None and not target.exists():
        raise SystemExit(f"{target.name} does not exist: run `make bench-record PR={args.pr}` first")
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    failed_change = 0
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as scratch:
        trees = {side: Path(scratch) / side for side in SIDES}
        for tree in trees.values():
            tree.mkdir()
        sha = unpack(args.parent, root, str(trees["parent"]))
        head = unpack("HEAD", root, str(trees["change"]))
        for workload in workloads:
            failed = dict.fromkeys(SIDES, 0)

            def run_side(side: str) -> Metrics:
                metrics, failures = run_workload(trees[side], workload, args.seed, "--trace", "0")
                failed[side] += failures
                return metrics

            pairs = run_pairs(args.pairs, run_side)
            summary = summarise(pairs, better, bounds)
            print(f"# {workload} seed {args.seed}: {args.pairs} pairs, {head[:7]} against {sha[:7]}; "
                  f"failed operations: parent {failed['parent']}, change {failed['change']}")
            print(report(summary), flush=True)
            if args.pr is not None:
                record(target, {"workload": workload, "seed": args.seed, "parent_sha": sha,
                                "change_sha": head, "failed": failed, "summary": summary,
                                "pairs": pairs})
                print(f"# wrote the pairs under 'ab' in {target.name}")
            failed_change += failed["change"]
    return 1 if failed_change else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

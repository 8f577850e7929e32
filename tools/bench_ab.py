"""`make bench-ab PARENT=<ref> W=<workload> PAIRS=<n>`: the pairs behind a claim.

Unpacks *PARENT* (``git archive``, into a temporary directory — set
``TMPDIR`` to choose where; nothing is left in ``.git``) and runs the
benchmark BENCHMARK.json declares, one workload, untraced —
``python3 benchmarks/e2e/run.py --workload W --seed S --trace 0`` —
alternately in the parent's tree and in this one, the side that goes
first alternating from pair to pair.  Prints every pair as it finishes,
then per end-to-end metric each side's median and quartiles and how many
pairs the change won (ties count for neither; "better" is the direction
BENCHMARK.json gives the metric).  With ``PR=<n>`` the summary and the
pairs are also written under the ``ab`` key of ``BENCH_<n>.json`` (made by
``make bench-record PR=<n>``), one entry per ``(workload, seed)``; a
second run of the same pair of names replaces its entry.  Nothing under
``benchmarks/e2e/`` is edited or needs to know.
"""
import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

Metrics = dict[str, float]
SIDES = ("parent", "change")


def parse_result(stdout: str) -> tuple[Metrics, int]:
    """The metrics and the failed-operation count of one ``run.py`` run:
    its last line of output."""
    result = json.loads(stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}, result["failed"]


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


def summarise(pairs: list[dict[str, Metrics]], better: dict[str, str]) -> dict[str, dict]:
    """Per metric: each side's median and quartiles, and the pairs the
    change won, lost and tied."""
    summary = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        gains = [sign * (pair["change"][name] - pair["parent"][name]) for pair in pairs]
        summary[name] = {
            "better": direction,
            **{side: spread([pair[side][name] for pair in pairs]) for side in SIDES},
            "wins": sum(g > 0 for g in gains),
            "losses": sum(g < 0 for g in gains),
            "ties": sum(g == 0 for g in gains),
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
            f"({row['better']} is better)")
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
    parser.add_argument("--workload", required=True)
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
    sha = subprocess.run(["git", "rev-parse", args.parent], cwd=root, capture_output=True,
                         text=True, check=True).stdout.strip()
    failed = dict.fromkeys(SIDES, 0)
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as scratch:
        archive = subprocess.run(["git", "archive", sha], cwd=root, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", scratch], input=archive.stdout, check=True)
        trees = {"parent": Path(scratch), "change": root}

        def run_side(side: str) -> Metrics:
            done = subprocess.run(
                [sys.executable, "benchmarks/e2e/run.py", "--workload", args.workload,
                 "--seed", str(args.seed), "--trace", "0"],
                cwd=trees[side], capture_output=True, text=True, check=False)
            if not done.stdout.strip():
                raise SystemExit(f"{side}: run.py printed nothing (exit {done.returncode})\n"
                                 + done.stderr)
            metrics, failures = parse_result(done.stdout)
            failed[side] += failures
            return metrics

        pairs = run_pairs(args.pairs, run_side)
    summary = summarise(pairs, better)
    print(f"# {args.workload} seed {args.seed}: {args.pairs} pairs against {sha[:7]}; "
          f"failed operations: parent {failed['parent']}, change {failed['change']}")
    print(report(summary))
    if args.pr is not None:
        record(target, {"workload": args.workload, "seed": args.seed, "parent_sha": sha,
                        "failed": failed, "summary": summary, "pairs": pairs})
        print(f"# wrote the pairs under 'ab' in {target.name}")
    return 1 if failed["change"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""`make bench-record PR=<n>`: put one PR's end-to-end numbers on disk.

Runs the benchmark BENCHMARK.json declares, full size, in the checkout
this is started from — ``python3 benchmarks/e2e/run.py --trace 1``: every
workload untraced (the end-to-end metrics, exactly the child command the
plain ``run.py`` runs), then traced (the per-layer metrics), one child
process each — and copies the record it writes under
``benchmarks/e2e/results/`` to ``BENCH_<n>.json`` at the repo root:
same schema (git sha, mode, env, per-workload ``runs`` and
``traced_runs``), plus ``pr`` and ``env.uncommitted`` — a record taken
before its commit exists carries the parent's sha, and says so.  Nothing
under ``benchmarks/e2e/`` is edited.  Diff two records with
``python3 benchmarks/e2e/compare.py BENCH_<a>.json BENCH_<b>.json``.
"""
import json
import subprocess
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        raise SystemExit("usage: make bench-record PR=<n>   (python tools/bench_record.py <n>)")
    root = Path.cwd()
    written = root / "benchmarks/e2e/results/full-seed0-x1-trace1.json"
    started = time.time()
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--trace", "1"], cwd=root, check=False)
    if not written.exists() or written.stat().st_mtime < started:
        raise SystemExit(f"run.py (exit code {done.returncode}) wrote no record")
    record = json.loads(written.read_text(encoding="utf-8"))
    status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
                            capture_output=True, text=True, check=False)
    record["pr"] = int(argv[0])
    record["env"]["uncommitted"] = bool(status.stdout.strip())
    target = root / f"BENCH_{argv[0]}.json"
    target.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"# wrote {target.name} (sha {record['env']['git_sha']}, "
          f"uncommitted changes: {record['env']['uncommitted']})")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

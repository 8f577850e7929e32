"""One command for the end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process and prints, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` every ``end_to_end`` metric of BENCHMARK.json, with
``--trace 1`` every ``per_layer`` metric.  Without ``--workload`` it runs
all five, each in a fresh child process (the Ed25519 verify and point
caches are process-global, and peak RSS is per process), never two at once
(the system is a single-threaded simulation), and writes the collected
runs under ``benchmarks/e2e/results/``.  Exit code is non-zero when any
output is wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("newsroom_publish", "external_screening", "share_burst",
                  "reader_follow", "crash_recover")
#: ``setup_s`` is the median of at least this many set-ups, and of more (up
#: to the maximum) while they add up to less than the minimum total, so a
#: 0.15 s set-up is not judged on three samples.  Each starts cold: fresh
#: objects from the seed and cleared crypto caches.
SETUP_REPEATS_MIN, SETUP_REPEATS_MAX, SETUP_TOTAL_MIN_S = 3, 9, 2.0


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(argv: list[str], spec: dict[str, Any]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run this workload here; default: all five, one child each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="sizes the work: about this long on the reference box")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: install span wrappers and report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of every count; never a recorded result")
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt one answer before the correctness gate (self-test)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all-workloads mode: runs per workload, seeds seed..seed+N-1")
    return parser.parse_args(argv)


# -- one workload, in this process ---------------------------------------------


def run_one(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.e2e.layers import layer_metrics, readouts
    from benchmarks.e2e.reference import SpeedProbe
    from benchmarks.e2e.tracing import Tracer
    from benchmarks.e2e.workloads import WORKLOADS, percentile
    from repro.crypto import ed25519

    clock = time.perf_counter
    seconds = args.seconds / 10.0 if args.smoke else args.seconds
    tracer = Tracer()
    span_cost = 0.0
    if args.trace:
        tracer.install()
        span_cost = tracer.span_cost()

    # Untraced runs time a fixed reference kernel after every set-up and
    # between passes of the loop, and report wall-clock metrics in seconds
    # of the reference box (see reference.py); every=0 probes at each call.
    setup_probe, loop_probe = SpeedProbe(every_s=0.0), SpeedProbe()
    setups: list[float] = []
    workload = None
    while len(setups) < SETUP_REPEATS_MIN or (
            sum(setups) < SETUP_TOTAL_MIN_S and len(setups) < SETUP_REPEATS_MAX):
        workload = None
        gc.collect()
        ed25519.verify_cache_clear()
        ed25519.point_cache_clear()
        ed25519.batch_stats_clear()
        tracer.clear()
        begin = clock()
        workload = WORKLOADS[args.workload](args.seed, seconds)
        workload.setup()
        setups.append(clock() - begin)
        if not args.trace:
            setup_probe.after(setups[-1])
    assert workload is not None
    fit_s = tracer.aggregate(0.0, clock()).stats("FakeNewsScorer.fit").total
    tracer.clear()
    if workload.watch is not None:
        workload.watch.reset()
    before = readouts(workload)
    if not args.trace:
        workload.probe = loop_probe

    begin = clock()
    workload.run(tracer)
    end = clock()
    wall = end - begin - sum(loop_probe.samples)

    after = readouts(workload)
    checks = workload.gate()
    if args.tamper:
        label, _, want = checks[-1]
        checks[-1] = (label, "<tampered>", want)
    wrong = [(label, got, want) for label, got, want in checks if got != want]
    attempted = workload.ops + workload.writes + len(checks)
    failed = workload.failed + len(wrong)

    if args.trace:
        delta = {name: after[name] - before[name] for name in after}
        values = layer_metrics(tracer.aggregate(begin, end), delta, workload, tracer.tallies,
                               fit_s, span_cost)
        tracer.write_jsonl(RESULTS / f"trace-{args.workload}.jsonl", origin=begin)
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups) / setup_probe.factor,
            "ops_per_s": workload.throughput() * loop_probe.factor,
            "op_wall_ms_p50": percentile(workload.op_wall, 50) * 1000.0 / loop_probe.factor,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(values):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(values))}")

    mode = "smoke" if args.smoke else "full"
    print(f"# {args.workload}  seed={args.seed}  seconds={seconds:g}  mode={mode}  "
          f"trace={args.trace}  measured wall {wall:.3f} s  "
          f"ops {workload.ops} (op samples {len(workload.op_wall)}, set-ups {len(setups)})")
    for name in sorted(values):
        print(f"{name:<46} {values[name]:>16.6f} {units[name]}")
    for label, got, want in wrong:
        print(f"WRONG {label}: got {got!r}, want {want!r}")
    print(f"# correctness gate: {len(checks) - len(wrong)}/{len(checks)} checks hold; "
          f"failed_ops_share = {failed}/{attempted}")
    if not args.trace:
        print(f"# speed factor of this box against the reference box: set-up "
              f"{setup_probe.factor:.3f}, loop {loop_probe.factor:.3f} "
              f"({len(loop_probe.samples)} probes; wall-clock metrics are divided by it)")
    detail = {"mode": mode, "seed": args.seed, "seconds": seconds, "wall_s": wall,
              "speed_factor": None if args.trace else loop_probe.factor,
              "ops": workload.ops, "op_samples": len(workload.op_wall),
              "setup_samples": setups, "checks": len(checks)}
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in sorted(values)},
    }))
    return 0 if failed == 0 else 1


# -- all workloads, one child process each --------------------------------------


def child(args: argparse.Namespace, workload: str, seed: int, trace: int) -> dict[str, Any]:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    command += ["--smoke"] if args.smoke else []
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONHASHSEED": "0"}, check=False)
    sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload}: no result (exit code {done.returncode})")
    result = json.loads(lines[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    result["detail"] = json.loads(lines[-2].removeprefix("detail "))
    return result


def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:
        return None
    return done.stdout.strip() or None


def run_all(args: argparse.Namespace) -> int:
    mode = "smoke" if args.smoke else "full"
    record: dict[str, Any] = {
        "mode": mode, "seconds": args.seconds, "trace": args.trace,
        "seeds": list(range(args.seed, args.seed + args.repeat)),
        "env": {"git_sha": git_sha(), "nproc": os.cpu_count(),
                "python": platform.python_version()},
        "workloads": {},
    }
    correct = True
    for workload in WORKLOAD_NAMES:
        runs = [child(args, workload, seed, 0) for seed in record["seeds"]]
        traced = [child(args, workload, seed, 1) for seed in record["seeds"]] if args.trace else []
        record["workloads"][workload] = {"runs": runs, "traced_runs": traced}
        correct = correct and all(run["correct"] for run in runs + traced)
        if traced:
            # Cross-check of bench.trace_overhead_share, which a traced run
            # estimates from its span count without an untraced run to compare to.
            slower = traced[0]["detail"]["wall_s"] / runs[0]["detail"]["wall_s"] - 1.0
            print(f"# {workload}: traced loop wall {slower:+.1%} against the untraced run "
                  f"(base {runs[0]['detail']['wall_s']:.3f} s)")
    RESULTS.mkdir(parents=True, exist_ok=True)
    # The mode is part of the name: a smoke run cannot overwrite a full record.
    path = RESULTS / f"{mode}-seed{args.seed}-x{args.repeat}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"# wrote {path.relative_to(ROOT)}")
    return 0 if correct else 1


def main(argv: list[str]) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.workload is None:
        return run_all(args)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash randomisation would reorder sets of strings between runs.
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

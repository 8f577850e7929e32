"""`make bench-counts PARENT=<ref> [W=<workload>] [SMOKE=1] [SEED=<s>]`: the counts that must repeat.

Unpacks *PARENT* as ``make bench-ab`` does and runs the benchmark traced —
``python3 benchmarks/e2e/run.py --workload W --seed S --trace 1 [--smoke]``
— once in the parent's tree and once in this one; for workload *W*, or
without one for every workload BENCHMARK.json names.  A traced run's
counts, ratios and simulated-time figures repeat exactly for a seed; its
wall-clock figures do not.  A per-layer metric of BENCHMARK.json is
wall-clock if its name ends in ``busy_share``, if it is one of
:data:`WALL_SHARES`, or if its unit is ``ms``, ``s`` or ``us`` and its
name holds no ``_sim_``; every other one must repeat exactly.  For each
workload this prints every such metric that differs, as ``name parent ->
change``, or ``identical``.  It prints only: the exit status is 0 whatever
differs.
"""
import argparse
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

# The unpacking and the run are bench_ab's; they are imported from there.
_ab_spec = importlib.util.spec_from_file_location(
    "bench_ab", Path(__file__).resolve().parent / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_ab_spec)
_ab_spec.loader.exec_module(bench_ab)

#: Shares of the wall that are not ``busy_share`` metrics.
WALL_SHARES = frozenset(
    {"bench.trace_overhead_share", "bench.unattributed_share", "client.reads_wall_share"})
WALL_UNITS = frozenset({"ms", "s", "us"})


def repeats_exactly(name: str, unit: str) -> bool:
    """Whether the metric *name* (in *unit*) must repeat exactly for a seed."""
    if name.endswith("busy_share") or name in WALL_SHARES:
        return False
    return not (unit in WALL_UNITS and "_sim_" not in name)


def _show(value: float | None) -> str:
    return "absent" if value is None else f"{value:.10g}"


def differences(parent: dict[str, float], change: dict[str, float],
                units: dict[str, str]) -> list[str]:
    """One line per exact-repeat metric of *units* whose value differs
    between the *parent* and the *change* run, in *units*' order."""
    return [
        f"{name}  {_show(parent.get(name))} -> {_show(change.get(name))}"
        for name, unit in units.items()
        if repeats_exactly(name, unit) and parent.get(name) != change.get(name)
    ]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref to compare against")
    parser.add_argument("--workload", help="one workload (default: every one BENCHMARK.json names)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true", help="pass --smoke to run.py")
    args = parser.parse_args(argv)
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    flags = ["--trace", "1", *(["--smoke"] if args.smoke else [])]
    with tempfile.TemporaryDirectory(prefix="bench-counts-") as scratch:
        sha = bench_ab.unpack(args.parent, root, scratch)
        for workload in workloads:
            parent, parent_failed = bench_ab.run_workload(Path(scratch), workload, args.seed, *flags)
            change, change_failed = bench_ab.run_workload(root, workload, args.seed, *flags)
            lines = differences(parent, change, units)
            print(f"# {workload} seed {args.seed}{' smoke' if args.smoke else ''}: "
                  f"{sha[:7]} -> this tree; failed operations: parent {parent_failed}, "
                  f"change {change_failed}")
            print("\n".join(lines) if lines else "identical", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

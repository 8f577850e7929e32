"""`make bench-table PR=<n> [AGAINST=<m>]`: where the wall goes, as one table.

Reads the traced seed-0 run of every workload in ``BENCH_<n>.json`` (made
by ``make bench-record PR=<n>``) and prints each layer's ``busy_share`` —
its self time over the workload's wall — as a Markdown table: one row per
layer, in the order BENCHMARK.json lists the ``<layer>.busy_share``
metrics, one column per workload, in the record's order.  With
``AGAINST=<m>`` each cell also gives the ratio to the same cell of
``BENCH_<m>.json`` (``×0.54``); a cell that was 0 there gets none.
Nothing is run and nothing is written.
"""
import argparse
import json
import sys
from pathlib import Path

SEED = 0
SUFFIX = ".busy_share"


def shares(record: dict) -> dict[str, dict[str, float]]:
    """``{workload: {metric: value}}`` of the record's traced seed-0 runs."""
    if SEED not in record["seeds"]:
        raise SystemExit(f"the record holds no seed-{SEED} run (seeds {record['seeds']})")
    position = record["seeds"].index(SEED)
    out = {}
    for workload, runs in record["workloads"].items():
        if not runs["traced_runs"]:
            raise SystemExit(f"{workload}: the record holds no traced run (run.py --trace 1)")
        out[workload] = runs["traced_runs"][position]["metrics"]
    return out


def table(layers: list[str], now: dict[str, dict[str, float]],
          before: dict[str, dict[str, float]] | None = None) -> str:
    """The Markdown table of *layers* × the workloads of *now*."""
    workloads = list(now)
    lines = ["| layer | " + " | ".join(f"`{w}`" for w in workloads) + " |",
             "|---" * (len(workloads) + 1) + "|"]
    for layer in layers:
        cells = []
        for workload in workloads:
            value = now[workload].get(layer + SUFFIX, 0.0)
            cell = f"{value:.2f}"
            was = (before or {}).get(workload, {}).get(layer + SUFFIX, 0.0)
            if was > 0:
                cell += f" (×{value / was:.2f})"
            cells.append(cell)
        lines.append(f"| {layer} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pr", type=int, help="print BENCH_<pr>.json")
    parser.add_argument("--against", type=int, help="give ratios to BENCH_<against>.json")
    args = parser.parse_args(argv)
    root = Path.cwd()

    def load(pr: int) -> dict:
        path = root / f"BENCH_{pr}.json"
        if not path.exists():
            raise SystemExit(f"{path.name} does not exist: run `make bench-record PR={pr}` first")
        return json.loads(path.read_text(encoding="utf-8"))

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = [m["name"][:-len(SUFFIX)] for m in spec["per_layer"] if m["name"].endswith(SUFFIX)]
    before = shares(load(args.against)) if args.against is not None else None
    print(f"busy_share, traced, seed {SEED}, BENCH_{args.pr}.json"
          + (f" (× against BENCH_{args.against}.json)" if before else ""))
    print(table(layers, shares(load(args.pr)), before))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

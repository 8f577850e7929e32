"""tools/bench_counts.py: which metrics must repeat and how a difference
prints, on canned ``run.py`` metrics (no benchmark runs here)."""

import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_counts", Path(__file__).resolve().parents[1] / "tools" / "bench_counts.py")
bench_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_counts)

UNITS = {
    "crypto.signs_per_tx": "count",
    "crypto.verify_cache_hit_ratio": "ratio",
    "client.commit_sim_ms_p50": "ms",
    "mempool.order_wait_sim_ms_p50": "ms",
    "crypto.verify_uncached_ms_per_sig": "ms",
    "ml.fit_s": "s",
    "simnet.step_self_us_per_event": "us",
    "store.wal_bytes_per_tx": "B/tx",
    "crypto.busy_share": "ratio",
    "bench.trace_overhead_share": "ratio",
    "bench.unattributed_share": "ratio",
    "client.reads_wall_share": "ratio",
    "bench.spans_recorded": "count",
}


def test_wall_clock_metrics_are_the_ones_left_out():
    exact = [name for name, unit in UNITS.items() if bench_counts.repeats_exactly(name, unit)]
    assert exact == [
        "crypto.signs_per_tx",
        "crypto.verify_cache_hit_ratio",
        "client.commit_sim_ms_p50",
        "mempool.order_wait_sim_ms_p50",
        "store.wal_bytes_per_tx",
        "bench.spans_recorded",
    ]


def test_every_declared_metric_is_classified():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    exact = {m["name"] for m in spec["per_layer"]
             if bench_counts.repeats_exactly(m["name"], m["unit"])}
    assert "consensus.msgs_per_block" in exact and "client.catchup_sim_s" in exact
    assert not {"core.trace_ms", "peer.restart_wall_ms", "ml.fit_s"} & exact
    assert not any(name.endswith("busy_share") for name in exact)


def test_only_differing_exact_metrics_print_in_declared_order():
    parent = {name: 1.0 for name in UNITS}
    change = dict(parent, **{
        "bench.spans_recorded": 8134.0,           # differs: printed
        "crypto.verify_cache_hit_ratio": 0.8333333333,
        "crypto.verify_uncached_ms_per_sig": 2.0,  # wall-clock: ignored
        "crypto.busy_share": 0.5,
    })
    del change["store.wal_bytes_per_tx"]
    assert bench_counts.differences(parent, change, UNITS) == [
        "crypto.verify_cache_hit_ratio  1 -> 0.8333333333",
        "store.wal_bytes_per_tx  1 -> absent",
        "bench.spans_recorded  1 -> 8134",
    ]
    assert bench_counts.differences(parent, dict(parent), UNITS) == []


"""Pipelined PBFT — sustained ordering throughput vs pipeline depth.

The E9 scalability sweep measures consensus cost across network sizes;
this benchmark holds the network fixed (4 validators, the paper's
minimum byzantine quorum) and sweeps the *pipeline depth*: how many PBFT
sequence numbers the primary keeps in flight at once.  Depth 1 is the
seed's one-block-per-round-trip engine; deeper windows overlap the
pre-prepare/prepare/commit round trips of consecutive heights, so
sustained tx/s should scale with depth until the batch supply (mempool)
or the commit path becomes the bottleneck — while per-tx commit latency
stays flat (pipelining adds concurrency, not queueing).

Safety rides along: the same seeded chaos/invariant audit that gates the
engine in tier-1 (crashes, partitions, latency spikes, rogue flooders;
agreement/certificate/durability/convergence/catch-up/pipeline
invariants) is re-run at depth 4, and any violation fails the benchmark.

REPRO_BENCH_SMOKE=1 shrinks the workload and the chaos seed sweep to a
CI-sized pass (depths 1 and 4 only, 2 chaos seeds) so every PR exercises
depth > 1; the full run sweeps depths 1/2/4/8 and chaos seeds 0-9.
"""

from __future__ import annotations

import os

from benchmarks.conftest import emit
from repro.chain import BlockchainNetwork, Contract, contract_method
from repro.simnet import FixedLatency

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

N_TXS = 80 if _SMOKE else 240
DEPTHS = (1, 4) if _SMOKE else (1, 2, 4, 8)
CHAOS_SEEDS = range(2) if _SMOKE else range(10)
MAX_BLOCK_TXS = 10


class KVContract(Contract):
    """Disjoint-key writes so MVCC conflicts don't confound throughput."""

    name = "kv"

    @contract_method
    def put(self, ctx, key: str, value: str):
        ctx.put(key, value)
        return True


def _run_depth(depth: int) -> dict:
    """One sustained-throughput run at *depth*.

    The whole workload is admitted up front (mempool saturated), so the
    primary always has batches available and the measured rate is the
    ordering pipeline's, not the submission loop's.
    """
    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.05,
        latency=FixedLatency(0.05), max_block_txs=MAX_BLOCK_TXS,
        seed=77, view_timeout=5.0, pipeline_depth=depth,
    )
    network.install_contract(KVContract)
    client = network.client()
    tx_ids = [
        client.invoke("kv", "put", {"key": f"k-{index}", "value": "v"}, wait=False)
        for index in range(N_TXS)
    ]
    for tx_id in tx_ids:
        network.wait_for_receipt(tx_id, timeout=300.0)
    network.run_for(5.0)
    network.stop()
    network.assert_convergence()
    reference = max(network.peers, key=lambda p: p.ledger.height)
    assert all(
        tx_id in reference.receipts and reference.receipts[tx_id].success
        for tx_id in tx_ids
    ), "workload did not fully commit"
    elapsed = network.obs.histogram("peer.commit_time", peer=reference.node_id).max
    latency = network.obs.histogram("phase.commit_latency", peer=reference.node_id)
    return {
        "depth": depth,
        "throughput_tx_per_s": N_TXS / elapsed,
        "commit_latency_p50_s": latency.percentile(0.50),
        "commit_latency_p95_s": latency.percentile(0.95),
        "blocks": reference.ledger.height,
        "sim_time_to_last_commit_s": elapsed,
    }


def _chaos_at_depth_4() -> dict:
    """The engine-gating chaos audit, re-run with the pipeline open."""
    from tests.chain.test_chaos_audit import run_chaos_audited

    violations = 0
    blocks = 0
    for seed in CHAOS_SEEDS:
        network, auditor, _ = run_chaos_audited(seed, pipeline_depth=4)
        violations += len(auditor.violations)
        blocks += network.obs.total("audit.blocks_audited")
    return {
        "seeds": len(list(CHAOS_SEEDS)),
        "violations": violations,
        "blocks_audited": blocks,
    }


def _sweep() -> dict:
    return {
        "depths": [_run_depth(depth) for depth in DEPTHS],
        "chaos": _chaos_at_depth_4(),
    }


def test_pipeline_depth_sweep(benchmark):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    by_depth = {entry["depth"]: entry for entry in results["depths"]}
    base = by_depth[DEPTHS[0]]["throughput_tx_per_s"]
    rows = [f"{'depth':>5} {'tx/s(sim)':>10} {'speedup':>8} {'p50(s)':>7} "
            f"{'p95(s)':>7} {'blocks':>7}"]
    for entry in results["depths"]:
        rows.append(
            f"{entry['depth']:>5} {entry['throughput_tx_per_s']:>10.1f} "
            f"{entry['throughput_tx_per_s'] / base:>7.2f}x "
            f"{entry['commit_latency_p50_s']:>7.3f} "
            f"{entry['commit_latency_p95_s']:>7.3f} {entry['blocks']:>7}"
        )
    chaos = results["chaos"]
    rows.append(
        f"chaos audit @ depth 4: {chaos['seeds']} seeds, "
        f"{chaos['blocks_audited']} blocks audited, "
        f"{chaos['violations']} violations"
    )
    if _SMOKE:
        rows.append("(smoke mode: depths 1/4 only, 2 chaos seeds — full run "
                    "sweeps 1/2/4/8 and seeds 0-9)")
    metrics = {f"depth_{entry['depth']}": entry for entry in results["depths"]}
    metrics["chaos_depth4"] = chaos
    emit(benchmark, "Pipelined PBFT — throughput vs pipeline depth (4 validators)",
         rows, metrics=metrics)
    # The tentpole's gate: depth 4 must sustain >= 1.8x the depth-1 rate.
    assert by_depth[4]["throughput_tx_per_s"] >= 1.8 * base, (
        "pipelining failed to deliver sustained throughput"
    )
    # And it must not cost tail latency: p95 stays within 2x of depth 1.
    assert by_depth[4]["commit_latency_p95_s"] <= 2.0 * max(
        by_depth[DEPTHS[0]]["commit_latency_p95_s"], 1e-9
    )
    # Safety is non-negotiable at any depth.
    assert chaos["violations"] == 0

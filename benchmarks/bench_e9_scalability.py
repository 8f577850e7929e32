"""E9 — §VII scalability: consensus sweep + sharded parallel execution.

Workload: 120 counter-style transactions (disjoint keys) submitted to a
simulated network of N validators, N in {4, 8, 16}, under both engines:

- round-robin PoA ordering (the Fabric-style throughput bound),
- PBFT (byzantine tolerance at quadratic message cost).

Reports simulated-time throughput, mean commit latency, and message
volume per committed transaction — the shape expected: PoA latency is
flat-ish in N while PBFT latency and message cost grow, which is why the
paper needs its ICDCS'18 parallel-execution layer (A3, measured here via
the sharded executor's speedup on the same blocks).
"""

from __future__ import annotations

import pathlib

from benchmarks.conftest import emit
from repro.chain import BlockchainNetwork, Contract, contract_method
from repro.obs import export_jsonl, snapshot_crypto_cache
from repro.simnet import FixedLatency

N_TXS = 120
PEER_COUNTS = (4, 8, 16, 32)
TRACE_PATH = pathlib.Path(__file__).parent / "latest_trace.jsonl"


class KVContract(Contract):
    """Disjoint-key writes so MVCC conflicts don't confound the sweep."""

    name = "kv"

    @contract_method
    def put(self, ctx, key: str, value: str):
        ctx.put(key, value)
        return True


def _run_config(n_peers: int, consensus: str, trace: bool = False):
    network = BlockchainNetwork(
        n_peers=n_peers, consensus=consensus, block_interval=0.5,
        latency=FixedLatency(0.05), seed=900 + n_peers,
        n_shards=4,
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
    network.assert_convergence()
    peer = network.peers[0]
    committed = network.obs.counter("peer.txs_committed_valid", peer=peer.node_id).value
    elapsed = network.sim.now
    throughput = committed / elapsed
    latency = network.obs.histogram("phase.commit_latency", peer=peer.node_id).mean
    messages_per_tx = network.obs.total("net.sent") / max(1, committed)
    speedup = peer.sharded_executor.cumulative_speedup if peer.sharded_executor else 1.0
    if trace:
        # Durable timeline for `repro-news report`: the full per-phase
        # latency breakdown of this configuration's run.
        snapshot_crypto_cache(network.obs)
        export_jsonl(
            TRACE_PATH, network.obs, network.tracer,
            meta={"experiment": "E9", "consensus": consensus,
                  "n_peers": n_peers, "n_txs": N_TXS, "sim_time": elapsed},
        )
    return throughput, latency, messages_per_tx, speedup, committed


def _sweep():
    results = {}
    for consensus in ("poa", "pbft"):
        for n_peers in PEER_COUNTS:
            trace = consensus == "pbft" and n_peers == PEER_COUNTS[0]
            results[(consensus, n_peers)] = _run_config(n_peers, consensus, trace=trace)
    return results


def test_e9_consensus_scalability(benchmark):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    rows = [f"{'engine':<6} {'peers':>5} {'tx/s(sim)':>10} {'latency(s)':>11} "
            f"{'msgs/tx':>8} {'shard-speedup':>14}"]
    for (consensus, n_peers), (throughput, latency, messages, speedup, committed) in results.items():
        rows.append(
            f"{consensus:<6} {n_peers:>5} {throughput:>10.1f} {latency:>11.3f} "
            f"{messages:>8.1f} {speedup:>14.2f}"
        )
    rows.append("shape: PoA messages/tx grow ~linearly, PBFT ~quadratically in peers; "
                "sharded execution recovers a ~constant-factor speedup (A3)")
    metrics = {
        f"{consensus}_{n_peers}": {
            "throughput_tx_per_s": throughput, "mean_latency_s": latency,
            "messages_per_tx": messages, "shard_speedup": speedup,
            "committed": committed,
        }
        for (consensus, n_peers), (throughput, latency, messages, speedup, committed)
        in results.items()
    }
    metrics["trace_path"] = str(TRACE_PATH)
    emit(benchmark, "E9 — consensus scalability sweep (4-shard parallel execution)",
         rows, metrics=metrics)
    # PBFT must cost more messages than PoA at every size, growing faster.
    for n_peers in PEER_COUNTS:
        assert results[("pbft", n_peers)][2] > results[("poa", n_peers)][2]
    poa_growth = results[("poa", 16)][2] / results[("poa", 4)][2]
    pbft_growth = results[("pbft", 16)][2] / results[("pbft", 4)][2]
    assert pbft_growth > poa_growth
    assert all(r[3] > 1.5 for r in results.values())  # sharding pays off

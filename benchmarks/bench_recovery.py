"""Crash-recovery benchmark: deep catch-up latency and throughput.

A 4-validator PBFT network loses one replica for 20+ blocks — far
beyond the engine's ``HEIGHT_WINDOW`` round buffer — then brings it
back under lossy links (25% message drop during the recovery phase), in
both comeback modes:

- **pause**   — crash-pause: in-memory state intact, only behind;
- **restart** — crash-restart: mempool/rounds/timers wiped, world state
  replayed from the durable ledger, then the same catch-up.

Reported per scenario: blocks missed, catch-up latency (from the fault
injector's log to the head that existed at comeback), sync throughput
(blocks/s while lagging), and the retry machinery's counters (timeouts,
retries, provider failovers) proving the loss was real and survived.
The victim's fetch batch is shrunk so the gap takes many round-trips —
that is what gives the drop rate something to kill.

Besides the usual ``emit`` table, the run writes a JSON perf record to
``benchmarks/latest_recovery.json`` for machine consumption.

``test_cold_start_recovery`` measures the other half of the story: how
long a single peer takes to get its chain *back* after the process dies.
It populates a durable store with a synthetic chain (dummy signatures —
the cost under test is storage, not Ed25519), then cold-starts two ways:
full log replay (the seed's restart semantics: every record re-decoded,
re-verified, re-applied) versus snapshot+tail (load the newest
world-state snapshot, replay only the records above it).  Both must
recover the byte-identical tip, state digest, and receipt set; at the
largest size the snapshot path must be strictly faster — that gap is the
entire point of shipping snapshots.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import statistics
import time

from benchmarks.conftest import emit
from repro.chain import BlockchainNetwork, DurableStore, InvariantAuditor
from repro.chain.block import Block
from repro.chain.ledger import Ledger
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction, TxReceipt
from repro.crypto.hashing import sha256_hex
from repro.simnet import FailureSchedule, UniformLatency
from repro.simnet.disk import SimDisk

JSON_PATH = pathlib.Path(__file__).parent / "latest_recovery.json"

SEEDS = range(3)
N_TXS = 26
RECOVERY_DROP = 0.25

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
# Chain sizes for the cold-start comparison; the gate (snapshot+tail
# strictly faster) only applies to the largest full-mode size, where the
# replay cost dominates any constant-factor noise.  The 100k size is the
# explorer-scale chain bench_explorer.py queries — restart must stay
# snapshot-bound there too.
COLD_START_SIZES = (100, 400) if _SMOKE else (1_000, 10_000, 100_000)


def _run(mode: str, seed: int) -> dict:
    from tests.conftest import CounterContract

    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.5,
        latency=UniformLatency(0.01, 0.05), seed=seed,
        view_timeout=4.0, drop_probability=0.0,
    )
    network.install_contract(CounterContract)
    auditor = InvariantAuditor(network)
    schedule = FailureSchedule(network.sim, network.net)
    victim = network.peers[3]
    victim.sync.MAX_BATCH = 4  # many round-trips: give the drop rate targets
    schedule.crash_at(1.0, victim.node_id)
    client = network.client()
    for _ in range(N_TXS):
        tx = network.endorse_transaction(client, "counter", "increment", {"amount": 1})
        network.submit(tx)
        network.run_for(0.8)
    gap = max(p.ledger.height for p in network.peers) - victim.ledger.height
    network.net.drop_probability = RECOVERY_DROP
    comeback = network.sim.now + 0.5
    if mode == "restart":
        schedule.restart_at(comeback, victim.node_id)
    else:
        schedule.recover_at(comeback, victim.node_id)
    network.run_for(90.0)
    network.stop()
    auditor.final_check(failures=schedule.log, sync_window=90.0)

    latencies = [lat for _, lat in auditor.catchup_latencies(schedule.log)]
    obs, node = network.obs, victim.node_id

    def count(name: str) -> float:
        return obs.counter(name, peer=node).value

    synced_blocks = count("sync.lag_blocks")
    synced_time = obs.histogram("phase.sync_fetch", peer=node).total
    return {
        "mode": mode,
        "seed": seed,
        "blocks_missed": gap,
        "drop_probability": RECOVERY_DROP,
        "catchup_latency_s": latencies[0] if latencies else None,
        "sync_blocks_per_s": (synced_blocks / synced_time) if synced_time else None,
        "blocks_synced": count("sync.blocks_synced"),
        "requests": count("sync.requests_sent"),
        "timeouts": count("sync.timeouts"),
        "retries": count("sync.retries"),
        "provider_failovers": count("sync.provider_failovers"),
        "restarts": count("peer.restarts"),
        "final_height": victim.ledger.height,
        "violations": len(auditor.violations),
    }


def _sweep() -> list[dict]:
    return [_run(mode, seed) for mode in ("pause", "restart") for seed in SEEDS]


def test_recovery(benchmark):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    rows = [f"{'mode':>8} {'seed':>4} {'missed':>6} {'latency(s)':>10} "
            f"{'blk/s':>7} {'req':>4} {'t/o':>4} {'retry':>5} {'failover':>8}"]
    for r in results:
        latency = f"{r['catchup_latency_s']:.2f}" if r["catchup_latency_s"] is not None else "-"
        rate = f"{r['sync_blocks_per_s']:.1f}" if r["sync_blocks_per_s"] else "-"
        rows.append(
            f"{r['mode']:>8} {r['seed']:>4} {r['blocks_missed']:>6} {latency:>10} "
            f"{rate:>7} {r['requests']:>4} {r['timeouts']:>4} "
            f"{r['retries']:>5} {r['provider_failovers']:>8}"
        )
    latencies = [r["catchup_latency_s"] for r in results]
    rows.append(
        f"catch-up latency over {len(latencies)} faults: "
        f"p50={statistics.median(latencies):.2f}s max={max(latencies):.2f}s "
        f"at {RECOVERY_DROP:.0%} message drop"
    )
    rows.append("shape: every latency finite (the deep gap always closes), "
                "restart no slower than pause by more than the replay cost, "
                "retries nonzero (the loss was real)")
    emit(benchmark, "Recovery — deep catch-up under message loss", rows)
    JSON_PATH.write_text(json.dumps({"scenarios": results}, indent=2) + "\n",
                         encoding="utf-8")

    for r in results:
        assert r["blocks_missed"] >= 20, r
        assert r["catchup_latency_s"] is not None, f"never caught up: {r}"
        assert r["violations"] == 0, r
        assert r["final_height"] >= r["blocks_missed"]
    # The lossy recovery phase genuinely exercised the retry machinery.
    assert sum(r["timeouts"] + r["retries"] for r in results) > 0
    assert any(r["restarts"] == 1 for r in results if r["mode"] == "restart")


# -- cold-start: full replay vs snapshot+tail -------------------------------


def _bench_tx(nonce: int) -> Transaction:
    """A structurally complete transaction with a dummy signature.

    ``Ledger.append`` verifies block structure (Merkle over tx ids), not
    client signatures, so the cold-start numbers measure the storage
    engine rather than 20k Ed25519 signing operations during setup.
    """
    tx_id = sha256_hex(f"cold-start-tx-{nonce}".encode("utf-8"))
    return Transaction(
        sender="bench-sender", public_key_hex="00", contract="counter",
        method="increment", args={"n": nonce}, nonce=nonce, timestamp=0.0,
        signature_hex="00", tx_id=tx_id,
        write_set={f"counter/{nonce % 97}": nonce},
    )


def _populate_store(n_blocks: int, snapshot_interval: int) -> tuple[SimDisk, dict]:
    """Commit *n_blocks* synthetic blocks through a DurableStore and
    return the disk plus the uninterrupted run's reference state."""
    disk = SimDisk(f"cold-{n_blocks}-{snapshot_interval}", rng=random.Random(1))
    store = DurableStore(disk=disk, snapshot_interval=snapshot_interval)
    ledger, state, receipts = Ledger(), WorldState(), {}
    nonce = 0
    for height in range(1, n_blocks + 1):
        txs = [_bench_tx(nonce), _bench_tx(nonce + 1)]
        nonce += 2
        block = Block.build(height, ledger.head.block_hash, float(height), "p", txs)
        validity = [True] * len(txs)
        ledger.append(block, validity)
        for tx in block.transactions:
            state.apply_write_set(tx.write_set)
            receipts[tx.tx_id] = TxReceipt(
                tx_id=tx.tx_id, block_height=height, success=True,
                return_value=None, events=(), error=None,
            )
        store.on_commit(block, validity, proof=None)
        store.maybe_snapshot(ledger, state)
    reference = {
        "height": ledger.height,
        "tip": ledger.head.block_hash,
        "state_digest": state.state_digest(),
        "n_receipts": len(receipts),
    }
    return disk, reference


def _cold_start(disk: SimDisk, backend: str, n_blocks: int) -> dict:
    """Time one cold start: a fresh store instance recovering the chain
    purely from the durable disk image."""
    started = time.perf_counter()
    store = DurableStore(disk=disk)
    recovered = store.recover()
    elapsed = time.perf_counter() - started
    report = recovered.report
    assert report.degradations == [], f"clean image degraded: {report.summary()}"
    return {
        "backend": backend,
        "n_blocks": n_blocks,
        "mode": report.mode,
        "recovery_s": elapsed,
        "height": recovered.ledger.height,
        "tip": recovered.ledger.head.block_hash,
        "state_digest": recovered.state.state_digest(),
        "n_receipts": len(recovered.ledger.receipts),
        "snapshot_height": report.snapshot_height,
        "tail_records": report.tail_records,
        "log_bytes": disk.size(store.log.name),
    }


def _cold_start_sweep() -> list[dict]:
    results = []
    for n_blocks in COLD_START_SIZES:
        # "memory" reproduces the seed's restart: no snapshots exist, so
        # recovery is a full replay of every record — the disk-backed
        # equivalent of rebuilding world state from the in-memory ledger.
        replay_disk, reference = _populate_store(n_blocks, snapshot_interval=n_blocks + 1)
        # A non-dividing interval so the newest snapshot sits *below* the
        # tip: the timed path is snapshot load + genuine tail replay.
        snap_disk, snap_reference = _populate_store(
            n_blocks, snapshot_interval=max(33, n_blocks // 20 + 7)
        )
        assert reference == snap_reference  # identical synthetic chains
        for backend, disk in (("memory-replay", replay_disk), ("durable-snapshot", snap_disk)):
            result = _cold_start(disk, backend, n_blocks)
            for key in ("height", "tip", "state_digest", "n_receipts"):
                assert result[key] == reference[key], (
                    f"{backend}@{n_blocks}: recovered {key} diverges from the "
                    f"uninterrupted run: {result[key]!r} != {reference[key]!r}"
                )
            results.append(result)
    return results


def test_cold_start_recovery(benchmark):
    results = benchmark.pedantic(_cold_start_sweep, rounds=1, iterations=1)
    rows = [f"{'backend':>16} {'blocks':>7} {'mode':>13} {'snap@':>6} "
            f"{'tail':>5} {'recover(s)':>10}"]
    metrics: dict[str, dict] = {}
    for r in results:
        rows.append(
            f"{r['backend']:>16} {r['n_blocks']:>7} {r['mode']:>13} "
            f"{r['snapshot_height']:>6} {r['tail_records']:>5} {r['recovery_s']:>10.3f}"
        )
        metrics.setdefault(str(r["n_blocks"]), {})[r["backend"]] = {
            "mode": r["mode"],
            "recovery_s": round(r["recovery_s"], 4),
            "tail_records": r["tail_records"],
            "state_digest": r["state_digest"],
        }
    for n_blocks in COLD_START_SIZES:
        pair = {r["backend"]: r for r in results if r["n_blocks"] == n_blocks}
        speedup = pair["memory-replay"]["recovery_s"] / pair["durable-snapshot"]["recovery_s"]
        metrics[str(n_blocks)]["replay_over_snapshot_speedup"] = round(speedup, 2)
        rows.append(f"{n_blocks} blocks: snapshot+tail is {speedup:.1f}x the replay cold start")
    rows.append("shape: identical tip/state/receipts both ways (recovery is "
                "exact), snapshot+tail strictly faster at the largest size")
    emit(benchmark, "Recovery — cold start: full replay vs snapshot+tail", rows,
         metrics=metrics)

    for r in results:
        expected = "full-replay" if r["backend"] == "memory-replay" else "snapshot+tail"
        assert r["mode"] == expected, r
    if not _SMOKE:
        largest = max(COLD_START_SIZES)
        pair = {r["backend"]: r for r in results if r["n_blocks"] == largest}
        assert (pair["durable-snapshot"]["recovery_s"]
                < pair["memory-replay"]["recovery_s"]), (
            f"snapshot+tail not faster at {largest} blocks: {pair}"
        )

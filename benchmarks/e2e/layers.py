"""Per-layer metrics of one traced run.

Times are span *self time* from ``tracing.Aggregate`` (duration minus child
spans) unless the name says ``wall`` (inclusive); counts are deltas over the
measured loop of public read-outs (``network.obs``, ``SimDisk.stats()``,
``ed25519.*_stats()``, ``Mempool.rejected_full``) and of the benchmark's
own ``CommitWatch``.  ``<layer>.busy_share`` is the layer's self time over
the measured wall.  Every metric is reported on every workload; one a
workload does not exercise reads 0.
"""

from __future__ import annotations

from typing import Any

from benchmarks.e2e.tracing import LAYERS, Aggregate
from benchmarks.e2e.workloads import Workload, percentile
from repro.crypto import ed25519

_OBS_COUNTERS = (
    "peer.txs_committed_valid", "peer.txs_committed_invalid", "peer.mvcc_conflicts",
    "peer.blocks_committed", "net.sent", "net.bytes_estimate", "net.dropped_partition",
    "net.dropped_random", "net.dropped_crashed", "pbft.view_changes", "sync.blocks_synced",
    "sync.requests_sent", "sync.retries", "sync.provider_failovers",
    "store.snapshots_written", "store.log_bytes", "store.degradations",
)


def readouts(workload: Workload) -> dict[str, float]:
    """Running totals of every public counter the layer metrics use."""
    out: dict[str, float] = {}
    for prefix, stats in (("verify", ed25519.verify_cache_stats()),
                          ("point", ed25519.point_cache_stats()),
                          ("batch", ed25519.batch_stats())):
        for key, value in stats.items():
            out[f"{prefix}.{key}"] = value
    network = workload.network
    if network is None:
        return out
    for name in _OBS_COUNTERS:
        out[name] = network.obs.total(name)
    waits = network.obs.histograms("pbft.commit_buffer_wait")
    out["buffer_wait.count"] = sum(h.count for h in waits)
    out["buffer_wait.total"] = sum(h.total for h in waits)
    out["events"] = network.sim.events_processed
    out["fsyncs"] = sum(p.disk.stats()["fsyncs"] for p in network.peers if p.disk is not None)
    out["rejected_full"] = sum(p.mempool.rejected_full for p in network.peers)
    return out


def per(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_metrics(
    agg: Aggregate,
    delta: dict[str, float],
    workload: Workload,
    tallies: dict[str, float],
    fit_s: float,
    span_cost: float,
) -> dict[str, float]:
    """Every ``per_layer`` metric of BENCHMARK.json for one traced run.

    *delta* is ``readouts`` after the measured loop minus before it.
    """
    stats = agg.stats
    txs, blocks = workload.committed()

    def d(name: str) -> float:
        return delta.get(name, 0.0)

    def self_ms(*names: str) -> float:
        found = stats(*names)
        return per(found.self * 1000.0, found.calls)

    def wall_ms(*names: str) -> float:
        found = stats(*names)
        return per(found.total * 1000.0, found.calls)

    def outermost(method: str) -> str:
        sqlite = f"SQLiteStore.{method}"
        return sqlite if stats(sqlite).calls else f"DurableStore.{method}"

    watch = workload.watch
    commit_ms = list(watch.commit_ms.values()) if watch else []
    nonempty = [n for n in watch.block_txs.values() if n] if watch else []
    articles = stats("TrustingNewsPlatform.publish_article",
                     "TrustingNewsPlatform.report_external",
                     "TrustingNewsPlatform.ingest_share").calls
    peer_txs = d("peer.txs_committed_valid") + d("peer.txs_committed_invalid")
    messages = stats("PBFTEngine.on_message").calls
    sync_fetch = (workload.network.obs.merged_histogram("phase.sync_fetch").percentile(50)
                  if workload.network else 0.0)
    verify_lookups = d("verify.hits") + d("verify.misses")
    point_lookups = d("point.hits") + d("point.misses")

    m: dict[str, Any] = {
        # what a client of the workload sees beyond the end-to-end set
        "client.commit_sim_ms_p50": percentile(commit_ms, 50),
        "client.commit_sim_ms_p99": percentile(commit_ms, 99),
        "client.op_wall_ms_p90": percentile(workload.op_wall, 90) * 1000.0,
        "client.read_wall_ms_p50": 0.0,
        "client.read_wall_ms_p90": 0.0,
        "client.fresh_read_wall_ms_p50": 0.0,
        "client.write_wall_ms_p50": 0.0,
        "client.reads_wall_share": per(workload.read_wall, agg.wall),
        "client.outage_sim_s": 0.0,
        "client.catchup_sim_s": 0.0,
        # core
        "core.publish_self_ms_per_article": self_ms(
            "TrustingNewsPlatform.publish_article", "TrustingNewsPlatform.report_external"),
        "core.graph_rebuild_ms": self_ms("build_supply_chain_graph"),
        "core.graph_rebuilds": stats("build_supply_chain_graph").calls,
        "core.rank_room_ms": self_ms("TrustingNewsPlatform.rank_room"),
        "core.trace_ms": self_ms("TrustingNewsPlatform.trace", "trace_to_factual_root"),
        "core.export_audit_ms": self_ms("TrustingNewsPlatform.export_audit"),
        "core.prove_article_ms": self_ms("TrustingNewsPlatform.prove_article"),
        # provenance and its children in corpus
        "provenance.discover_ms_per_call": self_ms("ProvenanceIndex.discover_parents"),
        "provenance.add_ms_per_call": self_ms("ProvenanceIndex.add"),
        "provenance.degree_ms_per_call": self_ms("ProvenanceIndex.degree_between"),
        "provenance.candidates_scanned_per_call": per(
            tallies.get("candidates_scanned", 0.0),
            stats("ProvenanceIndex.discover_parents").calls),
        "corpus.minhash_ms_per_signature": self_ms("minhash_signature"),
        "corpus.minhash_calls_per_article": per(stats("minhash_signature").calls, articles),
        "corpus.measured_change_ms_per_call": self_ms("measured_change"),
        # ml
        "ml.score_ms_per_text": self_ms("FakeNewsScorer.score"),
        "ml.fit_s": fit_s,
        # crypto
        "crypto.sign_ms_per_sig": self_ms("sign"),
        "crypto.signs_per_tx": per(stats("sign").calls, txs),
        "crypto.verify_uncached_ms_per_sig": per(
            stats("verify", "verify_batch").self * 1000.0, d("verify.misses")),
        "crypto.verify_many_ms_per_call": wall_ms("verify_many"),
        "crypto.batch_size_mean": per(d("batch.items"), d("batch.calls")),
        "crypto.verify_cache_hit_ratio": per(d("verify.hits"), verify_lookups),
        "crypto.point_cache_hit_ratio": per(d("point.hits"), point_lookups),
        "crypto.batch_bisections": d("batch.bisections"),
        # chain.network / chain.adapter
        "chain.endorse_wall_ms_per_tx": wall_ms("BlockchainNetwork.endorse_transaction"),
        "chain.submit_wall_ms_per_tx": wall_ms("BlockchainNetwork.submit"),
        "chain.wait_wall_ms_per_tx": per(
            stats("BlockchainNetwork.wait_for_receipt").total * 1000.0, txs),
        "chain.invoke_self_ms_per_tx": self_ms("NetworkedChain.invoke"),
        "chain.barrier_sim_ms_per_tx": per(
            tallies.get("barrier_sim_s", 0.0) * 1000.0, stats("NetworkedChain._barrier").calls),
        # peer / local
        "peer.commit_block_self_ms_per_block": self_ms("Peer.commit_block"),
        "peer.commit_block_self_ms_per_tx": per(stats("Peer.commit_block").self * 1000.0, peer_txs),
        "peer.txs_per_block_mean": per(sum(nonempty), len(nonempty)),
        "peer.mvcc_conflicts": d("peer.mvcc_conflicts"),
        "peer.txs_committed_invalid": d("peer.txs_committed_invalid"),
        "peer.endorse_ms_per_tx": self_ms("Peer.endorse"),
        "peer.restart_wall_ms": wall_ms("Peer.restart"),
        "local.commit_self_ms_per_tx": self_ms("LocalChain._commit"),
        # mempool
        "mempool.depth_max": watch.mempool_depth_max if watch else 0,
        "mempool.order_wait_sim_ms_p50": percentile(watch.order_wait_ms, 50) if watch else 0.0,
        "mempool.rejected_full": d("rejected_full"),
        # consensus
        "consensus.on_message_self_ms_per_msg": self_ms("PBFTEngine.on_message"),
        "consensus.msgs_per_block": per(messages, blocks),
        "consensus.msgs_per_tx": per(messages, txs),
        "consensus.vote_sig_checks_per_block": per(
            agg.calls_under.get(("verify_signature", "consensus"), 0), blocks),
        "consensus.round_sim_ms_p50": percentile(watch.round_ms, 50) if watch else 0.0,
        "consensus.commit_buffer_wait_sim_ms_mean": per(
            d("buffer_wait.total") * 1000.0, d("buffer_wait.count")),
        "consensus.view_changes": d("pbft.view_changes"),
        # store
        "store.on_commit_ms_per_block": wall_ms(outermost("on_commit")),
        "store.snapshot_ms_per_snapshot": per(
            stats("DurableStore.maybe_snapshot").total * 1000.0, d("store.snapshots_written")),
        "store.snapshots": d("store.snapshots_written"),
        "store.wal_bytes_per_tx": per(d("store.log_bytes"), peer_txs),
        "store.fsyncs_per_block": per(d("fsyncs"), d("peer.blocks_committed")),
        "store.recover_wall_ms": wall_ms(outermost("recover")),
        "store.degradations": d("store.degradations"),
        "store.sql_query_ms": wall_ms("SQLiteStore.query_transactions"),
        # index / explorer / ledger
        "index.on_commit_ms_per_block": self_ms("ChainIndex.on_commit"),
        "index.find_ms_per_query": wall_ms("find_transactions"),
        "index.summary_ms_per_query": wall_ms("chain_summary"),
        "index.describe_ms_per_query": wall_ms("describe_transaction"),
        "index.scan_fallbacks": getattr(workload, "scan_fallbacks", 0),
        "ledger.append_ms_per_block": self_ms("Ledger.append"),
        "ledger.events_scan_ms_per_call": wall_ms("Ledger.events"),
        # sync
        "sync.blocks_synced": d("sync.blocks_synced"),
        "sync.requests_sent": d("sync.requests_sent"),
        "sync.retries": d("sync.retries"),
        "sync.provider_failovers": d("sync.provider_failovers"),
        "sync.fetch_sim_ms_p50": sync_fetch * 1000.0,
        # simnet
        "simnet.events_per_tx": per(d("events"), txs),
        "simnet.step_self_us_per_event": self_ms("Simulator.step") * 1000.0,
        "simnet.msgs_sent_per_tx": per(d("net.sent"), txs),
        "simnet.bytes_per_tx": per(d("net.bytes_estimate"), txs),
        "simnet.broadcast_self_ms_per_call": self_ms("NetworkNode.broadcast"),
        "simnet.dropped": (d("net.dropped_partition") + d("net.dropped_random")
                           + d("net.dropped_crashed")),
        # the harness itself
        "bench.trace_overhead_share": per(agg.spans * span_cost, agg.wall),
        "bench.unattributed_share": per(agg.wall - agg.attributed, agg.wall),
        "bench.spans_recorded": agg.spans,
    }
    for layer in LAYERS:
        m[f"{layer}.busy_share"] = per(agg.layer_self.get(layer, 0.0), agg.wall)
    m.update(workload.client_metrics())
    return {name: float(value) for name, value in m.items()}

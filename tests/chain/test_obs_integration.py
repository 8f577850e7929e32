"""Observability wired through the live chain: one registry per network,
phase histograms from a real run, metrics surviving crash-restarts."""

import pytest

from benchmarks.e2e.layers import _OBS_COUNTERS
from repro.chain import BlockchainNetwork, Contract, contract_method
from repro.obs import Counter, export_jsonl, read_jsonl, report_from_records
from repro.simnet import FailureSchedule, FixedLatency
from tests.conftest import peer_count


class KVContract(Contract):
    name = "kv"

    @contract_method
    def put(self, ctx, key: str, value: str):
        ctx.put(key, value)
        return True


@pytest.fixture(scope="module", params=["poa", "pbft"])
def ran_network(request):
    network = BlockchainNetwork(
        n_peers=4, consensus=request.param, block_interval=0.25,
        latency=FixedLatency(0.02), seed=42,
    )
    network.install_contract(KVContract)
    client = network.client()
    for i in range(8):
        client.invoke("kv", "put", {"key": f"k{i}", "value": "v"})
    network.run_for(2.0)
    return network


def test_one_registry_shared_by_all_components(ran_network):
    net = ran_network
    assert all(peer.obs is net.obs for peer in net.peers)
    assert all(peer.tracer is net.tracer for peer in net.peers)
    assert net.net.obs is net.obs


def test_lifecycle_phases_recorded(ran_network):
    obs = ran_network.obs
    for phase in ("phase.endorse", "phase.gossip", "phase.order_wait",
                  "phase.consensus_round", "phase.commit_latency"):
        assert obs.merged_histogram(phase).count > 0, phase
    assert peer_count(ran_network.peers[0], "peer.txs_committed_valid") == 8
    assert obs.total("net.sent") > 0


def test_endorse_and_commit_spans_traced(ran_network):
    tracer = ran_network.tracer
    assert len(tracer.spans("endorse")) == 8
    commits = tracer.spans("commit")
    assert commits and all(s.finished for s in commits)
    assert all(s.attrs["wall_ms"] >= 0 for s in commits)


def test_e2e_trace_reconstructs_phase_breakdown(ran_network, tmp_path):
    """Acceptance path: export the run, rebuild the report from the file
    alone, and check the per-phase table with commit percentiles."""
    path = tmp_path / "trace.jsonl"
    export_jsonl(path, ran_network.obs, ran_network.tracer, meta={"test": "e2e"})
    report = report_from_records(read_jsonl(path))
    assert "## Per-phase latency" in report
    for phase in ("endorse", "gossip", "order_wait", "consensus_round",
                  "commit_latency"):
        assert f"| {phase} |" in report, phase
    # Percentile columns reconstructed from the pooled JSONL reservoirs
    # must match the live registry's pooled values.
    pooled = ran_network.obs.merged_histogram("phase.commit_latency")
    line = next(l for l in report.splitlines() if l.startswith("| commit_latency"))
    cells = [c.strip() for c in line.split("|")]
    assert int(cells[2]) == pooled.count
    assert abs(float(cells[4]) - pooled.percentile(50)) < 5e-5
    assert abs(float(cells[5]) - pooled.percentile(95)) < 5e-5


def test_peer_metrics_survive_restart():
    network = BlockchainNetwork(
        n_peers=4, consensus="poa", block_interval=0.25,
        latency=FixedLatency(0.02), seed=43,
    )
    network.install_contract(KVContract)
    client = network.client()
    for i in range(4):
        client.invoke("kv", "put", {"key": f"k{i}", "value": "v"})
    peer = network.peers[0]
    committed_before = peer_count(peer, "peer.txs_committed_valid")
    blocks_before = peer_count(peer, "peer.blocks_committed")
    assert committed_before > 0

    peer.crashed = True
    network.run_for(1.0)
    peer.restart()
    network.run_for(2.0)

    # Counters live in the network registry, not in wiped volatile state.
    assert peer_count(peer, "peer.restarts") == 1
    assert peer_count(peer, "peer.txs_committed_valid") >= committed_before
    assert peer_count(peer, "peer.blocks_committed") >= blocks_before


def test_commit_times_bounded_by_reservoir():
    """Block-commit times are a histogram: exact count, bounded sample."""
    network = BlockchainNetwork(n_peers=4, consensus="poa", block_interval=0.25, seed=46)
    network.install_contract(KVContract)
    client = network.client()
    for i in range(3):
        client.invoke("kv", "put", {"key": f"k{i}", "value": "v"})
    for peer in network.peers:
        times = network.obs.histogram("peer.commit_time", peer=peer.node_id)
        assert times.count == peer_count(peer, "peer.blocks_committed") > 0
        assert times.values == sorted(times.values)
    for i in range(3000):
        times.observe(float(i))
    assert len(times.values) == 1024 and times.max == 2999.0


def test_audit_counters_in_shared_registry(ran_network):
    from repro.chain import InvariantAuditor

    network = BlockchainNetwork(n_peers=4, consensus="poa", seed=44)
    auditor = InvariantAuditor(network)
    network.install_contract(KVContract)
    client = network.client()
    client.invoke("kv", "put", {"key": "a", "value": "v"})
    network.run_for(1.0)
    assert auditor.summary()["blocks_audited"] == network.obs.total("audit.blocks_audited") > 0


#: Label keys of every counter the end-to-end benchmark reads by name.
_HARNESS_LABELS = {
    name: {"peer", "kind"} if name == "store.degradations"
    else set() if name.startswith("net.") else {"peer"}
    for name in _OBS_COUNTERS
}


def test_counters_the_benchmark_reads_keep_name_kind_and_labels():
    """The end-to-end benchmark reads these names from the registry and
    reports 0 for a name it does not find, so a rename or a kind change
    must fail here rather than zero a benchmark metric."""
    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.25, latency=FixedLatency(0.02),
        seed=45, view_timeout=1.0, storage="durable", snapshot_interval=2,
    )
    network.install_contract(KVContract)
    client = network.client()
    for i in range(6):
        client.invoke("kv", "put", {"key": f"k{i}", "value": "v"})
    # Crash the view-0 primary with a flipped bit in its newest snapshot:
    # a view change while it is down, a degraded recovery, then a catch-up.
    schedule = FailureSchedule(network.sim, network.net)
    now = network.sim.now
    schedule.bitflip_at(now + 0.1, "peer-0", artifact="snapshot")
    schedule.crash_at(now + 0.2, "peer-0")
    schedule.restart_at(now + 6.0, "peer-0")
    network.run_for(0.5)
    for i in range(6, 10):
        client.invoke("kv", "put", {"key": f"k{i}", "value": "v"})
    network.run_for(10.0)

    obs = network.obs
    for name, keys in _HARNESS_LABELS.items():
        assert not obs.histograms(name), name
        series = obs.counters(name)
        assert series, f"{name} is not registered"
        assert all(type(c) is Counter and set(c.labels) == keys for c in series), name
    for name in ("pbft.view_changes", "store.degradations", "sync.blocks_synced"):
        assert obs.total(name) > 0, name
    for name in ("phase.sync_fetch", "phase.commit_latency", "peer.commit_time",
                 "pbft.commit_buffer_wait"):
        assert obs.histograms(name) and not obs.counters(name), name
    network.assert_convergence()
    committed = sum(1 for _ in network.peers[1].ledger.transactions())
    assert committed == 10
    assert obs.total("peer.txs_committed_valid") == committed * len(network.peers)

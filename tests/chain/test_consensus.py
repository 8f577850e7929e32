"""Consensus: PoA ordering, PBFT safety/liveness, byzantine behaviour."""

import pytest

from repro.chain import BlockchainNetwork
from repro.errors import ChainError
from repro.simnet import FixedLatency


def _network(consensus, n_peers=4, **kwargs):
    from tests.conftest import CounterContract

    defaults = dict(block_interval=0.5, latency=FixedLatency(0.02), seed=42)
    defaults.update(kwargs)
    net = BlockchainNetwork(n_peers=n_peers, consensus=consensus, **defaults)
    net.install_contract(CounterContract)
    return net


@pytest.mark.parametrize("consensus", ["poa", "pbft"])
def test_single_tx_commits_everywhere(consensus):
    net = _network(consensus)
    client = net.client()
    receipt = client.invoke("counter", "increment", {"amount": 3})
    assert receipt.success
    net.run_for(5)
    net.assert_convergence()
    heights = net.committed_heights()
    assert all(h == 1 for h in heights.values()), heights
    for peer in net.peers:
        assert peer.state.get("count") == 3


@pytest.mark.parametrize("consensus", ["poa", "pbft"])
def test_many_txs_all_commit(consensus):
    net = _network(consensus)
    client = net.client()
    tx_ids = [client.invoke("counter", "increment", wait=False) for _ in range(20)]
    receipts = [net.wait_for_receipt(tx_id) for tx_id in tx_ids]
    assert all(r.tx_id in {t for t in tx_ids} for r in receipts)
    net.run_for(5)
    net.assert_convergence()
    # One tx wins per hot key, rest are MVCC conflicts — Fabric semantics:
    # every tx is committed (on-chain) but only fresh ones applied.
    total = net.peers[0].ledger.total_transactions()
    assert total == 20


def test_poa_leader_rotates():
    net = _network("poa")
    client = net.client()
    proposers = set()
    for _ in range(4):
        tx_id = client.invoke("counter", "increment", wait=False)
        net.wait_for_receipt(tx_id)
        net.run_for(2)
        proposers.add(net.peers[0].ledger.head.proposer)
    assert len(proposers) >= 2  # rotation across heights


def test_poa_sync_after_partition_heal():
    net = _network("poa")
    client = net.client()
    client.invoke("counter", "increment")
    net.run_for(2)
    net.net.partition({"peer-0", "peer-1", "peer-2"})
    # Submit directly to a majority-side peer (a random entry peer might
    # be the isolated one, whose gossip would never reach the leaders).
    tx = net.endorse_transaction(client, "counter", "increment", {})
    net.peers[0].submit(tx)
    net.wait_for_receipt(tx.tx_id)
    net.run_for(3)
    net.net.heal()
    # peer-3 missed a block; next block triggers catch-up sync.
    tx = net.endorse_transaction(client, "counter", "increment", {})
    net.peers[0].submit(tx)
    net.wait_for_receipt(tx.tx_id)
    net.run_for(10)
    net.assert_convergence()
    heights = net.committed_heights()
    assert heights["peer-3"] == max(heights.values())


def test_pbft_commits_despite_crashed_replica():
    net = _network("pbft")
    net.peers[3].crashed = True  # crash a non-primary replica (f=1)
    client = net.client()
    receipt = client.invoke("counter", "increment", {"amount": 5})
    assert receipt.success
    net.run_for(5)
    live = [p for p in net.peers if not p.crashed]
    assert all(p.ledger.height == 1 for p in live)


def test_pbft_view_change_replaces_crashed_primary():
    net = _network("pbft", view_timeout=2.0)
    net.peers[0].crashed = True  # primary of view 0
    client = net.client()
    tx_id = client.invoke("counter", "increment", wait=False)
    net.run_for(30)
    live = [p for p in net.peers if not p.crashed]
    assert any(
        c.value >= 1 for c in net.obs.counters("pbft.view_changes") if c.labels["peer"] != "peer-0"
    )
    assert all(p.ledger.height >= 1 for p in live), net.committed_heights()
    assert any(tx_id in p.receipts for p in live)


def test_pbft_byzantine_primary_cannot_fork():
    net = _network("pbft", byzantine_peers={"peer-0"}, view_timeout=2.0)
    client = net.client()
    tx_ids = [client.invoke("counter", "increment", wait=False) for _ in range(6)]
    net.run_for(40)
    net.assert_convergence()  # honest peers never fork
    honest = [p for p in net.peers if not p.byzantine]
    assert all(p.ledger.height >= 1 for p in honest)


def test_pbft_requires_four_peers():
    with pytest.raises(ChainError):
        BlockchainNetwork(n_peers=3, consensus="pbft")


def test_convergence_detects_fork():
    net = _network("poa")
    client = net.client()
    client.invoke("counter", "increment")
    net.run_for(3)
    # Manufacture a fork on one peer by rewriting its chain copy.
    from repro.chain.block import Block

    victim = net.peers[2]
    forged = Block.build(1, victim.ledger.block(0).block_hash, 9.9, "evil", [])
    victim.ledger._blocks[1] = forged  # simulate corrupted storage
    with pytest.raises(ChainError):
        net.assert_convergence()

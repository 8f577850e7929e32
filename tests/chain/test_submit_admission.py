"""Transaction admission outcomes and receipt stability.

Two seed bugs are pinned here:

- ``Peer.submit`` / ``BlockchainNetwork.submit`` conflated every
  rejection into one ``False``: a *duplicate* submission (the tx is
  already pending or committed — success, no retry needed) walked the
  try-every-peer fallback and could raise ``ChainError`` for a
  transaction that was happily in flight.  :class:`~repro.chain.peer.
  Admission` now distinguishes the cases, and truthiness still means
  "newly admitted" so seed-era call sites keep their semantics.

- a gossip echo of an already-committed tx could be re-admitted, land
  in a later block, fail MVCC there, and *clobber the original valid
  receipt* with a failure.  Admission now rejects committed ids
  outright, and the commit path never downgrades a valid receipt.
"""

from __future__ import annotations

import pytest

from repro.chain import Admission, BlockchainNetwork, Mempool
from repro.errors import ChainError
from tests.conftest import peer_count


def _network(seed: int = 31, consensus: str = "pbft") -> BlockchainNetwork:
    from tests.conftest import CounterContract

    network = BlockchainNetwork(
        n_peers=4, consensus=consensus, block_interval=0.5, seed=seed,
    )
    network.install_contract(CounterContract)
    return network


def _endorsed_tx(network: BlockchainNetwork):
    client = network.client()
    return network.endorse_transaction(client, "counter", "increment", {"amount": 1})


def test_admission_accepted_means_pending_or_final():
    for outcome in (Admission.ADMITTED, Admission.DUPLICATE, Admission.COMMITTED):
        assert outcome.accepted
    for outcome in (Admission.FULL, Admission.INVALID, Admission.CRASHED):
        assert not outcome.accepted


def test_duplicate_submit_is_not_an_error():
    """Submitting the same pending tx twice must not raise — the second
    submit reports DUPLICATE (accepted) instead of walking every
    peer and blowing up as the seed code did."""
    network = _network()
    tx = _endorsed_tx(network)
    peer = network.peers[1]
    assert peer.submit(tx, gossip=False) is Admission.ADMITTED
    again = peer.submit(tx, gossip=False)
    assert again is Admission.DUPLICATE
    assert again.accepted
    # Network-level: every peer now has it pending (or will); repeated
    # network.submit is a no-op success, never a ChainError.
    outcome = network.submit(tx)
    assert outcome.accepted
    network.stop()


def test_committed_tx_rejected_at_admission():
    """A gossip echo arriving after commit must not re-enter the mempool."""
    network = _network()
    tx = _endorsed_tx(network)
    network.submit(tx)
    receipt = network.wait_for_receipt(tx.tx_id)
    assert receipt.success
    network.run_for(10.0)
    for peer in network.peers:
        outcome = peer.submit(tx, gossip=False)
        assert outcome is Admission.COMMITTED
        assert outcome.accepted
        assert tx.tx_id not in peer.mempool
    # And the duplicate-aware network entry point treats it as success.
    assert network.submit(tx) is Admission.COMMITTED
    network.stop()


def test_receipt_never_downgraded_by_recommitted_duplicate():
    """If a duplicate copy of a committed-valid tx sneaks into a later
    block (here: forced past admission, as a buggy peer could), its MVCC
    failure there must not overwrite the original valid receipt."""
    network = _network()
    tx = _endorsed_tx(network)
    network.submit(tx)
    receipt = network.wait_for_receipt(tx.tx_id)
    assert receipt.success
    network.run_for(10.0)
    original = {p.node_id: p.receipts[tx.tx_id] for p in network.peers}
    assert all(r.success for r in original.values())
    # Bypass the admission guard (the seed bug's effect) on one peer so
    # consensus re-proposes the tx in a later block.
    forced = network.peers[0]
    assert forced.mempool.add(tx)
    forced.engine.on_transaction_admitted()
    network.run_for(15.0)
    network.stop()
    for peer in network.peers:
        final = peer.receipts[tx.tx_id]
        assert final.success, f"{peer.node_id} downgraded a valid receipt"
        assert final.block_height == original[peer.node_id].block_height
    # The duplicate's re-execution was still counted as an invalid commit
    # somewhere (it did land in a block and fail MVCC) — the point is the
    # receipt, not the block contents.
    assert sum(peer_count(p, "peer.txs_committed_invalid") for p in network.peers) >= 1


def test_crashed_peer_reports_crashed_and_network_fails_over():
    network = _network()
    tx = _endorsed_tx(network)
    victim = network.peers[2]
    victim.crashed = True
    assert victim.submit(tx, gossip=False) is Admission.CRASHED
    assert tx.tx_id not in victim.mempool
    # The network entry point fails over to a live peer.
    outcome = network.submit(tx)
    assert outcome is Admission.ADMITTED
    network.stop()


def test_full_mempool_reports_full_and_only_total_rejection_raises():
    network = _network()
    tx = _endorsed_tx(network)
    for peer in network.peers:
        peer.mempool = Mempool(capacity=0)
    assert network.peers[0].submit(tx, gossip=False) is Admission.FULL
    with pytest.raises(ChainError) as excinfo:
        network.submit(tx)
    # The error names each peer's actual rejection reason.
    assert "full" in str(excinfo.value)
    network.stop()


@pytest.mark.parametrize("junk", ["str", "list", "member"])
def test_a_unit_with_malformed_endorsements_is_refused_before_gossip(junk):
    """A client could crash every proposer: a unit whose ``endorsements``
    held a non-``Endorsement`` was admitted and gossiped, and hashing it
    into a block (``Transaction.merkle_leaf``) raised ``AttributeError``
    inside ``run_for``.  Every peer now refuses it as ``INVALID``, nothing
    is gossiped, and the honest copy still commits."""
    import dataclasses

    network = _network()
    client = network.client()
    txs = network.endorse_group([(client, "counter", "increment", {"amount": 1})] * 2)
    if junk == "str":
        forged = [dataclasses.replace(txs[0], endorsements=(*txs[0].endorsements, "junk")), txs[1]]
    elif junk == "list":
        forged = [dataclasses.replace(txs[0], endorsements=list(txs[0].endorsements)), txs[1]]
    else:
        forged = [txs[0], dataclasses.replace(txs[1], endorsements=(None,))]
    for peer in network.peers:
        assert peer.submit(*forged) is Admission.INVALID
    with pytest.raises(ChainError, match="no peer admitted"):
        network.submit(*forged)
    network.run_for(2.0)
    assert all(len(peer.mempool) == 0 for peer in network.peers)
    assert network.submit(*txs) is Admission.ADMITTED
    assert all(network.wait_for_receipt(tx.tx_id).success for tx in txs)
    network.stop()

"""One commit path: every way a block becomes state gives the same answer.

A fixed sequence of endorsed blocks — holding an MVCC loser, a duplicate
of an already-valid tx in a later block, a tx with a bad endorsement and
a tx with a bad client signature — is pushed through

(a) ``Peer.commit_block``,
(b) ``LocalChain._commit``,
(c) ``DurableStore`` / ``SQLiteStore`` recovery of (a)'s disk
    (snapshot+tail and full replay),
(d) a ``MemoryStore`` restart (replay of the in-memory chain),

and all of them must report identical validity vectors, receipts per tx
id, state digest, and an index that matches a ledger scan.  All four go
through :mod:`repro.chain.commit`; this test is what notices if one of
them ever grows its own rules again.

Also pinned here: a block that fails the ledger's linkage check must
leave the peer exactly as it was.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chain import BlockchainNetwork, LocalChain
from repro.chain.block import Block
from repro.errors import InvalidBlockError
from tests.conftest import CounterContract

_ZERO_SIG = "00" * 64


def _network(storage: str = "memory", snapshot_interval: int = 64) -> BlockchainNetwork:
    """One PoA peer that is never run: blocks are committed by hand."""
    network = BlockchainNetwork(
        n_peers=1, consensus="poa", seed=5, storage=storage,
        snapshot_interval=snapshot_interval,
    )
    network.install_contract(CounterContract)
    return network


def _next_block(peer, txs) -> Block:
    return Block.build(
        peer.ledger.height + 1, peer.ledger.head.block_hash, 0.0, peer.node_id, txs
    )


@pytest.fixture(scope="module")
def sequence():
    """``(blocks, expected validity vectors, tx ids by role)``; built by
    committing on a scratch peer so later txs are endorsed against the
    state earlier blocks left behind."""
    network = _network()
    peer, client = network.peers[0], network.client()

    def endorsed():
        return network.endorse_transaction(client, "counter", "increment", {"amount": 1})

    winner, loser = endorsed(), endorsed()  # both read count at the same version
    blocks = [_next_block(peer, [winner, loser])]
    peer.commit_block(blocks[-1])

    fresh, to_forge, to_unsign = endorsed(), endorsed(), endorsed()
    forged = dataclasses.replace(
        to_forge,
        endorsements=tuple(
            dataclasses.replace(e, signature_hex=_ZERO_SIG) for e in to_forge.endorsements
        ),
    )
    unsigned = dataclasses.replace(to_unsign, signature_hex=_ZERO_SIG)
    blocks.append(_next_block(peer, [fresh, forged, unsigned]))
    peer.commit_block(blocks[-1])

    last = endorsed()
    blocks.append(_next_block(peer, [winner, last]))  # winner again: a duplicate
    peer.commit_block(blocks[-1])

    expected = [[True, False], [True, False, False], [False, True]]
    roles = {"winner": winner.tx_id, "loser": loser.tx_id, "forged": forged.tx_id,
             "unsigned": unsigned.tx_id, "last": last.tx_id}
    return blocks, expected, roles


def _observe(ledger, state, receipts, index, errors=True):
    """Everything the paths must agree on."""
    return {
        "validity": [ledger.block_validity(h) for h in range(1, ledger.height + 1)],
        "receipts": {
            tx_id: (r.success, r.block_height, r.return_value, r.events)
            + ((r.error,) if errors else ())
            for tx_id, r in sorted(receipts.items())
        },
        "digest": state.state_digest(),
        "replayed_digest": ledger.replay_state().state_digest(),
        "index_problems": index.verify_against(ledger),
    }


def _observe_peer(peer, errors=True):
    return _observe(peer.ledger, peer.state, peer.receipts, peer.index, errors)


def _without_errors(observed):
    return {**observed, "receipts": {k: v[:4] for k, v in observed["receipts"].items()}}


@pytest.fixture(scope="module")
def reference(sequence):
    """Path (a) on an in-memory peer — what every other path must equal."""
    blocks, expected, roles = sequence
    peer = _network().peers[0]
    for block in blocks:
        peer.commit_block(block)
    observed = _observe_peer(peer)
    assert observed["validity"] == expected
    assert observed["index_problems"] == []
    assert observed["replayed_digest"] == observed["digest"]
    by_role = {role: observed["receipts"][tx_id] for role, tx_id in roles.items()}
    # The duplicate's failure in block 3 did not downgrade the receipt.
    assert by_role["winner"][:3] == (True, 1, 1)
    assert by_role["loser"][4] == "MVCC conflict: stale read set"
    assert "bad endorsement signature" in by_role["forged"][4]
    assert "bad signature" in by_role["unsigned"][4]
    assert by_role["last"][:3] == (True, 3, 3)
    assert (peer.metrics.mvcc_conflicts, peer.metrics.endorsement_failures,
            peer.metrics.signature_failures) == (2, 1, 1)
    assert (peer.metrics.txs_committed_valid, peer.metrics.txs_committed_invalid) == (3, 4)
    return observed


def test_local_chain_commits_like_a_peer(sequence, reference):
    blocks, _, _ = sequence
    chain = LocalChain()
    built = [chain._commit(list(block.transactions)) for block in blocks]
    assert _observe(chain.ledger, chain.state, chain.receipts, chain.index) == reference
    # _commit hands back the receipts of *this* block: the duplicate's is a failure.
    assert [[r.success for r in receipts] for receipts in built] == reference["validity"]


@pytest.mark.parametrize("storage", ["durable", "sqlite"])
@pytest.mark.parametrize("snapshot_interval,mode", [(2, "snapshot+tail"), (64, "full-replay")])
def test_store_recovery_replays_like_the_live_commit(
    sequence, reference, storage, snapshot_interval, mode
):
    blocks, _, _ = sequence
    peer = _network(storage, snapshot_interval).peers[0]
    for block in blocks:
        peer.commit_block(block)
    assert _observe_peer(peer) == reference
    peer.restart()
    assert peer.store.last_recovery.mode == mode
    assert peer.store.last_recovery.degradations == []
    assert _observe_peer(peer) == reference


def test_memory_restart_replays_like_the_live_commit(sequence, reference):
    blocks, _, _ = sequence
    peer = _network().peers[0]
    for block in blocks:
        peer.commit_block(block)
    peer.restart()
    # A bare ledger records verdicts, not reasons: error strings are generic.
    assert _observe_peer(peer, errors=False) == _without_errors(reference)
    assert {r.error for r in peer.receipts.values() if not r.success} == {
        "invalid (rebuilt from ledger)"
    }


def test_rejected_block_leaves_the_peer_untouched(sequence):
    """``Ledger.append``'s checks run before the first mutation."""
    blocks, _, _ = sequence
    network = _network()
    peer = network.peers[0]
    peer.commit_block(blocks[0])

    def fingerprint():
        counters = ("txs_committed_valid", "txs_committed_invalid", "mvcc_conflicts",
                    "blocks_committed", "commit_latency_count")
        return (
            peer.state.state_digest(), dict(peer.receipts), peer.ledger.height,
            peer.index.height, len(peer.index),
            {name: getattr(peer.metrics, name) for name in counters},
        )

    before = fingerprint()
    tx = network.endorse_transaction(network.client(), "counter", "increment", {"amount": 1})
    for bad in (
        Block.build(2, "ab" * 32, 0.0, peer.node_id, [tx]),                    # wrong prev_hash
        Block.build(3, peer.ledger.head.block_hash, 0.0, peer.node_id, [tx]),  # height gap
        dataclasses.replace(_next_block(peer, [tx]), timestamp=9.0),           # header tampered
    ):
        with pytest.raises(InvalidBlockError):
            peer.commit_block(bad)
        assert fingerprint() == before
    peer.commit_block(_next_block(peer, [tx]))
    assert peer.receipts[tx.tx_id].success and peer.ledger.height == 2

"""What a peer commits is what was endorsed, and a block hash names one body.

An endorser signs a digest of the whole execution — reads, writes,
events and return value — so an output edited after endorsement fails
the endorsement check on every peer.  A block's Merkle leaf is the
transaction's whole body (proposal, client signature, that digest and
the endorsements), so two bodies cannot share one block hash: a body
swapped under an honest header fails ``verify_structure`` and cannot be
committed.
"""

import random
from dataclasses import replace

import pytest

from repro.chain import BlockchainNetwork
from repro.chain.block import Block
from repro.chain.commit import commit_block
from repro.chain.contracts.endorsement import EndorsementPolicy
from repro.chain.ledger import Ledger
from repro.chain.state import WorldState
from repro.chain.transaction import Endorsement, Transaction, endorsed_digest
from repro.crypto import KeyPair
from repro.errors import ChainError, InvalidBlockError
from repro.simnet import UniformLatency
from tests.conftest import CounterContract

CLIENT, ENDORSER = (KeyPair.generate(random.Random(seed)) for seed in (11, 12))
POLICY = EndorsementPolicy(required=1)


def _endorsed() -> Transaction:
    """``counter.increment(amount=1)`` on an empty counter, endorsed."""
    tx = Transaction.create(CLIENT, "counter", "increment", {"amount": 1}, nonce=1)
    read_set, write_set = {"count": -1}, {"count": 1}
    events = ({"kind": "incremented", "amount": 1, "new": 1},)
    digest = endorsed_digest(read_set, write_set, events, 1)
    endorsement = Endorsement.create(ENDORSER, "peer-0", tx.tx_id, digest)
    return tx.with_execution(read_set, write_set, events, 1, (endorsement,), digest=digest)


def _forged_event(tx: Transaction) -> Transaction:
    return replace(tx, events=tuple({**e, "amount": 1000, "new": 1000} for e in tx.events))


def _commit(block: Block) -> tuple[Ledger, WorldState, list]:
    ledger, state = Ledger(), WorldState()
    result = commit_block(block, lambda contract: POLICY, ledger=ledger, state=state,
                          directory={"peer-0": ENDORSER.public_key})
    return ledger, state, [(verdict.valid, verdict.failed_check) for verdict in result.verdicts]


@pytest.mark.parametrize("edit", ["events", "return_value", "write_set"])
def test_an_output_edited_after_endorsement_fails_the_endorsement(edit):
    tx = _endorsed()
    edited = {
        "events": _forged_event(tx),
        "return_value": replace(tx, return_value=1000),
        "write_set": replace(tx, write_set={"count": 1000}),
    }[edit]
    head = Ledger().head.block_hash
    assert _commit(Block.build(1, head, 1.0, "peer-0", [tx]))[2] == [(True, None)]
    assert _commit(Block.build(1, head, 1.0, "peer-0", [edited]))[2] == [(False, "endorsement")]


def test_a_forged_event_is_committed_valid_on_no_peer():
    """The probe: endorse ``increment(amount=1)``, rewrite its event to
    ``amount=1000``, submit.  No peer may commit it as valid, and no
    ledger may yield the forged event."""
    network = BlockchainNetwork(n_peers=4, consensus="pbft", block_interval=0.5,
                                latency=UniformLatency(0.01, 0.05), seed=42, view_timeout=4.0)
    network.install_contract(CounterContract)
    client = network.client()
    tx = network.endorse_transaction(client, "counter", "increment", {"amount": 1})
    try:
        network.submit(_forged_event(tx))
    except ChainError:
        pass  # refused at admission: not committed anywhere either
    network.run_for(10.0)
    network.stop()
    for peer in network.peers:
        receipt = peer.ledger.receipt(tx.tx_id)
        assert receipt is None or not receipt.success
        assert [e["amount"] for e in peer.ledger.events("counter", "incremented")] == []
        assert peer.state.get("count") is None


def test_two_bodies_cannot_share_one_block_hash():
    """The probe: the same transaction with its write set changed.  Built
    as blocks, the two bodies hash differently; swapped under the honest
    header, the second body is refused by ``verify_structure`` and by
    ``commit_block``, which change nothing."""
    tx = _endorsed()
    other = replace(tx, write_set={"count": 1000})
    head = Ledger().head.block_hash
    honest = Block.build(1, head, 1.0, "peer-0", [tx])
    assert Block.build(1, head, 1.0, "peer-0", [other]).block_hash != honest.block_hash
    swapped = replace(honest, transactions=(other,))
    assert swapped.block_hash == honest.block_hash
    with pytest.raises(InvalidBlockError, match="Merkle root"):
        swapped.verify_structure()
    ledger, state, verdicts = _commit(honest)
    assert verdicts == [(True, None)] and state.get("count") == 1
    ledger, state = Ledger(), WorldState()
    with pytest.raises(InvalidBlockError):
        commit_block(swapped, lambda contract: POLICY, ledger=ledger, state=state,
                     directory={"peer-0": ENDORSER.public_key})
    assert ledger.height == 0 and state.state_digest() == WorldState().state_digest()


def test_the_merkle_leaf_covers_the_whole_body():
    tx = _endorsed()
    other_key = KeyPair.generate(random.Random(13))
    copies = [
        replace(tx, events=()),
        replace(tx, return_value=None),
        replace(tx, read_set={}),
        replace(tx, signature_hex="00" * 64),
        replace(tx, endorsements=()),
        replace(tx, endorsements=(Endorsement.create(
            other_key, "peer-1", tx.tx_id, tx.endorsed_digest),)),
        replace(tx, args={"amount": 2}),
    ]
    leaves = {tx.merkle_leaf, *(copy.merkle_leaf for copy in copies)}
    assert len(leaves) == len(copies) + 1
    block = Block.build(1, Ledger().head.block_hash, 1.0, "peer-0", [tx])
    proof = block.prove_inclusion(tx.tx_id)
    assert proof.leaf == tx.merkle_leaf and proof.verify(block.merkle_root)

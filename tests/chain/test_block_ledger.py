"""Block building/validation and ledger append/query/audit."""

import dataclasses
import random

import pytest

from repro.chain.block import GENESIS_PREV_HASH, Block, make_genesis_block
from repro.chain.index import ChainIndex
from repro.chain.ledger import Ledger
from repro.chain.transaction import Transaction
from repro.crypto import KeyPair
from repro.errors import InvalidBlockError


def _tx(keypair, nonce, contract="counter", method="increment"):
    return Transaction.create(keypair, contract, method, {"n": nonce}, nonce=nonce)


@pytest.fixture
def keypair():
    return KeyPair.generate(random.Random(0))


@pytest.fixture
def chain(keypair):
    ledger = Ledger()
    txs = [_tx(keypair, i) for i in range(3)]
    block = Block.build(1, ledger.head.block_hash, 1.0, "peer-0", txs)
    ledger.append(block, [True, True, False])
    return ledger, txs


def test_genesis_shape():
    genesis = make_genesis_block()
    assert genesis.height == 0
    assert genesis.prev_hash == GENESIS_PREV_HASH
    assert len(genesis) == 0
    genesis.verify_structure()


def test_block_hash_covers_header(keypair):
    block = Block.build(1, "aa" * 32, 1.0, "p", [_tx(keypair, 1)])
    tampered = dataclasses.replace(block, timestamp=2.0)
    with pytest.raises(InvalidBlockError):
        tampered.verify_structure()


def test_block_merkle_covers_transactions(keypair):
    block = Block.build(1, "aa" * 32, 1.0, "p", [_tx(keypair, 1)])
    swapped = dataclasses.replace(block, transactions=(_tx(keypair, 2),))
    with pytest.raises(InvalidBlockError):
        swapped.verify_structure()


def test_block_inclusion_proof(keypair):
    txs = [_tx(keypair, i) for i in range(5)]
    block = Block.build(1, "aa" * 32, 1.0, "p", txs)
    proof = block.prove_inclusion(txs[2].tx_id)
    assert proof.verify(block.merkle_root)
    with pytest.raises(InvalidBlockError):
        block.prove_inclusion("ff" * 32)


def test_ledger_append_and_lookup(chain):
    ledger, txs = chain
    assert ledger.height == 1
    committed = ledger.get_transaction(txs[0].tx_id)
    assert committed is not None and committed.valid
    assert ledger.get_transaction(txs[2].tx_id).valid is False
    assert ledger.get_transaction("nope") is None
    assert txs[1].tx_id in ledger


def test_ledger_rejects_wrong_height(chain, keypair):
    ledger, _ = chain
    block = Block.build(5, ledger.head.block_hash, 2.0, "p", [])
    with pytest.raises(InvalidBlockError):
        ledger.append(block, [])


def test_ledger_rejects_wrong_prev_hash(chain):
    ledger, _ = chain
    block = Block.build(2, "bb" * 32, 2.0, "p", [])
    with pytest.raises(InvalidBlockError):
        ledger.append(block, [])


def test_ledger_rejects_validity_length_mismatch(chain, keypair):
    ledger, _ = chain
    block = Block.build(2, ledger.head.block_hash, 2.0, "p", [_tx(keypair, 10)])
    with pytest.raises(InvalidBlockError):
        ledger.append(block, [True, True])


def test_transactions_iteration_valid_only(chain):
    ledger, txs = chain
    valid_ids = [c.transaction.tx_id for c in ledger.transactions()]
    all_ids = [c.transaction.tx_id for c in ledger.transactions(valid_only=False)]
    assert len(valid_ids) == 2 and len(all_ids) == 3


def test_query_by_sender_and_contract(chain, keypair):
    """By-sender / by-contract views live in ChainIndex; a fresh index fed
    block by block and the ledger's own index agree with a filter over the
    ledger's scan."""
    ledger, txs = chain
    fresh = ChainIndex()
    for height in range(1, ledger.height + 1):
        fresh.on_commit(ledger.block(height), ledger.block_validity(height))
    scan = [c.transaction for c in ledger.transactions(valid_only=False)]
    for index in (fresh, ledger.index):
        def ids(**filters):
            return [row.tx_id for row in reversed(index.find_transactions(**filters))]

        assert ids(sender=keypair.address) == [
            tx.tx_id for tx in scan if tx.sender == keypair.address
        ]
        assert ids(contract="counter") == [tx.tx_id for tx in scan if tx.contract == "counter"]
        assert len(ids(contract="counter")) == 3
        assert ids(contract="other") == []


def test_verify_chain_passes(chain):
    ledger, _ = chain
    assert ledger.verify_chain()


def test_total_transactions(chain):
    ledger, _ = chain
    assert ledger.total_transactions() == 3


def test_append_is_atomic_under_hostile_transaction(chain, keypair):
    """An exception raised while indexing must leave the ledger untouched.

    The seed appended the block *before* building the indexes, so a
    transaction object whose attributes raise mid-indexing left the
    block committed but (partly) invisible to lookups by id — a torn
    index.  The ledger's index reads every transaction before it changes.
    The Merkle tree is built (and cached) at ``Block.build``, so a hostile
    object can legitimately get as far as the ledger's own reads.
    """

    class _HostileTx:
        armed = False

        def __init__(self, tx):
            self._tx = tx

        def __getattr__(self, item):
            if item == "tx_id" and self.armed:
                raise RuntimeError("hostile attribute access")
            return getattr(self._tx, item)

    ledger, _ = chain
    good, bad = _tx(keypair, 20), _tx(keypair, 21)
    block = Block.build(2, ledger.head.block_hash, 2.0, "p", [good, _HostileTx(bad)])
    _HostileTx.armed = True
    before_height = ledger.height
    before_index = ledger.index.dump()
    with pytest.raises(RuntimeError, match="hostile"):
        ledger.append(block, [True, True])
    assert ledger.height == before_height
    assert ledger.index.dump() == before_index
    assert ledger.index.height == before_height
    assert ledger.get_transaction(good.tx_id) is None
    assert ledger.total_transactions() == 3  # fixture only
    # The ledger still accepts the block once the transactions behave.
    clean = Block.build(2, ledger.head.block_hash, 2.0, "p", [good, bad])
    ledger.append(clean, [True, True])
    assert ledger.get_transaction(good.tx_id).valid

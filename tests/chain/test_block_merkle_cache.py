"""Regression tests: Block caches its MerkleTree.

Pre-fix, ``verify_structure`` and every ``prove_inclusion`` call rebuilt
the full Merkle tree — O(n) hashing per proof, O(p·n) for an explorer
serving p proofs.  A block is a frozen dataclass over frozen
transactions, so one tree can serve every verification and proof.  The
counting monkeypatch below fails on pre-fix code (it counted one
construction per call, not one per block).
"""

import random

import pytest

import repro.chain.block as block_module
from repro.chain.block import Block
from repro.chain.transaction import Transaction
from repro.crypto import KeyPair
from repro.crypto.merkle import MerkleTree


@pytest.fixture
def txs():
    keypair = KeyPair.generate(random.Random(5))
    return [
        Transaction.create(keypair, "counter", "increment", {"n": i}, nonce=i)
        for i in range(8)
    ]


@pytest.fixture
def counting_tree(monkeypatch):
    built = []

    class CountingTree(MerkleTree):
        def __init__(self, leaves):
            built.append(1)
            super().__init__(leaves)

    monkeypatch.setattr(block_module, "MerkleTree", CountingTree)
    return built


def test_build_constructs_exactly_one_tree(txs, counting_tree):
    block = Block.build(1, "aa" * 32, 1.0, "p0", txs)
    assert sum(counting_tree) == 1
    # Structure check and every proof reuse the cached tree.
    block.verify_structure()
    for tx in txs:
        block.prove_inclusion(tx.tx_id)
    assert sum(counting_tree) == 1


def test_deserialized_block_builds_tree_lazily_once(txs, counting_tree):
    built_block = Block.build(1, "aa" * 32, 1.0, "p0", txs)
    # A block arriving off the wire is constructed directly (no build()),
    # so it has no seeded cache; the first use builds the tree, later
    # uses reuse it.
    wire = Block(
        height=built_block.height, prev_hash=built_block.prev_hash,
        merkle_root=built_block.merkle_root, timestamp=built_block.timestamp,
        proposer=built_block.proposer, transactions=built_block.transactions,
        block_hash=built_block.block_hash,
    )
    before = sum(counting_tree)
    wire.verify_structure()
    assert sum(counting_tree) == before + 1
    wire.verify_structure()
    wire.prove_inclusion(txs[0].tx_id)
    assert sum(counting_tree) == before + 1


def test_cached_proofs_still_verify(txs):
    block = Block.build(3, "bb" * 32, 2.0, "p1", txs)
    for index, tx in enumerate(txs):
        proof = block.prove_inclusion(tx.tx_id)
        assert proof.verify(block.merkle_root)
        assert proof.index == index
        assert proof.leaf == tx.merkle_leaf

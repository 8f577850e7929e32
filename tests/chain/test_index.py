"""Tests for :mod:`repro.chain.index` and the explorer's two query paths.

Three layers:

1. ``ChainIndex`` unit behaviour — incremental feed contract (contiguous
   heights, validity-vector length), lookups, views, ``reindex`` and the
   ``verify_against`` drift detector.
2. Explorer regressions — the scan fallback does *bounded* work now
   (``find_transactions`` stops reading blocks at ``limit``;
   ``chain_summary`` walks the chain once, not twice), proven with a
   block-read-counting ledger, plus genesis-only coverage for every
   explorer function.
3. Scan-vs-index equivalence — hand-picked filter combinations and a
   hypothesis property over randomized chains assert the two paths are
   answer-identical, which is what lets the index serve reads while the
   scan stays the oracle.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import Block
from repro.chain.explorer import (
    chain_summary,
    describe_block,
    describe_transaction,
    find_transactions,
)
from repro.chain.index import ChainIndex, Interner
from repro.chain.ledger import Ledger
from repro.chain.transaction import Transaction
from repro.crypto import KeyPair
from repro.errors import InvalidBlockError


@pytest.fixture(scope="module")
def keypairs():
    rng = random.Random(42)
    return [KeyPair.generate(rng) for _ in range(3)]


_CONTRACTS = (("articles", "publish"), ("articles", "endorse"), ("votes", "cast"))


def _tx(keypair, nonce, contract, method):
    tx = Transaction.create(keypair, contract, method, {"n": nonce}, nonce=nonce)
    return tx.with_execution(
        read_set={}, write_set={f"{contract}/{nonce % 5}": nonce},
        events=({"kind": f"{method}d", "n": nonce},), return_value=nonce,
        endorsements=(),
    )


def _build(keypairs, n_blocks, txs_per_block=3, seed=0):
    """A chain mixing senders, contracts, methods and invalid txs."""
    rng = random.Random(seed)
    ledger = Ledger()
    nonce = 0
    for height in range(1, n_blocks + 1):
        txs = []
        for _ in range(txs_per_block):
            contract, method = rng.choice(_CONTRACTS)
            txs.append(_tx(rng.choice(keypairs), nonce, contract, method))
            nonce += 1
        block = Block.build(height, ledger.head.block_hash, float(height), "peer-0", txs)
        validity = [rng.random() > 0.2 for _ in txs]
        ledger.append(block, validity)
    return ledger


def _indexed(ledger):
    index = ChainIndex()
    index.reindex(ledger)
    return index


class CountingLedger(Ledger):
    """Ledger that counts per-height lookups — the unit of scan work (one
    per block a scan visits; two would be a block + verdict double read)."""

    def __init__(self):
        super().__init__()
        self.block_reads = 0

    def _entry(self, height):
        self.block_reads += 1
        return super()._entry(height)


# -- Interner / feed contract ------------------------------------------------


def test_interner_round_trip():
    interner = Interner()
    assert interner.intern("a") == 0
    assert interner.intern("b") == 1
    assert interner.intern("a") == 0  # stable on re-intern
    assert interner.value(1) == "b"
    assert interner.lookup("b") == 1
    assert interner.lookup("missing") is None
    assert len(interner) == 2


def test_on_commit_requires_contiguous_heights(keypairs):
    ledger = _build(keypairs, 3)
    index = ChainIndex()
    with pytest.raises(InvalidBlockError, match="cannot apply block 2"):
        index.on_commit(ledger.block(2), ledger.block_validity(2))
    index.on_commit(ledger.block(1), ledger.block_validity(1))
    with pytest.raises(InvalidBlockError, match="cannot apply block 1"):
        index.on_commit(ledger.block(1), ledger.block_validity(1))


def test_on_commit_rejects_validity_length_mismatch(keypairs):
    ledger = _build(keypairs, 1)
    index = ChainIndex()
    with pytest.raises(InvalidBlockError, match="validity vector"):
        index.on_commit(ledger.block(1), [True])


def test_incremental_feed_equals_full_reindex(keypairs):
    ledger = _build(keypairs, 12)
    incremental = ChainIndex()
    for height in range(1, ledger.height + 1):
        incremental.on_commit(ledger.block(height), ledger.block_validity(height))
    rebuilt = _indexed(ledger)
    assert incremental.stats() == rebuilt.stats()
    assert incremental.contract_counts() == rebuilt.contract_counts()
    assert incremental.verify_against(ledger) == []
    assert rebuilt.verify_against(ledger) == []


def test_lookups_match_ledger(keypairs):
    ledger = _build(keypairs, 8)
    index = _indexed(ledger)
    for committed in ledger.transactions(valid_only=False):
        tx = committed.transaction
        assert tx.tx_id in index
        row = index.get(tx.tx_id)
        assert (row.block_height, row.tx_index) == (committed.block_height, committed.tx_index)
        assert (row.sender, row.contract, row.method, row.valid) == (
            tx.sender, tx.contract, tx.method, committed.valid
        )
    assert index.get("nope") is None
    assert "nope" not in index


def test_verify_against_detects_drift(keypairs):
    ledger = _build(keypairs, 5)
    index = _indexed(ledger)
    assert index.verify_against(ledger) == []
    # Simulate a lost commit: the index stops one block short.
    stale = ChainIndex()
    for height in range(1, ledger.height):
        stale.on_commit(ledger.block(height), ledger.block_validity(height))
    problems = stale.verify_against(ledger)
    assert problems
    assert any("height" in p for p in problems)


# -- by-sender / by-contract views vs. the ledger scan -------------------------


def test_ledger_by_sender_and_by_contract_are_chain_ordered(keypairs):
    """The index's views are the only by-sender/by-contract views; the
    oracle is a filter over the ledger's chain-order scan."""
    ledger = _build(keypairs, 10)
    index = _indexed(ledger)
    scan = list(ledger.transactions(valid_only=False))
    positions = [(c.block_height, c.tx_index) for c in scan]
    assert positions == sorted(positions)
    assert not hasattr(ledger, "transactions_by_sender")
    assert not hasattr(ledger, "transactions_by_contract")
    for keypair in keypairs:
        assert index.transactions_by_sender(keypair.address) == [
            c.transaction.tx_id for c in scan if c.transaction.sender == keypair.address
        ]
    for contract in ("articles", "votes"):
        assert index.transactions_by_contract(contract) == [
            c.transaction.tx_id for c in scan if c.transaction.contract == contract
        ]
    assert index.transactions_by_sender("acct:unknown") == []
    assert index.transactions_by_contract("unknown") == []


def test_verify_against_compares_rows_not_ids(keypairs):
    """A tx id committed twice (valid, then a failed duplicate) is two
    rows with two verdicts in both the ledger and the index."""
    ledger = Ledger()
    tx = _tx(keypairs[0], 0, "articles", "publish")
    for height, verdict in ((1, True), (2, False)):
        ledger.append(
            Block.build(height, ledger.head.block_hash, float(height), "peer-0", [tx]),
            [verdict],
        )
    assert [c.valid for c in ledger.transactions(valid_only=False)] == [True, False]
    assert ledger.block_validity(1) == [True] and ledger.block_validity(2) == [False]
    assert len(list(ledger.events())) == 1
    assert ledger.replay_state().get("articles/0") == 0
    index = _indexed(ledger)
    assert index.verify_against(ledger) == []
    assert index.valid_transactions == 1 and len(index) == 2


# -- explorer scan-path regressions -----------------------------------------


def _grow(counting, keypairs, n_blocks, txs_per_block=2):
    source = _build(keypairs, n_blocks, txs_per_block=txs_per_block)
    for height in range(1, source.height + 1):
        counting.append(source.block(height), source.block_validity(height))
    counting.block_reads = 0
    return counting


def test_find_transactions_scan_reads_only_the_blocks_it_needs(keypairs):
    """Regression: the seed materialized ``list(ledger.transactions())``
    (every block) before applying ``limit``.  The newest-first walk must
    touch only the blocks that produce the requested rows."""
    ledger = _grow(CountingLedger(), keypairs, 60, txs_per_block=2)
    rows = find_transactions(ledger, limit=4)
    assert len(rows) == 4
    assert [r["block_height"] for r in rows] == [60, 60, 59, 59]
    assert ledger.block_reads == 2  # blocks 60 and 59, nothing else


def test_find_transactions_scan_is_newest_first_with_limit(keypairs):
    ledger = _build(keypairs, 20)
    rows = find_transactions(ledger, limit=7)
    heights = [(r["block_height"],) for r in rows]
    assert heights == sorted(heights, reverse=True)
    assert len(rows) == 7
    assert find_transactions(ledger, limit=0) == []
    assert find_transactions(ledger, limit=-3) == []


def test_chain_summary_scan_is_single_pass(keypairs):
    """Regression: the seed walked the chain once for the valid count and
    a second time for the per-contract histogram."""
    ledger = _grow(CountingLedger(), keypairs, 30, txs_per_block=2)
    summary = chain_summary(ledger)
    assert ledger.block_reads == len(ledger)  # one lookup per block 0..30, one pass
    assert summary["transactions"] == 60
    assert summary["valid_transactions"] + summary["invalid_transactions"] == 60
    assert sum(summary["transactions_by_contract"].values()) == 60


def test_chain_summary_scan_equals_independent_recount(keypairs):
    ledger = _build(keypairs, 15)
    summary = chain_summary(ledger)
    committed = list(ledger.transactions(valid_only=False))
    contracts = {}
    for c in committed:
        name = c.transaction.contract
        contracts[name] = contracts.get(name, 0) + 1
    assert summary["height"] == ledger.height
    assert summary["head_hash"] == ledger.head.block_hash
    assert summary["blocks"] == len(ledger)
    assert summary["transactions"] == len(committed)
    assert summary["valid_transactions"] == sum(1 for c in committed if c.valid)
    assert summary["transactions_by_contract"] == dict(sorted(contracts.items()))
    assert list(summary["transactions_by_contract"]) == sorted(contracts)


def test_explorer_on_genesis_only_chain():
    ledger = Ledger()
    index = _indexed(ledger)
    for idx in (None, index):
        summary = chain_summary(ledger, index=idx)
        assert summary["height"] == 0
        assert summary["blocks"] == 1
        assert summary["transactions"] == 0
        assert summary["valid_transactions"] == 0
        assert summary["transactions_by_contract"] == {}
        assert find_transactions(ledger, index=idx) == []
    assert describe_transaction(ledger, "missing") is None
    genesis = describe_block(ledger.block(0))
    assert genesis["height"] == 0
    assert genesis["tx_count"] == 0
    assert index.verify_against(ledger) == []


# -- scan-vs-index equivalence ----------------------------------------------


def test_index_and_scan_answer_identically(keypairs):
    ledger = _build(keypairs, 25)
    index = _indexed(ledger)
    assert chain_summary(ledger, index=index) == chain_summary(ledger)
    combos = [
        {},
        {"limit": 5},
        {"contract": "articles"},
        {"contract": "votes", "method": "cast"},
        {"method": "publish"},  # method without contract: suffix match
        {"sender": keypairs[0].address},
        {"sender": keypairs[1].address, "contract": "articles", "limit": 3},
        {"sender": keypairs[2].address, "contract": "articles", "method": "endorse"},
        {"contract": "absent"},
        {"method": "absent"},
        {"sender": "acct:absent"},
        {"limit": 0},
    ]
    for kwargs in combos:
        assert find_transactions(ledger, index=index, **kwargs) == find_transactions(
            ledger, **kwargs
        ), kwargs


def test_index_events_match_ledger_events(keypairs):
    ledger = _build(keypairs, 12)
    index = _indexed(ledger)
    for kwargs in (
        {},
        {"kind": "publishd"},
        {"contract": "articles"},
        {"contract": "articles", "kind": "endorsed"},
        {"kind": "absent"},
    ):
        assert list(index.events(ledger, **kwargs)) == list(
            ledger.events(**kwargs)
        ), kwargs


def test_stale_index_is_bypassed(keypairs):
    """An index behind the ledger must not serve wrong answers — the
    explorer falls back to the scan until the index catches up."""
    ledger = _build(keypairs, 6)
    index = ChainIndex()
    for height in range(1, 5):
        index.on_commit(ledger.block(height), ledger.block_validity(height))
    assert index.height == 4 != ledger.height
    assert chain_summary(ledger, index=index) == chain_summary(ledger)
    assert find_transactions(ledger, index=index, limit=3) == find_transactions(
        ledger, limit=3
    )


@given(
    n_blocks=st.integers(min_value=0, max_value=12),
    txs_per_block=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
    limit=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=25, deadline=None)
def test_scan_vs_index_equivalence_property(n_blocks, txs_per_block, seed, limit):
    """On a randomized chain, every filter combination answers identically
    through the index and through the ledger scan."""
    rng = random.Random(seed)
    keypairs = [KeyPair.generate(rng) for _ in range(2)]
    ledger = _build(keypairs, n_blocks, txs_per_block=txs_per_block, seed=seed)
    index = _indexed(ledger)
    assert index.verify_against(ledger) == []
    assert chain_summary(ledger, index=index) == chain_summary(ledger)
    senders = [None, keypairs[0].address, keypairs[1].address]
    filters = [(None, None), ("articles", None), ("articles", "publish"),
               (None, "cast"), ("votes", "cast")]
    for sender in senders:
        for contract, method in filters:
            assert find_transactions(
                ledger, contract=contract, method=method, sender=sender,
                limit=limit, index=index,
            ) == find_transactions(
                ledger, contract=contract, method=method, sender=sender, limit=limit
            ), (sender, contract, method, limit)

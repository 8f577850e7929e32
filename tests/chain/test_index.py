"""Tests for :mod:`repro.chain.index` and the explorer's two query paths.

Three layers:

1. ``ChainIndex`` unit behaviour — incremental feed contract (contiguous
   heights, validity-vector length), lookups, views, the ledger's own
   index against a fresh feed and its snapshot dump, and the
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
4. ``Ledger.events`` — a filtered walk of the committed blocks, against
   the fold over ``ledger.transactions(valid_only=True)``, written here as
   the reference: every filter shape, reads interleaved with appends, a
   tx id committed twice, a consumer that scribbles on what it was
   handed, and a ledger recovered as snapshot + tail from either store.
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
from repro.chain.state import WorldState
from repro.chain.store import DurableStore, SQLiteStore
from repro.chain.transaction import Transaction
from repro.crypto import KeyPair
from repro.errors import InvalidBlockError
from repro.simnet.disk import SimDisk


@pytest.fixture(scope="module")
def keypairs():
    rng = random.Random(42)
    return [KeyPair.generate(rng) for _ in range(3)]


_CONTRACTS = (("articles", "publish"), ("articles", "endorse"), ("votes", "cast"))


def _tx(keypair, nonce, contract, method):
    """A transaction with 0–2 events of its method's kind and, now and
    then, one event with no ``kind`` at all."""
    events = [{"kind": f"{method}d", "n": nonce, "part": part} for part in range((nonce + 1) % 3)]
    if nonce % 5 == 4:
        events.append({"n": nonce})
    tx = Transaction.create(keypair, contract, method, {"n": nonce}, nonce=nonce)
    return tx.with_execution(
        read_set={}, write_set={f"{contract}/{nonce % 5}": nonce},
        events=tuple(events), return_value=nonce,
        endorsements=(),
    )


def _build(keypairs, n_blocks, txs_per_block=3, seed=0):
    """A chain mixing senders, contracts, methods and invalid txs."""
    return _extend(Ledger(), keypairs, n_blocks, txs_per_block, seed)


def _extend(ledger, keypairs, n_blocks, txs_per_block=3, seed=0):
    rng = random.Random(seed)
    nonce = ledger.height * txs_per_block
    for height in range(ledger.height + 1, ledger.height + n_blocks + 1):
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
    """A fresh index fed block by block — independent of ``ledger.index``."""
    index = ChainIndex()
    for height in range(1, ledger.height + 1):
        index.on_commit(ledger.block(height), ledger.block_validity(height))
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


def test_ledger_index_equals_a_fresh_feed_and_reloads_from_its_dump(keypairs):
    """``Ledger.append`` feeds the ledger's own index; it equals an index
    fed block by block, and ``load(dump)`` rebuilds it row for row."""
    ledger = _build(keypairs, 12)
    fresh = _indexed(ledger)
    assert ledger.index.dump() == fresh.dump()
    assert ledger.index.stats() == fresh.stats()
    assert ledger.index.contract_counts() == fresh.contract_counts()
    reloaded = ChainIndex.load(ledger.index.dump(), ledger.height)
    assert reloaded.dump() == ledger.index.dump()
    assert reloaded.stats() == ledger.index.stats()
    for index in (ledger.index, fresh, reloaded):
        assert index.verify_against(ledger) == []
    # The reloaded index keeps growing like the live one.
    _extend(ledger, keypairs, 2, seed=1)
    for height in (ledger.height - 1, ledger.height):
        reloaded.on_commit(ledger.block(height), ledger.block_validity(height))
    assert reloaded.dump() == ledger.index.dump()


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


def test_verify_against_checks_what_each_id_names(keypairs):
    """Rows and counts can all be right while an id is bound to another
    transaction's row; ``get`` (and every receipt) then answers wrongly,
    and ``verify_against`` must say so."""
    ledger = _build(keypairs, 5)
    index = _indexed(ledger)
    first, second = [c.transaction.tx_id for c in ledger.transactions(valid_only=False)][:2]
    index._ordinal_by_tx[first] = index._ordinal_by_tx[second]
    assert index.get(first).tx_id == second
    assert index.verify_against(ledger) == [
        f"1 tx id(s) name the wrong position, first {first[:12]}"
    ]
    # So is an id the index lost, and one the chain never held.
    index._ordinal_by_tx["0" * 64] = index._ordinal_by_tx.pop(first)
    assert index.verify_against(ledger) == [
        "2 tx id(s) name the wrong position, first 000000000000"
    ]
    del index._ordinal_by_tx["0" * 64]
    assert index.verify_against(ledger) == [
        f"1 tx id(s) name the wrong position, first {first[:12]}"
    ]


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

    def oldest_first(**filters):
        return [row.tx_id for row in reversed(index.find_transactions(limit=len(scan), **filters))]

    for keypair in keypairs:
        assert oldest_first(sender=keypair.address) == [
            c.transaction.tx_id for c in scan if c.transaction.sender == keypair.address
        ]
    for contract in ("articles", "votes"):
        assert oldest_first(contract=contract) == [
            c.transaction.tx_id for c in scan if c.transaction.contract == contract
        ]
    assert oldest_first(sender="acct:unknown") == []
    assert oldest_first(contract="unknown") == []


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


# -- Ledger.events: the one events-by-kind view --------------------------------


_EVENT_FILTERS = (
    {},
    {"kind": "publishd"},
    {"contract": "articles"},
    {"contract": "articles", "kind": "endorsed"},
    {"contract": "votes", "kind": "publishd"},  # both present, never together
    {"kind": "absent"},
    {"contract": "absent"},
    {"contract": "articles", "kind": "absent"},
)


def _fold_events(ledger, contract=None, kind=None):
    """The reference: the walk over every valid transaction, written
    apart from ``Ledger.events``."""
    out = []
    for committed in ledger.transactions(valid_only=True):
        tx = committed.transaction
        if contract is not None and tx.contract != contract:
            continue
        for event in tx.events:
            if kind is not None and event.get("kind") != kind:
                continue
            out.append({**event, "_tx_id": tx.tx_id, "_sender": tx.sender,
                        "_height": committed.block_height})
    return out


def _assert_events_match(ledger, reference=None):
    """*ledger* answers every filter shape as the fold over *reference*
    (default: itself) does, enrichment keys last and in order."""
    if reference is None:
        reference = ledger
    for filters in _EVENT_FILTERS:
        got = list(ledger.events(**filters))
        assert got == _fold_events(reference, **filters), filters
        assert all(list(event)[-3:] == ["_tx_id", "_sender", "_height"] for event in got)


def test_events_match_the_fold_for_every_filter_shape(keypairs):
    ledger = _build(keypairs, 12)
    everything = _fold_events(ledger)
    # The chain exercises what the view must get right: failed txs that
    # carry events, txs with none and with two, events without a kind.
    assert any(not c.valid and c.transaction.events
               for c in ledger.transactions(valid_only=False))
    assert {len(c.transaction.events) for c in ledger.transactions()} >= {0, 1, 2}
    assert any("kind" not in event for event in everything)
    assert _fold_events(ledger, kind="publishd") and not _fold_events(ledger, kind="absent")
    _assert_events_match(ledger)
    assert list(Ledger().events()) == []


def test_events_reads_interleave_with_appends(keypairs):
    ledger = _build(keypairs, 6)
    first = list(ledger.events(kind="publishd"))
    _assert_events_match(ledger)
    _extend(ledger, keypairs, 3, seed=1)
    # Extended over the three new blocks only, and equal to what a ledger
    # that is read for the first time at this height answers.
    fresh = Ledger()
    for height in range(1, ledger.height + 1):
        fresh.append(ledger.block(height), ledger.block_validity(height))
    second = list(ledger.events(kind="publishd"))
    assert len(second) > len(first) and second[:len(first)] == first
    for filters in _EVENT_FILTERS:
        assert list(ledger.events(**filters)) == list(fresh.events(**filters)), filters
    _assert_events_match(ledger)


@pytest.mark.parametrize("verdicts", [(True, False), (False, True)])
def test_events_of_a_failed_copy_never_appear(keypairs, verdicts):
    """A tx id committed twice: only the valid position's events are
    served, whichever copy came first and whenever the view was read."""
    ledger = Ledger()
    tx = _tx(keypairs[0], 0, "articles", "publish")
    for height, verdict in enumerate(verdicts, start=1):
        ledger.append(
            Block.build(height, ledger.head.block_hash, float(height), "peer-0", [tx]),
            [verdict],
        )
        _assert_events_match(ledger)
    events = list(ledger.events(kind="publishd"))
    assert [e["_height"] for e in events] == [verdicts.index(True) + 1]
    assert [e["_tx_id"] for e in events] == [tx.tx_id]


def test_events_hands_out_copies(keypairs):
    ledger = _build(keypairs, 5)
    before = _fold_events(ledger)
    for event in ledger.events():
        event["n"] = "scribbled"
        event.clear()
    assert list(ledger.events()) == before
    _assert_events_match(ledger)


@pytest.mark.parametrize("store_cls", [DurableStore, SQLiteStore])
def test_events_of_a_recovered_ledger_come_through_the_archive(keypairs, store_cls):
    """Snapshot + tail recovery leaves only the blocks above the snapshot
    in memory; a read walks the heights below through the archive loader,
    and after later appends it answers like any ledger's."""
    source = _build(keypairs, 10)
    store = store_cls(disk=SimDisk("n0", rng=random.Random(42)), snapshot_interval=4)
    ledger, state = Ledger(), WorldState()
    for height in range(1, source.height + 1):
        block, validity = source.block(height), source.block_validity(height)
        ledger.append(block, validity)
        for tx, valid in zip(block.transactions, validity):
            if valid:
                state.apply_write_set(tx.write_set)
        store.on_commit(block, validity, proof=None)
        store.maybe_snapshot(ledger, state)
    store.disk.on_crash()
    recovered = store.recover().ledger
    assert recovered.height == source.height and recovered._base == 8
    # Observe the events walk's own reads from a cold archive cache.
    recovered._archive_cache.clear()
    loads, archive = [], recovered._archive
    recovered._archive = lambda height: loads.append(height) or archive(height)
    _assert_events_match(recovered, reference=source)
    assert set(loads) >= set(range(1, 8))  # every height below the snapshot
    _extend(source, keypairs, 3, seed=2)
    for height in range(recovered.height + 1, source.height + 1):
        recovered.append(source.block(height), source.block_validity(height))
    _assert_events_match(recovered, reference=source)


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
    limit=st.integers(min_value=-1, max_value=10),
)
@settings(max_examples=25, deadline=None)
def test_scan_vs_index_equivalence_property(n_blocks, txs_per_block, seed, limit):
    """On a randomized chain, every filter combination answers identically
    through the index and through the ledger scan — through the explorer
    and through ``ChainIndex.find_transactions`` itself, ``limit <= 0``
    included."""
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
            scanned = find_transactions(
                ledger, contract=contract, method=method, sender=sender, limit=limit
            )
            assert find_transactions(
                ledger, contract=contract, method=method, sender=sender,
                limit=limit, index=index,
            ) == scanned, (sender, contract, method, limit)
            assert [row.tx_id for row in index.find_transactions(
                contract=contract, method=method, sender=sender, limit=limit,
            )] == [row["tx_id"] for row in scanned], (sender, contract, method, limit)

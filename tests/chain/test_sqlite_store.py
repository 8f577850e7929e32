"""SQLiteStore-specific tests: one disk format, and the SQL mirror.

SQLiteStore's storage is DurableStore's: the backend-agnostic recovery
contract (full replay, snapshot+tail, generation fallback, torn-tail
reconciliation, acked tracking, stale-snapshot discard) runs against it
via the parametrized suites in ``test_store.py``/``test_store_recovery.py``.
This file covers what is unique to the relational backend: it leaves the
same bytes on disk as DurableStore, its tables are rebuilt after recovery
to exactly the rows the live commits wrote, and the SQL query surface
answers identically to the explorer scan.
"""

from __future__ import annotations

import random

import pytest

from repro.chain.block import Block
from repro.chain.explorer import find_transactions
from repro.chain.ledger import Ledger
from repro.chain.store import DurableStore, SQLiteStore
from repro.crypto import KeyPair
from repro.simnet.disk import SimDisk

from tests.chain.test_store import _build_chain, _populate, _tx


@pytest.fixture
def keypair():
    return KeyPair.generate(random.Random(0))


def _chain_with_a_repeat(keypair, n_blocks, at):
    """``_build_chain``'s shape, except that block *at* commits two ids
    again: nonce 0 (valid in block 1) fails this time and nonce 3 (failed
    in block 2) is valid, so under never-downgrade one row stays put and
    one moves."""
    ledger, commits, nonce = Ledger(), [], 0
    for height in range(1, n_blocks + 1):
        if height == at:
            txs, validity = [_tx(keypair, 0), _tx(keypair, 3)], [False, True]
        else:
            txs, nonce = [_tx(keypair, nonce), _tx(keypair, nonce + 1)], nonce + 2
            validity = [tx.nonce % 5 != 3 for tx in txs]
        errors = [None if ok else "MVCC conflict: stale read set" for ok in validity]
        block = Block.build(height, ledger.head.block_hash, float(height), "peer-0", txs)
        ledger.append(block, validity, errors)
        commits.append((block, validity, errors))
    return ledger, commits


def _rows(store):
    """Every ``txs`` row with its interned names joined, in chain order."""
    return store.connection().execute(
        "SELECT t.tx_id, t.height, t.tx_index, a.address, c.name, m.name, t.valid "
        "FROM txs t "
        "JOIN addresses a ON a.id = t.sender_id "
        "JOIN contracts c ON c.id = t.contract_id "
        "JOIN methods m ON m.id = t.method_id "
        "ORDER BY t.height, t.tx_index"
    ).fetchall()


def test_both_durable_backends_leave_the_same_disk(keypair):
    """One snapshot format: fed the same blocks, DurableStore and
    SQLiteStore leave byte-identical disks — the same log, the same
    pruned snapshot generations, the same roles."""
    _, commits = _chain_with_a_repeat(keypair, 20, at=6)
    disks = []
    for cls in (DurableStore, SQLiteStore):
        disk = SimDisk("n0")
        _populate(cls(disk=disk, snapshot_interval=4), commits, snapshots=True)
        disks.append((
            {name: disk.read(name) for name in disk.names()},
            disk.names_with_role("log"),
            disk.names_with_role("snapshot"),
        ))
    assert disks[0] == disks[1]
    assert disks[1][2] == ["snapshot-0000000016", "snapshot-0000000020"]


def test_tx_tables_reconciled_after_log_truncation(keypair):
    """A torn tail shortens the chain below what the tables indexed: the
    rebuilt tables hold exactly the live rows of the surviving heights —
    those below the snapshot come through the archive."""
    tx0 = _tx(keypair, 0)
    _, commits = _chain_with_a_repeat(keypair, 10, at=6)
    disk = SimDisk("n0", rng=random.Random(7))
    store = SQLiteStore(disk=disk, snapshot_interval=4)
    _populate(store, commits, snapshots=True)
    live = _rows(store)
    disk.arm_torn_write()
    disk.on_crash()
    recovered = store.recover()
    tip = recovered.report.recovered_height
    assert tip == 9  # last record torn off
    assert recovered.report.snapshot_height == 8
    assert store.indexed_height == tip
    assert _rows(store) == [row for row in live if row[1] <= tip]
    assert {row[0]: row[1] for row in _rows(store)}[tx0.tx_id] == 1  # never downgraded


def test_query_transactions_matches_explorer_scan(keypair):
    ledger, commits = _build_chain(keypair, 15, txs_per_block=3)
    store = SQLiteStore(disk=SimDisk("n0"), snapshot_interval=4)
    _populate(store, commits, snapshots=True)
    for kwargs in (
        {},
        {"limit": 7},
        {"contract": "counter"},
        {"method": "increment", "limit": 4},
        {"sender": keypair.address},
        {"contract": "counter", "method": "increment", "sender": keypair.address},
        {"contract": "absent"},
        {"sender": "nobody"},
        {"limit": 0},
    ):
        assert store.query_transactions(**kwargs) == find_transactions(
            ledger, **kwargs
        ), kwargs


def test_query_surface_survives_crash_recovery(keypair):
    """After snapshot+tail recovery the tables are rebuilt from the
    recovered ledger to the rows the live commits wrote, an id committed
    twice included."""
    tx0, tx3 = _tx(keypair, 0), _tx(keypair, 3)
    _, commits = _chain_with_a_repeat(keypair, 12, at=6)
    disk = SimDisk("n0", rng=random.Random(3))
    store = SQLiteStore(disk=disk, snapshot_interval=4)
    _populate(store, commits, snapshots=True)
    live = _rows(store)
    before = store.query_transactions(limit=50)
    disk.on_crash()  # loses nothing durable; the tables are rebuilt
    recovered = store.recover()
    assert recovered.report.mode == "snapshot+tail"
    assert recovered.report.snapshot_height == 12  # heights 1..11 via the archive
    assert recovered.ledger.height == 12
    assert _rows(store) == live
    assert store.query_transactions(limit=50) == before
    heights = {row[0]: row[1] for row in live}
    assert (heights[tx0.tx_id], heights[tx3.tx_id]) == (1, 6)
    assert store.sql_stats()["txs"] == len(live) == 2 * 12 - 2

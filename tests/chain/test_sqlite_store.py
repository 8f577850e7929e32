"""SQLiteStore-specific tests: image media, schema migrations, SQL views.

The backend-agnostic recovery contract (full replay, snapshot+tail,
torn-tail reconciliation, acked tracking) runs against SQLiteStore via
the parametrized suites in ``test_store.py``/``test_store_recovery.py``.
This file covers what is unique to the relational backend: CRC-framed
serialized sqlite3 images as the snapshot media, generation fallback and
full-replay degradation when images are damaged, forward schema
migration (a v1 or v2 image is upgraded in place on load, a
future-versioned one is refused), reconciliation of the tx tables against the recovered
chain, and the SQL query surface answering identically to the explorer
scan.
"""

from __future__ import annotations

import random
import sqlite3

import pytest

from repro.chain.explorer import find_transactions
from repro.chain.store import SQLiteStore
from repro.chain.store.codec import encode_obj
from repro.chain.store.snapshots import frame
from repro.chain.store.sqlite import IMAGE_MAGIC, SCHEMA_VERSION, image_name
from repro.crypto import KeyPair
from repro.obs import MetricsRegistry
from repro.simnet.disk import SimDisk

from tests.chain.test_store import _build_chain, _populate


@pytest.fixture
def keypair():
    return KeyPair.generate(random.Random(0))


def _image_heights(store):
    return [c.height for c in store._snapshot_candidates()]


# -- snapshot media ----------------------------------------------------------


def test_snapshot_writes_pruned_image_generations(keypair):
    _, commits = _build_chain(keypair, 20)
    store = SQLiteStore(disk=SimDisk("n0"), snapshot_interval=4, keep_snapshots=2)
    _populate(store, commits, snapshots=True)
    assert _image_heights(store) == [16, 20]
    assert sorted(store.disk.names_with_role("snapshot")) == [
        c.name for c in store._snapshot_candidates()
    ]


def test_corrupt_image_falls_back_to_previous_generation(keypair):
    ledger, commits = _build_chain(keypair, 12)
    disk = SimDisk("n0", rng=random.Random(9))
    store = SQLiteStore(disk=disk, snapshot_interval=4, keep_snapshots=2)
    state = _populate(store, commits, snapshots=True)
    assert _image_heights(store) == [8, 12]
    assert disk.corrupt(name=image_name(12)) is not None
    recovered = store.recover()
    report = recovered.report
    assert report.mode == "snapshot+tail"
    assert report.snapshot_height == 8
    assert [d.kind for d in report.degradations] == ["snapshot-corrupt"]
    assert recovered.ledger.height == 12
    assert recovered.state.state_digest() == state.state_digest()
    # The bad image was discarded; the older generation survives.
    assert _image_heights(store) == [8]
    # The adopted live database was reconciled up to the log tip.
    assert store.sql_stats()["indexed_height"] == 12
    assert store.sql_stats()["txs"] == 24


def test_all_images_corrupt_falls_back_to_full_replay(keypair):
    ledger, commits = _build_chain(keypair, 9)
    disk = SimDisk("n0", rng=random.Random(11))
    store = SQLiteStore(disk=disk, snapshot_interval=4, keep_snapshots=2)
    state = _populate(store, commits, snapshots=True)
    for candidate in store._snapshot_candidates():
        assert disk.corrupt(offset=100, name=candidate.name) is not None
    recovered = store.recover()
    assert recovered.report.mode == "full-replay"
    assert {d.kind for d in recovered.report.degradations} == {"snapshot-corrupt"}
    assert recovered.ledger.height == 9
    assert recovered.state.state_digest() == state.state_digest()
    # Full replay rebuilt the relational tables from scratch.
    assert store.sql_stats()["indexed_height"] == 9
    assert store.sql_stats()["txs"] == 18


def test_image_with_mismatched_height_is_rejected(keypair):
    """An image whose internal snapshot row disagrees with its file name
    cannot be trusted (a renamed or cross-wired artifact)."""
    _, commits = _build_chain(keypair, 8)
    disk = SimDisk("n0")
    store = SQLiteStore(disk=disk, snapshot_interval=4, keep_snapshots=1)
    _populate(store, commits, snapshots=True)
    [candidate] = store._snapshot_candidates()
    data = disk.read(candidate.name)
    lying = image_name(6)
    disk.set_role(lying, "snapshot")
    disk.append(lying, data)
    disk.fsync(lying)
    disk.delete(candidate.name)
    recovered = store.recover()
    assert recovered.report.mode == "full-replay"
    assert [d.kind for d in recovered.report.degradations] == ["snapshot-corrupt"]
    assert recovered.ledger.height == 8


def test_tx_tables_reconciled_after_log_truncation(keypair):
    """A torn tail shortens the chain below what the tables indexed: the
    adopted database must not keep rows for blocks that no longer exist."""
    _, commits = _build_chain(keypair, 10)
    disk = SimDisk("n0", rng=random.Random(7))
    store = SQLiteStore(disk=disk, snapshot_interval=4, keep_snapshots=2)
    _populate(store, commits, snapshots=True)
    disk.arm_torn_write()
    disk.on_crash()
    recovered = store.recover()
    tip = recovered.report.recovered_height
    assert tip == 9  # last record torn off
    stats = store.sql_stats()
    assert stats["indexed_height"] == tip
    conn = store.connection()
    assert conn.execute(
        "SELECT COUNT(*) FROM txs WHERE height > ?", (tip,)
    ).fetchone()[0] == 0
    assert conn.execute("SELECT COUNT(*) FROM txs").fetchone()[0] == 2 * tip


# -- schema versioning -------------------------------------------------------

#: v1 and v2 as the deployments that wrote them declared them.  v1 keeps
#: the method name as text on ``txs``; v2 interns it; both carry the
#: receipt blob that v3 dropped.
_SCHEMA_OLD = {
    1: """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE addresses (id INTEGER PRIMARY KEY, address TEXT UNIQUE NOT NULL);
CREATE TABLE contracts (id INTEGER PRIMARY KEY, name TEXT UNIQUE NOT NULL);
CREATE TABLE txs (
    tx_id TEXT PRIMARY KEY,
    height INTEGER NOT NULL,
    tx_index INTEGER NOT NULL,
    sender_id INTEGER NOT NULL REFERENCES addresses(id),
    contract_id INTEGER NOT NULL REFERENCES contracts(id),
    method TEXT NOT NULL,
    valid INTEGER NOT NULL
);
CREATE UNIQUE INDEX idx_txs_chain ON txs(height, tx_index);
CREATE TABLE snapshot (
    height INTEGER PRIMARY KEY,
    block_hash TEXT NOT NULL,
    state BLOB NOT NULL,
    receipts BLOB NOT NULL
);
""",
    2: """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE addresses (id INTEGER PRIMARY KEY, address TEXT UNIQUE NOT NULL);
CREATE TABLE contracts (id INTEGER PRIMARY KEY, name TEXT UNIQUE NOT NULL);
CREATE TABLE methods (
    id INTEGER PRIMARY KEY,
    contract_id INTEGER NOT NULL REFERENCES contracts(id),
    name TEXT NOT NULL,
    UNIQUE (contract_id, name)
);
CREATE TABLE txs (
    tx_id TEXT PRIMARY KEY,
    height INTEGER NOT NULL,
    tx_index INTEGER NOT NULL,
    sender_id INTEGER NOT NULL REFERENCES addresses(id),
    contract_id INTEGER NOT NULL REFERENCES contracts(id),
    method_id INTEGER NOT NULL REFERENCES methods(id),
    valid INTEGER NOT NULL
);
CREATE UNIQUE INDEX idx_txs_chain ON txs(height, tx_index);
CREATE INDEX idx_txs_sender ON txs(sender_id, height, tx_index);
CREATE INDEX idx_txs_contract ON txs(contract_id, height, tx_index);
CREATE INDEX idx_txs_method ON txs(method_id, height, tx_index);
CREATE TABLE snapshot (
    height INTEGER PRIMARY KEY,
    block_hash TEXT NOT NULL,
    state BLOB NOT NULL,
    receipts BLOB NOT NULL
);
""",
}


def _old_receipt_objs(commits):
    """The receipt list v1/v2 images (and JSON snapshots of that time)
    carried: one object per tx id, sorted by id."""
    objs = [
        {
            "tx_id": tx.tx_id, "block_height": block.height, "success": validity[index],
            "return_value": tx.return_value if validity[index] else None,
            "events": list(tx.events) if validity[index] else [],
            "error": errors[index], "gas_used": 0,
        }
        for block, validity, errors in commits
        for index, tx in enumerate(block.transactions)
    ]
    return sorted(objs, key=lambda obj: obj["tx_id"])


def _write_image(disk, height, conn):
    name = image_name(height)
    disk.set_role(name, "snapshot")
    disk.append(name, frame(bytes(conn.serialize()), IMAGE_MAGIC))
    disk.fsync(name)
    return name


def _build_old_image(disk, ledger, commits, state, version):
    """Hand-write a schema-v1 or -v2 image at the chain head, as a
    pre-upgrade deployment would have left it on disk."""
    height = ledger.height
    conn = sqlite3.connect(":memory:")
    conn.executescript(_SCHEMA_OLD[version])
    conn.execute("INSERT INTO meta VALUES ('schema_version', ?)", (str(version),))
    conn.execute("INSERT INTO meta VALUES ('indexed_height', ?)", (str(height),))
    interned: dict[tuple[str, ...], int] = {}

    def intern(table, columns, *values):
        if (table, *values) not in interned:
            interned[(table, *values)] = conn.execute(
                f"INSERT INTO {table} ({columns}) VALUES ({', '.join('?' * len(values))})", values
            ).lastrowid
        return interned[(table, *values)]

    for block, validity, _ in commits:
        for tx_index, tx in enumerate(block.transactions):
            contract_id = intern("contracts", "name", tx.contract)
            method = tx.method if version == 1 else intern(
                "methods", "contract_id, name", contract_id, tx.method)
            conn.execute(
                "INSERT INTO txs VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    tx.tx_id, block.height, tx_index,
                    intern("addresses", "address", tx.sender), contract_id,
                    method, 1 if validity[tx_index] else 0,
                ),
            )
    conn.execute(
        "INSERT INTO snapshot VALUES (?, ?, ?, ?)",
        (
            height, ledger.head.block_hash,
            encode_obj(state.dump()), encode_obj(_old_receipt_objs(commits)),
        ),
    )
    conn.commit()
    name = _write_image(disk, height, conn)
    conn.close()
    return name


def _check_old_image_migrates(keypair, version):
    """A v1 or v2 image — both still carrying the receipt blob — recovers
    to the tip, state and receipts of the chain that wrote it; every
    schema step taken is counted."""
    ledger, commits = _build_chain(keypair, 6, txs_per_block=3)
    disk = SimDisk("n0")
    store = SQLiteStore(disk=disk, snapshot_interval=1000)  # no current-schema images
    registry = MetricsRegistry()
    store.attach(registry, "n0")
    state = _populate(store, commits)
    _build_old_image(disk, ledger, commits, state, version)

    recovered = store.recover()
    report = recovered.report
    assert report.mode == "snapshot+tail"
    assert report.snapshot_height == 6
    assert report.degradations == []  # migration is an upgrade, not a loss
    assert recovered.ledger.height == 6
    assert recovered.ledger.head.block_hash == ledger.head.block_hash
    assert recovered.state.state_digest() == state.state_digest()
    assert dict(recovered.ledger.receipts) == dict(ledger.receipts)
    assert {r.tx_id: (r.success, r.error) for r in recovered.ledger.receipts.values()} == {
        tx.tx_id: (validity[i], errors[i])
        for block, validity, errors in commits
        for i, tx in enumerate(block.transactions)
    }
    # The adopted live database now speaks the current schema: the
    # methods table exists, is linked, and serves queries; the receipt
    # blob is gone.
    stats = store.sql_stats()
    assert stats["schema_version"] == SCHEMA_VERSION == 3
    assert stats["methods"] == 1
    assert stats["txs"] == 18
    assert store.query_transactions(method="increment", limit=5) == find_transactions(
        recovered.ledger, method="increment", limit=5
    )
    columns = [row[1] for row in store.connection().execute("PRAGMA table_info(snapshot)")]
    assert columns == ["height", "block_hash", "state"]
    assert registry.total("store.schema_migrations") == SCHEMA_VERSION - version


def test_v1_image_is_migrated_forward_on_load(keypair):
    _check_old_image_migrates(keypair, version=1)


def test_v2_image_is_migrated_forward_on_load(keypair):
    """The parent's format: the one step is dropping the receipt blob."""
    _check_old_image_migrates(keypair, version=2)


def test_future_schema_version_is_refused(keypair):
    """A downgrade scenario: an image written by a *newer* deployment
    must not be half-understood — the ladder treats it as corrupt and
    falls back (here: to full replay)."""
    ledger, commits = _build_chain(keypair, 5)
    disk = SimDisk("n0")
    store = SQLiteStore(disk=disk, snapshot_interval=1000)
    state = _populate(store, commits)
    conn = sqlite3.connect(":memory:")
    conn.executescript(_SCHEMA_OLD[1])
    conn.execute(
        "INSERT INTO meta VALUES ('schema_version', ?)", (str(SCHEMA_VERSION + 1),)
    )
    conn.execute(
        "INSERT INTO snapshot VALUES (?, ?, ?, ?)",
        (5, ledger.head.block_hash, encode_obj(state.dump()), encode_obj([])),
    )
    conn.commit()
    _write_image(disk, 5, conn)
    conn.close()
    recovered = store.recover()
    assert recovered.report.mode == "full-replay"
    assert [d.kind for d in recovered.report.degradations] == ["snapshot-corrupt"]
    assert recovered.ledger.height == 5
    assert recovered.state.state_digest() == state.state_digest()


# -- SQL query surface -------------------------------------------------------


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
    ledger, commits = _build_chain(keypair, 12, txs_per_block=2)
    disk = SimDisk("n0", rng=random.Random(3))
    store = SQLiteStore(disk=disk, snapshot_interval=4)
    _populate(store, commits, snapshots=True)
    before = store.query_transactions(limit=50)
    disk.on_crash()  # loses nothing durable; the live conn is rebuilt
    recovered = store.recover()
    assert recovered.ledger.height == 12
    assert store.query_transactions(limit=50) == before

"""SQLite-class backend behind the same :class:`BlockStore` interface.

Layout on the node's :class:`~repro.simnet.disk.SimDisk`:

- **block WAL** — the exact PR 7 write-ahead :class:`BlockLog` (CRC-framed
  ``>2sIII`` records): commits are acknowledged durable the same way, and
  recovery trusts the same verified log prefix;
- **snapshot images** — instead of JSON snapshot files, each snapshot is
  a *real sqlite3 database image* (``chain-<height>.sqlite``): the live
  in-memory connection is ``serialize()``-d and written to the disk in
  the envelope of :mod:`repro.chain.store.snapshots`, newest
  ``keep_snapshots`` generations retained.  ``recover()``
  ``deserialize()``-s an image back into a connection — so the artifact a
  bit-flip fault corrupts, and the ladder degrades past, is a genuine
  SQLite file.

Inside the database: a ``meta`` **schema-version table** with forward
migrations (:data:`SCHEMA_VERSION`, :data:`MIGRATIONS` — an older image
is upgraded in place on load; a *newer* one is rejected as untrusted),
**interned** address/contract/method tables, a ``txs`` table keyed by
``(height, tx_index)`` with covering indexes per sender/contract/method,
and a single-row ``snapshot`` table holding the world-state payload in the
canonical PR 7 codec.  ``txs`` holds one row per tx id and *is* the
persisted tx-id locator, so it is written under the ledger's
never-downgrade rule (see ``Ledger.append``): the row of an id committed
twice names the same copy the ledger, ``ChainIndex.get`` and the receipt
name.

Recovery reuses :class:`DurableStore`'s entire verify-before-trust
ladder via the snapshot-media hooks: ``_load_snapshot`` CRC-checks and
deserializes an image, validates/migrates the schema, cross-checks the
recorded height, and reconstructs the ledger's tx-id locator *from
the relational tables* — so the tx tables are load-bearing, not
decorative.  Every failure is counted through the same
``store.degradations`` ladder (a bad image is ``snapshot-corrupt``, an
image contradicting the log is ``snapshot-mismatch``), and the
:class:`RecoveredChain` shape is identical to ``DurableStore``'s.

The live connection is **volatile by design**: a crash (``recover()``)
discards it and rebuilds from the durable artifacts, then reconciles the
tx tables against the recovered chain — rows above the recovered height
are deleted, missing heights re-indexed from the recovered ledger (always
within its in-memory window, never the archive).
"""

from __future__ import annotations

import sqlite3
from typing import TYPE_CHECKING, Any

from repro.chain.block import Block
from repro.chain.ledger import Ledger
from repro.chain.state import WorldState
from repro.chain.store.base import RecoveredChain
from repro.chain.store.codec import decode_obj, encode_obj
from repro.chain.store.durable import DurableStore
from repro.chain.store.snapshots import SnapshotCandidate, list_candidates, unframe, write_framed
from repro.simnet.disk import SimDisk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chain.consensus.base import ConsensusEngine

__all__ = ["SQLiteStore", "SCHEMA_VERSION", "MIGRATIONS", "image_name"]

#: Current schema generation.  v1 stored method names as free text on
#: ``txs``; v2 interns them into a ``methods`` table; v3 drops the receipt
#: blob from ``snapshot`` (receipts are read from the ledger) — see
#: MIGRATIONS.
SCHEMA_VERSION = 3

IMAGE_PREFIX = "chain-"
IMAGE_SUFFIX = ".sqlite"
IMAGE_MAGIC = b"RQ"

_HAS_SERIALIZE = hasattr(sqlite3.Connection, "serialize") and hasattr(
    sqlite3.Connection, "deserialize"
)

_SCHEMA_V3 = """
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
    state BLOB NOT NULL
);
"""


def image_name(height: int) -> str:
    return f"{IMAGE_PREFIX}{height:010d}{IMAGE_SUFFIX}"


def _migrate_1_to_2(conn: sqlite3.Connection) -> None:
    """v1 -> v2: intern method names out of the ``txs.method`` text column
    into a dedicated ``methods`` table (backfill, relink, drop column)."""
    conn.executescript(
        """
        CREATE TABLE methods (
            id INTEGER PRIMARY KEY,
            contract_id INTEGER NOT NULL REFERENCES contracts(id),
            name TEXT NOT NULL,
            UNIQUE (contract_id, name)
        );
        """
    )
    conn.execute(
        "INSERT INTO methods (contract_id, name) "
        "SELECT DISTINCT contract_id, method FROM txs ORDER BY contract_id, method"
    )
    conn.execute("ALTER TABLE txs ADD COLUMN method_id INTEGER")
    conn.execute(
        "UPDATE txs SET method_id = ("
        "  SELECT m.id FROM methods m"
        "  WHERE m.contract_id = txs.contract_id AND m.name = txs.method)"
    )
    conn.execute("ALTER TABLE txs DROP COLUMN method")
    conn.execute("CREATE INDEX idx_txs_method ON txs(method_id, height, tx_index)")


def _migrate_2_to_3(conn: sqlite3.Connection) -> None:
    """v2 -> v3: a snapshot holds state, not history — drop the receipt blob."""
    conn.execute("ALTER TABLE snapshot DROP COLUMN receipts")


#: from-version -> forward migration.  Applied in sequence on load until
#: the image reaches SCHEMA_VERSION.
MIGRATIONS = {1: _migrate_1_to_2, 2: _migrate_2_to_3}


class SQLiteStore(DurableStore):
    """Block WAL + serialized sqlite3 snapshot images over a SimDisk."""

    kind = "sqlite"

    def __init__(
        self,
        disk: SimDisk | None = None,
        node_id: str = "",
        snapshot_interval: int = 64,
        keep_snapshots: int = 2,
    ):
        if not _HAS_SERIALIZE:  # pragma: no cover - build-dependent
            raise RuntimeError(
                "SQLiteStore needs sqlite3.Connection.serialize/deserialize "
                "(Python >= 3.11 with a standard SQLite build)"
            )
        super().__init__(
            disk=disk,
            node_id=node_id,
            snapshot_interval=snapshot_interval,
            keep_snapshots=keep_snapshots,
        )
        self._live: sqlite3.Connection | None = None
        #: (height, connection) deserialized by the latest _load_snapshot
        #: call — adopted after recovery iff that candidate won the ladder.
        self._pending: tuple[int, sqlite3.Connection] | None = None

    # -- live connection ---------------------------------------------------

    def _fresh_conn(self) -> sqlite3.Connection:
        conn = sqlite3.connect(":memory:")
        conn.executescript(_SCHEMA_V3)
        conn.execute(
            "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
            (str(SCHEMA_VERSION),),
        )
        conn.execute("INSERT INTO meta (key, value) VALUES ('indexed_height', '0')")
        conn.commit()
        return conn

    def connection(self) -> sqlite3.Connection:
        """The live (volatile) database; created lazily."""
        if self._live is None:
            self._live = self._fresh_conn()
        return self._live

    def _close_live(self) -> None:
        if self._live is not None:
            self._live.close()
            self._live = None

    @staticmethod
    def _meta_int(conn: sqlite3.Connection, key: str) -> int | None:
        row = conn.execute("SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        if row is None:
            return None
        try:
            return int(row[0])
        except (TypeError, ValueError):
            return None

    @staticmethod
    def _set_meta(conn: sqlite3.Connection, key: str, value: int) -> None:
        conn.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, str(value)),
        )

    @staticmethod
    def _intern(conn: sqlite3.Connection, table: str, column: str, value: str) -> int:
        row = conn.execute(
            f"SELECT id FROM {table} WHERE {column} = ?", (value,)
        ).fetchone()
        if row is not None:
            return row[0]
        return conn.execute(
            f"INSERT INTO {table} ({column}) VALUES (?)", (value,)
        ).lastrowid

    @classmethod
    def _intern_method(
        cls, conn: sqlite3.Connection, contract_id: int, name: str
    ) -> int:
        row = conn.execute(
            "SELECT id FROM methods WHERE contract_id = ? AND name = ?",
            (contract_id, name),
        ).fetchone()
        if row is not None:
            return row[0]
        return conn.execute(
            "INSERT INTO methods (contract_id, name) VALUES (?, ?)",
            (contract_id, name),
        ).lastrowid

    def _index_block(self, block: Block, validity: list[bool]) -> None:
        conn = self.connection()
        for tx_index, tx in enumerate(block.transactions):
            sender_id = self._intern(conn, "addresses", "address", tx.sender)
            contract_id = self._intern(conn, "contracts", "name", tx.contract)
            method_id = self._intern_method(conn, contract_id, tx.method)
            conn.execute(
                "INSERT INTO txs "
                "(tx_id, height, tx_index, sender_id, contract_id, method_id, valid) "
                "VALUES (?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(tx_id) DO UPDATE SET (height, tx_index, sender_id, contract_id, "
                "method_id, valid) = (excluded.height, excluded.tx_index, excluded.sender_id, "
                "excluded.contract_id, excluded.method_id, excluded.valid) "
                "WHERE excluded.valid OR NOT txs.valid",  # never downgrade, as Ledger.append
                (
                    tx.tx_id,
                    block.height,
                    tx_index,
                    sender_id,
                    contract_id,
                    method_id,
                    1 if validity[tx_index] else 0,
                ),
            )
        self._set_meta(conn, "indexed_height", block.height)
        conn.commit()

    # -- commit path -------------------------------------------------------

    def on_commit(
        self,
        block: Block,
        validity: list[bool],
        proof: Any = None,
        errors: list[str | None] | None = None,
    ) -> bool:
        acked = super().on_commit(block, validity, proof=proof, errors=errors)
        self._index_block(block, validity)
        self._count("store.sqlite_rows_indexed", len(block.transactions))
        return acked

    # -- snapshot media (the DurableStore hook points) ---------------------

    def _write_snapshot(self, ledger: Ledger, state: WorldState) -> int:
        conn = self.connection()
        conn.execute("DELETE FROM snapshot")
        conn.execute(
            "INSERT INTO snapshot (height, block_hash, state) VALUES (?, ?, ?)",
            (ledger.height, ledger.head.block_hash, encode_obj(state.dump())),
        )
        conn.commit()
        return write_framed(
            self.disk,
            image_name(ledger.height),
            IMAGE_MAGIC,
            bytes(conn.serialize()),
            self.keep_snapshots,
            self._snapshot_candidates,
        )

    def _snapshot_candidates(self) -> list[SnapshotCandidate]:
        return list_candidates(self.disk, IMAGE_PREFIX, IMAGE_SUFFIX)

    def _load_snapshot(self, candidate: SnapshotCandidate) -> dict[str, Any] | None:
        payload = unframe(self.disk.read(candidate.name), IMAGE_MAGIC)
        if isinstance(payload, str):
            return None
        conn = sqlite3.connect(":memory:")
        try:
            conn.deserialize(payload)
            version = self._meta_int(conn, "schema_version")
            if version is None or version < 1 or version > SCHEMA_VERSION:
                # Unknown or *future* schema: refuse to guess at its
                # meaning — the ladder treats it as a corrupt snapshot.
                conn.close()
                return None
            while version < SCHEMA_VERSION:
                MIGRATIONS[version](conn)
                version += 1
                self._set_meta(conn, "schema_version", version)
                self._count("store.schema_migrations")
            conn.commit()
            row = conn.execute("SELECT height, block_hash, state FROM snapshot").fetchone()
            if row is None or row[0] != candidate.height:
                conn.close()
                return None
            snap_obj = {
                "height": row[0],
                "block_hash": row[1],
                "state": decode_obj(row[2]),
                "indexes": self._indexes_from_tables(conn),
            }
        except (sqlite3.Error, ValueError, KeyError, TypeError):
            conn.close()
            return None
        if self._pending is not None:
            self._pending[1].close()
        self._pending = (candidate.height, conn)
        return snap_obj

    @staticmethod
    def _indexes_from_tables(conn: sqlite3.Connection) -> dict[str, Any]:
        """Rebuild the ledger's tx-id lookup dump from the relational
        tables — the tx tables are the source of truth, there is no
        duplicate JSON index blob to drift from them."""
        rows = conn.execute("SELECT tx_id, height, tx_index FROM txs ORDER BY height, tx_index")
        return {"tx_locator": {tx_id: [height, tx_index] for tx_id, height, tx_index in rows}}

    # -- recovery ----------------------------------------------------------

    def recover(self, engine: "ConsensusEngine | None" = None) -> RecoveredChain | None:
        # The live connection is volatile: the crash we are recovering
        # from lost it.  Only the durable artifacts speak now.
        self._close_live()
        self._pending = None
        recovered = super().recover(engine)
        if recovered is not None:
            self._adopt_connection(recovered)
        if self._pending is not None:
            self._pending[1].close()
            self._pending = None
        return recovered

    def _adopt_connection(self, recovered: RecoveredChain) -> None:
        """Re-seat the live database after the ladder settled.

        If the winning plan was ``snapshot+tail``, adopt the deserialized
        (already migrated) image; otherwise start from an empty schema.
        Then reconcile the tx tables against the recovered chain: delete
        rows above the recovered height, index the heights the image
        never saw — all inside the recovered ledger's in-memory window.
        """
        report = recovered.report
        if (
            self._pending is not None
            and report.mode == "snapshot+tail"
            and self._pending[0] == report.snapshot_height
        ):
            self._live = self._pending[1]
            self._pending = None
        else:
            self._live = self._fresh_conn()
        conn = self._live
        tip = report.recovered_height
        conn.execute("DELETE FROM txs WHERE height > ?", (tip,))
        indexed = self._meta_int(conn, "indexed_height") or 0
        indexed = min(indexed, tip)
        for height in range(indexed + 1, tip + 1):
            self._index_block(
                recovered.ledger.block(height), recovered.ledger.block_validity(height)
            )
        self._set_meta(conn, "indexed_height", tip)
        conn.commit()

    # -- queries -----------------------------------------------------------

    def query_transactions(
        self,
        contract: str | None = None,
        method: str | None = None,
        sender: str | None = None,
        limit: int = 50,
    ) -> list[dict[str, Any]]:
        """SQL twin of ``explorer.find_transactions``: same row dicts,
        same newest-first order, answered by the covering indexes."""
        if limit <= 0:
            return []
        conn = self.connection()
        clauses = []
        params: list[Any] = []
        if sender is not None:
            clauses.append("a.address = ?")
            params.append(sender)
        if contract is not None:
            clauses.append("c.name = ?")
            params.append(contract)
        if method is not None:
            clauses.append("m.name = ?")
            params.append(method)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = conn.execute(
            "SELECT t.tx_id, t.height, c.name, m.name, a.address, t.valid "
            "FROM txs t "
            "JOIN addresses a ON a.id = t.sender_id "
            "JOIN contracts c ON c.id = t.contract_id "
            "JOIN methods m ON m.id = t.method_id "
            f"{where} ORDER BY t.height DESC, t.tx_index DESC LIMIT ?",
            (*params, limit),
        )
        return [
            {
                "tx_id": tx_id,
                "block_height": height,
                "contract": contract_name,
                "method": method_name,
                "sender": sender_addr,
                "valid": bool(valid),
            }
            for tx_id, height, contract_name, method_name, sender_addr, valid in rows
        ]

    def sql_stats(self) -> dict[str, int]:
        """Row counts per table plus the indexed height (CLI surface)."""
        conn = self.connection()
        stats = {
            table: conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in ("txs", "addresses", "contracts", "methods")
        }
        stats["indexed_height"] = self._meta_int(conn, "indexed_height") or 0
        stats["schema_version"] = self._meta_int(conn, "schema_version") or 0
        return stats

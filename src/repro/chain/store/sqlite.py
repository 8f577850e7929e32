"""SQLite-class backend: :class:`DurableStore` plus a SQL mirror.

Storage is exactly ``DurableStore``'s — the same write-ahead block log,
the same ``snapshot-<height>`` files and the same recovery ladder — so a
disk either backend wrote, either can recover.  What this class adds is a
volatile in-memory ``sqlite3`` database of committed transactions:
**interned** address/contract/method tables and a ``txs`` table keyed by
``(height, tx_index)`` with covering indexes per sender/contract/method,
which answer :meth:`SQLiteStore.query_transactions`.

The tables are a view derived from the ledger, never a second source of
truth.  :meth:`~SQLiteStore.on_commit` feeds them each committed block;
:meth:`~SQLiteStore.recover` drops them with the crash and rebuilds them
from the recovered ledger — every height, the ones below the snapshot
through its archive (the ledger's own ``ChainIndex`` comes back from the
snapshot's rows instead).  ``txs`` holds one row per tx id, written under
the never-downgrade rule (see ``ChainIndex._feed``): the row of an id
committed twice names the same copy the ledger, ``ChainIndex.get`` and
the receipt name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.chain.block import Block
from repro.chain.store.base import RecoveredChain
from repro.chain.store.durable import DurableStore
from repro.simnet.disk import SimDisk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import sqlite3

    from repro.chain.consensus.base import ConsensusEngine
    from repro.obs import MetricsRegistry

__all__ = ["SQLiteStore"]

_SCHEMA = """
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
"""


class SQLiteStore(DurableStore):
    """Block WAL + snapshots, plus a volatile SQL mirror of committed txs."""

    def __init__(
        self,
        disk: SimDisk | None = None,
        node_id: str = "",
        snapshot_interval: int = 64,
    ):
        super().__init__(disk=disk, node_id=node_id, snapshot_interval=snapshot_interval)
        self._live: sqlite3.Connection | None = None
        #: Height of the newest block the tables hold.
        self.indexed_height = 0

    def attach(self, registry: "MetricsRegistry", node_id: str) -> None:
        super().attach(registry, node_id)
        self._rows_indexed = registry.counter("store.sqlite_rows_indexed", peer=node_id)

    # -- live connection ---------------------------------------------------

    def connection(self) -> sqlite3.Connection:
        """The live (volatile) database; created lazily, and sqlite3 is
        imported with it, so a process whose stores never build the mirror
        never loads the module."""
        if self._live is None:
            import sqlite3

            self._live = sqlite3.connect(":memory:")
            self._live.executescript(_SCHEMA)
        return self._live

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
                "WHERE excluded.valid OR NOT txs.valid",  # never downgrade, as ChainIndex._feed
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
        conn.commit()
        self.indexed_height = block.height

    # -- commit path -------------------------------------------------------

    def on_commit(
        self,
        block: Block,
        validity: list[bool],
        proof: Any = None,
        errors: list[str | None] | None = None,
    ) -> None:
        super().on_commit(block, validity, proof=proof, errors=errors)
        self._index_block(block, validity)
        self._rows_indexed.inc(len(block.transactions))

    # -- recovery ----------------------------------------------------------

    def recover(self, engine: "ConsensusEngine | None" = None) -> RecoveredChain:
        # The tables are volatile: the crash we are recovering from lost
        # them.  Rebuild them from the ledger the ladder settled on.
        if self._live is not None:
            self._live.close()
            self._live = None
        self.indexed_height = 0
        recovered = super().recover(engine)
        ledger = recovered.ledger
        for height in range(1, ledger.height + 1):
            self._index_block(ledger.block(height), ledger.block_validity(height))
        return recovered

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
        """Row counts per table (CLI surface)."""
        conn = self.connection()
        return {
            table: conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in ("txs", "addresses", "contracts", "methods")
        }

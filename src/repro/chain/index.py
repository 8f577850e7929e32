"""Explorer-grade chain index: interned tables + materialized views.

The paper's news-consumer role (Fig. 2) reads the chain far more often
than it writes it — "who published this, who endorsed it, what happened
to this article" — and every one of those questions used to be a full
O(n) ledger scan through :mod:`repro.chain.explorer`.  ``ChainIndex``
turns them into O(log n + k)-class lookups:

- **interning** — every sender address, contract name, and
  ``contract.method`` pair is assigned a small integer id once; the
  per-transaction tables store ids, not strings, so a million-tx index
  costs a few machine words per transaction instead of a few hundred
  bytes;
- **materialized views** — tx-by-id, txs-by-sender / -contract /
  -method (chain order, so newest-first is a reversed walk) and
  per-contract counts are maintained incrementally as blocks commit
  (events are not indexed: :meth:`Ledger.events
  <repro.chain.ledger.Ledger.events>` walks the committed blocks for them);
- **one feed** — the index belongs to the ledger it indexes:
  :meth:`Ledger.append <repro.chain.ledger.Ledger.append>` calls
  :meth:`on_commit` after its own checks and before its first mutation,
  so the index is never ahead of or behind the ledger, and it is the one
  place a transaction id is bound to a position (the *never-downgrade*
  rule, see :meth:`_feed`);
- **carried by the snapshot** — :meth:`dump` writes the interned tables
  and one row per transaction, and :meth:`load` replays those rows through
  the same per-row feed, so a restart from a snapshot decodes no archived
  block.

The ledger scan stays available as the cross-checked fallback: every
view answers *identically* to the equivalent scan (asserted by the
scan-vs-index equivalence tests and ``benchmarks/bench_explorer.py``),
and :meth:`verify_against` re-derives the rows, the counts and the
position each id names from a ledger scan, so an index that ever drifted
is loud, not subtly wrong.
"""

from __future__ import annotations

from collections.abc import KeysView
from typing import TYPE_CHECKING, Any

from repro.chain.block import Block
from repro.errors import InvalidBlockError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chain.ledger import Ledger

__all__ = ["ChainIndex", "Interner", "TxView"]


class Interner:
    """Bidirectional string <-> small-int table (dipdup-style interning)."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._values: list[str] = []

    def intern(self, value: str) -> int:
        """Return *value*'s id, assigning the next one on first sight."""
        found = self._ids.get(value)
        if found is not None:
            return found
        assigned = len(self._values)
        self._ids[value] = assigned
        self._values.append(value)
        return assigned

    def lookup(self, value: str) -> int | None:
        """The id for *value*, or ``None`` if it was never interned."""
        return self._ids.get(value)

    def value(self, interned: int) -> str:
        return self._values[interned]

    def __len__(self) -> int:
        return len(self._values)


class TxView:
    """One indexed transaction, resolved back to strings."""

    __slots__ = ("tx_id", "block_height", "tx_index", "sender", "contract", "method", "valid")

    def __init__(self, tx_id: str, block_height: int, tx_index: int,
                 sender: str, contract: str, method: str, valid: bool):
        self.tx_id = tx_id
        self.block_height = block_height
        self.tx_index = tx_index
        self.sender = sender
        self.contract = contract
        self.method = method
        self.valid = valid


class ChainIndex:
    """Incremental secondary index over one peer's committed chain.

    Internally every transaction gets an *ordinal* (its position in
    chain order); the per-ordinal columns are parallel lists of ints, and
    each view is a list of ordinals in chain order.  Newest-first queries
    walk a view backwards and stop at ``limit`` — bounded work even on a
    100k-block chain.
    """

    def __init__(self) -> None:
        self.height = 0  # highest indexed block height
        self.addresses = Interner()
        self.contracts = Interner()
        self.methods = Interner()  # interns "contract.method" pairs
        self._method_names: list[str] = []  # method id -> the method part alone
        # Parallel per-ordinal columns (ints except the tx id).
        self._tx_ids: list[str] = []
        self._heights: list[int] = []
        self._indexes: list[int] = []
        self._senders: list[int] = []
        self._contracts: list[int] = []
        self._methods: list[int] = []
        self._valid: list[bool] = []
        self._ordinal_by_tx: dict[str, int] = {}
        # Views: ordinals in chain order.
        self._by_sender: dict[int, list[int]] = {}
        self._by_contract: dict[int, list[int]] = {}
        self._by_method: dict[int, list[int]] = {}
        self._n_valid = 0

    # -- feed --------------------------------------------------------------

    def on_commit(self, block: Block, validity: list[bool]) -> None:
        """Index one committed block (must extend the indexed height).

        Every field of every transaction is read before the first
        mutation, so a transaction object that raises leaves the index —
        and the ledger whose ``append`` called this — exactly as it was.
        """
        if block.height != self.height + 1:
            raise InvalidBlockError(
                f"index at height {self.height} cannot apply block {block.height}"
            )
        if len(validity) != len(block.transactions):
            raise InvalidBlockError("validity vector length mismatch")
        rows = [(tx.tx_id, tx.sender, tx.contract, tx.method) for tx in block.transactions]
        for tx_index, (tx_id, sender, contract, method) in enumerate(rows):
            self._feed(tx_id, block.height, tx_index, sender, contract, method, validity[tx_index])
        self.height = block.height

    def _feed(self, tx_id: str, height: int, tx_index: int,
              sender: str, contract: str, method: str, valid: bool) -> None:
        """Append one row in chain order — the live path and :meth:`load`
        both come through here.

        This is the one place a transaction id is bound to a position, so
        the *never-downgrade* rule lives here: the id names the new row
        unless the row it already names is valid and the new one is not —
        a duplicate of a committed-valid transaction that lands in a later
        block and fails MVCC there must not become what the id means.
        """
        ordinal = len(self._tx_ids)
        sender_id = self.addresses.intern(sender)
        contract_id = self.contracts.intern(contract)
        method_id = self.methods.intern(f"{contract}.{method}")
        if method_id == len(self._method_names):
            self._method_names.append(method)
        self._tx_ids.append(tx_id)
        self._heights.append(height)
        self._indexes.append(tx_index)
        self._senders.append(sender_id)
        self._contracts.append(contract_id)
        self._methods.append(method_id)
        self._valid.append(valid)
        if valid or not self._valid[self._ordinal_by_tx.get(tx_id, ordinal)]:
            self._ordinal_by_tx[tx_id] = ordinal
        self._by_sender.setdefault(sender_id, []).append(ordinal)
        self._by_contract.setdefault(contract_id, []).append(ordinal)
        self._by_method.setdefault(method_id, []).append(ordinal)
        if valid:
            self._n_valid += 1

    # -- snapshot ----------------------------------------------------------

    def dump(self) -> dict[str, Any]:
        """JSON-ready copy for a snapshot: the interned addresses, the
        ``(contract, method)`` pairs, and one row per transaction in chain
        order, ``[tx_id, height, tx_index, sender id, method id, valid]``."""
        methods = zip(self.methods._values, self._method_names)
        rows = zip(self._tx_ids, self._heights, self._indexes,
                   self._senders, self._methods, self._valid)
        return {
            "addresses": list(self.addresses._values),
            "methods": [[pair[: -len(method) - 1], method] for pair, method in methods],
            "rows": [list(row) for row in rows],
        }

    @classmethod
    def load(cls, dump: dict[str, Any], height: int) -> "ChainIndex":
        """The index a :meth:`dump` taken at *height* describes.  The rows
        are replayed through :meth:`_feed`, so the id binding and the views
        are rebuilt by the one rule, not read back."""
        index = cls()
        addresses, methods = dump["addresses"], dump["methods"]
        for tx_id, row_height, tx_index, sender_id, method_id, valid in dump["rows"]:
            contract, method = methods[method_id]
            index._feed(tx_id, row_height, tx_index, addresses[sender_id], contract, method, valid)
        index.height = height
        return index

    # -- views -------------------------------------------------------------

    def __len__(self) -> int:
        """Total indexed transactions (valid and invalid)."""
        return len(self._tx_ids)

    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self._ordinal_by_tx

    @property
    def valid_transactions(self) -> int:
        return self._n_valid

    def tx_ids(self) -> KeysView[str]:
        """Every indexed id once, in order of first commit."""
        return self._ordinal_by_tx.keys()

    def locate(self, tx_id: str) -> tuple[int, int] | None:
        """``(height, tx_index)`` of the row *tx_id* names, or ``None``."""
        ordinal = self._ordinal_by_tx.get(tx_id)
        return None if ordinal is None else (self._heights[ordinal], self._indexes[ordinal])

    def _view(self, ordinal: int) -> TxView:
        return TxView(
            self._tx_ids[ordinal], self._heights[ordinal], self._indexes[ordinal],
            self.addresses.value(self._senders[ordinal]),
            self.contracts.value(self._contracts[ordinal]),
            self._method_names[self._methods[ordinal]], self._valid[ordinal],
        )

    def get(self, tx_id: str) -> TxView | None:
        """tx-by-id: the indexed row, or ``None`` if unknown."""
        ordinal = self._ordinal_by_tx.get(tx_id)
        return None if ordinal is None else self._view(ordinal)

    def _matches(
        self,
        contract: str | None,
        method: str | None,
        sender: str | None,
        limit: int,
    ) -> list[int]:
        """The one filter walk: ordinals of the rows matching every given
        filter, newest first (height desc, index desc), at most *limit*.

        Picks the most selective view for the filters, walks it
        backwards, post-filters the remaining predicates on interned ids
        (no block or transaction objects are touched), and stops at
        *limit* — O(view tail + k), not O(chain).
        """
        if limit <= 0:
            return []
        sender_id = contract_id = method_id = None
        views: list[list[int]] = []
        if sender is not None:
            sender_id = self.addresses.lookup(sender)
            if sender_id is None:
                return []
            views.append(self._by_sender.get(sender_id, []))
        if contract is not None and method is not None:
            method_id = self.methods.lookup(f"{contract}.{method}")
            if method_id is None:
                return []
            views.append(self._by_method.get(method_id, []))
        elif contract is not None:
            contract_id = self.contracts.lookup(contract)
            if contract_id is None:
                return []
            views.append(self._by_contract.get(contract_id, []))
        ordinals = min(views, key=len) if views else range(len(self._tx_ids))
        senders, contracts, methods = self._senders, self._contracts, self._methods
        method_names = self._method_names
        # ``method`` without ``contract`` has no dedicated view: compare
        # the method name per candidate.
        name = method if method_id is None else None
        out: list[int] = []
        for ordinal in reversed(ordinals):
            if sender_id is not None and senders[ordinal] != sender_id:
                continue
            if method_id is not None and methods[ordinal] != method_id:
                continue
            if contract_id is not None and contracts[ordinal] != contract_id:
                continue
            if name is not None and method_names[methods[ordinal]] != name:
                continue
            out.append(ordinal)
            if len(out) >= limit:
                break
        return out

    def find_transactions(
        self,
        contract: str | None = None,
        method: str | None = None,
        sender: str | None = None,
        limit: int = 50,
    ) -> list[TxView]:
        """Filtered search, newest first, as :class:`TxView` rows."""
        return [self._view(ordinal) for ordinal in self._matches(contract, method, sender, limit)]

    def find_rows(
        self,
        contract: str | None = None,
        method: str | None = None,
        sender: str | None = None,
        limit: int = 50,
    ) -> list[dict[str, Any]]:
        """The same search as :meth:`find_transactions`, each row built
        once, straight from the columns, as the explorer's dict."""
        tx_ids, heights, valid = self._tx_ids, self._heights, self._valid
        senders, contracts, methods = self._senders, self._contracts, self._methods
        sender_names, contract_names = self.addresses._values, self.contracts._values
        method_names = self._method_names
        return [
            {
                "tx_id": tx_ids[ordinal],
                "block_height": heights[ordinal],
                "contract": contract_names[contracts[ordinal]],
                "method": method_names[methods[ordinal]],
                "sender": sender_names[senders[ordinal]],
                "valid": valid[ordinal],
            }
            for ordinal in self._matches(contract, method, sender, limit)
        ]

    def contract_counts(self) -> dict[str, int]:
        """Per-contract committed-tx counts, name-sorted (summary view)."""
        counts = {
            self.contracts.value(contract_id): len(ordinals)
            for contract_id, ordinals in self._by_contract.items()
        }
        return dict(sorted(counts.items()))

    # -- integrity ---------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "height": self.height,
            "transactions": len(self._tx_ids),
            "valid_transactions": self._n_valid,
            "addresses": len(self.addresses),
            "contracts": len(self.contracts),
            "methods": len(self.methods),
        }

    def verify_against(self, ledger: "Ledger") -> list[str]:
        """Cross-check the index against a full ledger scan.

        Returns a list of human-readable discrepancies (empty = clean).
        This is the "scan as fallback oracle" contract made executable —
        cheap enough to run in tests and the explorer CLI, loud when an
        incremental update ever drifts from the chain.  Besides the rows
        and counts it re-derives, from the scan, the position each id
        names under the never-downgrade rule: that binding answers every
        receipt and every lookup by id.
        """
        problems: list[str] = []
        if ledger.height != self.height:
            problems.append(
                f"index height {self.height} != ledger height {ledger.height}"
            )
        scanned_total = 0
        scanned_valid = 0
        scanned_contracts: dict[str, int] = {}
        named: dict[str, int] = {}  # tx id -> the scan ordinal it names
        scanned_flags: list[bool] = []
        for ordinal, committed in enumerate(ledger.transactions(valid_only=False)):
            scanned_total += 1
            if committed.valid:
                scanned_valid += 1
            tx = committed.transaction
            scanned_contracts[tx.contract] = scanned_contracts.get(tx.contract, 0) + 1
            held = named.get(tx.tx_id)
            if committed.valid or held is None or not scanned_flags[held]:
                named[tx.tx_id] = ordinal
            scanned_flags.append(committed.valid)
            if ordinal >= len(self._tx_ids):
                problems.append(f"tx {tx.tx_id[:12]} missing from index")
                continue
            # Row by row, not by id: a tx id can sit at two positions.
            if (
                self._tx_ids[ordinal], self._heights[ordinal],
                self._indexes[ordinal], self._valid[ordinal],
            ) != (tx.tx_id, committed.block_height, committed.tx_index, committed.valid):
                problems.append(f"tx {tx.tx_id[:12]} indexed at wrong position")
        if scanned_total != len(self._tx_ids):
            problems.append(
                f"index holds {len(self._tx_ids)} txs, scan found {scanned_total}"
            )
        if scanned_valid != self._n_valid:
            problems.append(
                f"index counts {self._n_valid} valid txs, scan found {scanned_valid}"
            )
        if dict(sorted(scanned_contracts.items())) != self.contract_counts():
            problems.append("per-contract counts diverge from scan")
        # Rows were compared above, so an id naming the right ordinal names
        # the right position; equal maps also have equal distinct-id counts.
        if named != self._ordinal_by_tx:
            wrong = sorted({tx_id for tx_id, _ in named.items() ^ self._ordinal_by_tx.items()})
            problems.append(f"{len(wrong)} tx id(s) name the wrong position, first {wrong[0][:12]}")
        return problems

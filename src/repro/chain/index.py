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
  (events are not indexed here: :meth:`Ledger.events
  <repro.chain.ledger.Ledger.events>` is the one events-by-kind view);
- **incremental feed** — the owning peer calls :meth:`on_commit` with
  exactly the ``(block, validity)`` pair it hands its
  :class:`~repro.chain.store.BlockStore`, so the index is never ahead of
  or behind durability by more than the current call;
- **full rebuild** — :meth:`reindex` reconstructs everything from a
  ledger (the recovery/migration path: after ``Peer.restart`` the
  recovered ledger is re-walked, archive window included).

The ledger scan stays available as the cross-checked fallback: every
view answers *identically* to the equivalent scan (asserted by the
scan-vs-index equivalence tests and ``benchmarks/bench_explorer.py``),
and :meth:`verify_against` re-derives the counts from a ledger so an
index that ever drifted is loud, not subtly wrong.
"""

from __future__ import annotations

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

        Called by the owning peer with the same arguments it hands its
        block store, immediately after ``Ledger.append`` accepted the
        block — so a block the ledger rejected never pollutes the index.
        """
        if block.height != self.height + 1:
            raise InvalidBlockError(
                f"index at height {self.height} cannot apply block {block.height}"
            )
        if len(validity) != len(block.transactions):
            raise InvalidBlockError("validity vector length mismatch")
        for tx_index, tx in enumerate(block.transactions):
            ordinal = len(self._tx_ids)
            sender_id = self.addresses.intern(tx.sender)
            contract_id = self.contracts.intern(tx.contract)
            method_id = self.methods.intern(f"{tx.contract}.{tx.method}")
            valid = validity[tx_index]
            self._tx_ids.append(tx.tx_id)
            self._heights.append(block.height)
            self._indexes.append(tx_index)
            self._senders.append(sender_id)
            self._contracts.append(contract_id)
            self._methods.append(method_id)
            self._valid.append(valid)
            # Never downgrade, as Ledger.append: an id keeps naming its
            # valid copy when a later copy fails (no held copy: itself).
            if valid or not self._valid[self._ordinal_by_tx.get(tx.tx_id, ordinal)]:
                self._ordinal_by_tx[tx.tx_id] = ordinal
            self._by_sender.setdefault(sender_id, []).append(ordinal)
            self._by_contract.setdefault(contract_id, []).append(ordinal)
            self._by_method.setdefault(method_id, []).append(ordinal)
            if valid:
                self._n_valid += 1
        self.height = block.height

    def reindex(self, ledger: "Ledger") -> int:
        """Full rebuild from *ledger* (recovery / migration path).

        Walks every block — including a recovered ledger's archive window,
        which decodes log records on demand — so this is O(chain); it runs
        at restart, not on the query path.  Returns the indexed height.
        """
        self.__init__()
        for height in range(1, ledger.height + 1):
            self.on_commit(ledger.block(height), ledger.block_validity(height))
        return self.height

    # -- views -------------------------------------------------------------

    def __len__(self) -> int:
        """Total indexed transactions (valid and invalid)."""
        return len(self._tx_ids)

    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self._ordinal_by_tx

    @property
    def valid_transactions(self) -> int:
        return self._n_valid

    def get(self, tx_id: str) -> TxView | None:
        """tx-by-id: the indexed row, or ``None`` if unknown."""
        ordinal = self._ordinal_by_tx.get(tx_id)
        if ordinal is None:
            return None
        return self._view(ordinal)

    def _view(self, ordinal: int) -> TxView:
        return TxView(
            tx_id=self._tx_ids[ordinal],
            block_height=self._heights[ordinal],
            tx_index=self._indexes[ordinal],
            sender=self.addresses.value(self._senders[ordinal]),
            contract=self.contracts.value(self._contracts[ordinal]),
            method=self.methods.value(self._methods[ordinal]).split(".", 1)[1],
            valid=self._valid[ordinal],
        )

    def _candidate_ordinals(
        self,
        contract: str | None = None,
        method: str | None = None,
        sender: str | None = None,
    ) -> list[int] | None:
        """The smallest view covering the filters (chain order), or
        ``None`` for "no filter: every ordinal"."""
        candidates: list[list[int]] = []
        if sender is not None:
            sender_id = self.addresses.lookup(sender)
            if sender_id is None:
                return []
            candidates.append(self._by_sender.get(sender_id, []))
        if contract is not None and method is not None:
            method_id = self.methods.lookup(f"{contract}.{method}")
            if method_id is None:
                return []
            candidates.append(self._by_method.get(method_id, []))
        elif contract is not None:
            contract_id = self.contracts.lookup(contract)
            if contract_id is None:
                return []
            candidates.append(self._by_contract.get(contract_id, []))
        if not candidates:
            return None
        return min(candidates, key=len)

    def find_transactions(
        self,
        contract: str | None = None,
        method: str | None = None,
        sender: str | None = None,
        limit: int = 50,
    ) -> list[TxView]:
        """Filtered search, newest first (height desc, index desc).

        Picks the most selective view for the given filters, walks it
        backwards, post-filters the remaining predicates on interned ids
        (no block or transaction objects are touched), and stops at
        *limit* — O(view tail + k), not O(chain).
        """
        ordinals = self._candidate_ordinals(contract, method, sender)
        if ordinals is None:
            ordinals = range(len(self._tx_ids))
        sender_id = self.addresses.lookup(sender) if sender is not None else None
        contract_id = self.contracts.lookup(contract) if contract is not None else None
        method_id = (
            self.methods.lookup(f"{contract}.{method}")
            if contract is not None and method is not None
            else None
        )
        # ``method`` without ``contract`` has no dedicated view: fall back
        # to comparing the resolved method-name suffix per candidate.
        out: list[TxView] = []
        for ordinal in reversed(ordinals):
            if sender_id is not None and self._senders[ordinal] != sender_id:
                continue
            if method_id is not None:
                if self._methods[ordinal] != method_id:
                    continue
            else:
                if contract_id is not None and self._contracts[ordinal] != contract_id:
                    continue
                if method is not None and not self.methods.value(
                    self._methods[ordinal]
                ).endswith(f".{method}"):
                    continue
            out.append(self._view(ordinal))
            if len(out) >= limit:
                break
        return out

    def transactions_by_sender(self, sender: str) -> list[str]:
        """All of *sender*'s tx ids, chain order."""
        sender_id = self.addresses.lookup(sender)
        if sender_id is None:
            return []
        return [self._tx_ids[o] for o in self._by_sender.get(sender_id, [])]

    def transactions_by_contract(self, contract: str) -> list[str]:
        contract_id = self.contracts.lookup(contract)
        if contract_id is None:
            return []
        return [self._tx_ids[o] for o in self._by_contract.get(contract_id, [])]

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
        incremental update ever drifts from the chain.
        """
        problems: list[str] = []
        if ledger.height != self.height:
            problems.append(
                f"index height {self.height} != ledger height {ledger.height}"
            )
        scanned_total = 0
        scanned_valid = 0
        scanned_contracts: dict[str, int] = {}
        for ordinal, committed in enumerate(ledger.transactions(valid_only=False)):
            scanned_total += 1
            if committed.valid:
                scanned_valid += 1
            tx = committed.transaction
            scanned_contracts[tx.contract] = scanned_contracts.get(tx.contract, 0) + 1
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
        return problems

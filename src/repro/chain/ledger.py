"""The append-only ledger: the chain of blocks, a lookup by tx id, and
the events-by-kind view.

Beyond storage, the ledger is the platform's *audit substrate*: the
supply-chain graph (§VI), expert mining, and accountability experiments
all reconstruct history from the events of committed transactions, and
:meth:`Ledger.events` is the one answer to that read.  It is served from
``(height, tx index, event index)`` position lists — all events, and by
kind — which the ledger extends over the blocks appended since the
previous read; :meth:`Ledger.append` does no event work, so a peer that
is never asked pays nothing.
The ledger records each position's commit verdict and error string once,
as committed, and indexes by transaction id only; a
:class:`~repro.chain.transaction.TxReceipt` is read from that record
(:meth:`Ledger.receipt`, :attr:`Ledger.receipts`), never stored beside
it.  The by-sender / by-contract / by-method views live in
:class:`~repro.chain.index.ChainIndex`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.chain.block import Block, make_genesis_block
from repro.chain.transaction import Transaction, TxReceipt
from repro.errors import InvalidBlockError

__all__ = ["Ledger", "CommittedTx", "Entry"]

#: One height as the ledger holds it: the block, its verdict vector, and
#: the error string of each position (``None`` where the verdict is valid).
Entry = tuple[Block, list[bool], list[str | None]]

#: Where one event sits on the chain: ``(height, tx index, event index)``.
Position = tuple[int, int, int]

#: Archived blocks decoded on demand are cached up to this many entries
#: (LRU) so repeated explorer/audit reads don't re-decode every time.
_ARCHIVE_CACHE_SIZE = 128


@dataclass(frozen=True)
class CommittedTx:
    """A transaction in its final resting place, with commit verdict."""

    transaction: Transaction
    block_height: int
    tx_index: int
    valid: bool  # False => failed MVCC validation, recorded but not applied


class _Receipts(Mapping):
    """Read-only ``tx id -> TxReceipt`` view of a ledger; every receipt is
    built from the ledger's own record when it is asked for."""

    def __init__(self, ledger: "Ledger"):
        self._ledger = ledger

    def __getitem__(self, tx_id: str) -> TxReceipt:
        receipt = self._ledger.receipt(tx_id)
        if receipt is None:
            raise KeyError(tx_id)
        return receipt

    def __contains__(self, tx_id: object) -> bool:
        return tx_id in self._ledger

    def __iter__(self) -> Iterator[str]:
        return iter(self._ledger._tx_locator)

    def __len__(self) -> int:
        return self._ledger.total_transactions()


class Ledger:
    """One peer's copy of the chain.

    A ledger normally holds every block in memory (``_base == 0``).  A
    ledger rebuilt by the durable store's snapshot recovery holds only
    the blocks *above* the snapshot; heights below come from an
    ``archive`` callable (decoding the block log on demand) behind a
    bounded LRU cache — see :meth:`from_recovery`.

    Verdicts and error strings are kept per position (one vector each per
    block): a transaction id can occur twice on a chain (a duplicate copy
    forced into a later block fails MVCC there), and the two copies have
    different verdicts.  ``_tx_locator`` answers lookups by id — and so
    does everything read through it: :meth:`get_transaction`,
    :meth:`receipt`, ``explorer.describe_transaction`` — and names the
    latest copy, except that a valid copy is never given up for a failed
    one (*never downgrade*, see :meth:`append`).
    """

    def __init__(self, genesis: Block | None = None):
        self._blocks: list[Block] = [genesis or make_genesis_block()]
        #: The verdict and error vectors of each block in ``_blocks``
        #: (parallel lists).
        self._verdicts: list[list[bool]] = [[]]
        self._errors: list[list[str | None]] = [[]]
        #: Height of ``self._blocks[0]``; anything below is archived.
        self._base = 0
        self._archive: Callable[[int], Entry] | None = None
        self._archive_cache: OrderedDict[int, Entry] = OrderedDict()
        self._tx_locator: dict[str, tuple[int, int]] = {}
        #: The events view (:meth:`events`): positions of the events of
        #: valid transactions at heights ``<= _events_through``, in chain
        #: order — all of them, and per ``kind``.
        self._events_through = 0
        self._event_positions: list[Position] = []
        self._event_positions_by_kind: dict[Any, list[Position]] = {}

    @classmethod
    def from_recovery(
        cls,
        window: list[Entry],
        base: int,
        indexes: dict[str, Any],
        archive: Callable[[int], Entry] | None = None,
    ) -> "Ledger":
        """Rebuild a ledger from a recovery snapshot.

        *window* is the in-memory ``(block, verdicts, errors)`` window
        starting at height *base* (the snapshot anchor); *indexes* is a
        :meth:`index_dump` mapping covering heights ``<= base`` (keys
        other than ``tx_locator``, which older snapshots carry, are
        ignored); *archive* serves the same triple for heights below
        *base* on demand.
        """
        ledger = cls.__new__(cls)
        ledger._blocks = [block for block, _, _ in window]
        ledger._verdicts = [list(verdicts) for _, verdicts, _ in window]
        ledger._errors = [list(errors) for _, _, errors in window]
        ledger._base = base
        ledger._archive = archive
        ledger._archive_cache = OrderedDict()
        ledger._tx_locator = {
            tx_id: (loc[0], loc[1]) for tx_id, loc in indexes.get("tx_locator", {}).items()
        }
        # The events view starts empty; the first read extends it through
        # the archive window.
        ledger._events_through = 0
        ledger._event_positions = []
        ledger._event_positions_by_kind = {}
        return ledger

    # -- growth ------------------------------------------------------------

    def check_extends(self, block: Block) -> None:
        """Raise :class:`InvalidBlockError` unless *block* is internally
        consistent and links onto the current head.  Mutates nothing, so
        the commit path runs it before touching state."""
        head = self.head
        if block.height != head.height + 1:
            raise InvalidBlockError(
                f"block height {block.height} does not extend head {head.height}"
            )
        if block.prev_hash != head.block_hash:
            raise InvalidBlockError(f"block {block.height} prev_hash mismatch")
        block.verify_structure()

    def append(
        self, block: Block, validity: list[bool], errors: list[str | None] | None = None
    ) -> None:
        """Append a block whose per-tx verdicts are *validity* and whose
        per-tx error strings are *errors* (default: none recorded).

        This is the one place a transaction id is bound to a position, so
        the *never-downgrade* rule lives here: the id is rebound to the
        new copy unless the copy it already names is valid and the new one
        is not — a duplicate of a committed-valid transaction that lands
        in a later block and fails MVCC there must not become what the id
        means.

        Atomic: every check — and every read of the block's transactions
        or of the copies already held — happens before the first mutation,
        so an exception (bad linkage, a hostile transaction object raising
        mid-indexing) leaves the ledger exactly as it was.  The seed
        version appended the block *before* building the indexes; a
        failure there left a committed block invisible to ``tx_locator``
        lookups.
        """
        self.check_extends(block)
        if errors is None:
            errors = [None] * len(validity)
        if not len(validity) == len(errors) == len(block.transactions):
            raise InvalidBlockError("validity vector length mismatch")
        rebound: dict[str, tuple[int, int]] = {}

        def names_valid_copy(tx_id: str) -> bool:
            if tx_id in rebound:  # an earlier position of this very block
                return validity[rebound[tx_id][1]]
            held = self._tx_locator.get(tx_id)
            return held is not None and self._entry(held[0])[1][held[1]]

        for index, tx in enumerate(block.transactions):
            if validity[index] or not names_valid_copy(tx.tx_id):
                rebound[tx.tx_id] = (block.height, index)
        self._blocks.append(block)
        self._verdicts.append(list(validity))
        self._errors.append(list(errors))
        self._tx_locator.update(rebound)

    # -- access ------------------------------------------------------------

    @property
    def head(self) -> Block:
        return self._blocks[-1]

    @property
    def height(self) -> int:
        return self.head.height

    def _entry(self, height: int) -> Entry:
        """The block at *height* and the verdict and error vectors it
        committed with."""
        if height < 0 or height >= self._base:
            offset = height - self._base if height >= 0 else height
            return self._blocks[offset], self._verdicts[offset], self._errors[offset]
        cached = self._archive_cache.get(height)
        if cached is not None:
            self._archive_cache.move_to_end(height)
            return cached
        if self._archive is None:
            raise InvalidBlockError(f"height {height} is below the recovered window")
        entry = self._archive(height)
        self._archive_cache[height] = entry
        if len(self._archive_cache) > _ARCHIVE_CACHE_SIZE:
            self._archive_cache.popitem(last=False)
        return entry

    def block(self, height: int) -> Block:
        return self._entry(height)[0]

    def blocks(self) -> Iterator[Block]:
        for height in range(self.height + 1):
            yield self.block(height)

    def __len__(self) -> int:
        """Number of blocks, including genesis."""
        return self.height + 1

    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self._tx_locator

    def get_transaction(self, tx_id: str) -> CommittedTx | None:
        locator = self._tx_locator.get(tx_id)
        if locator is None:
            return None
        height, index = locator
        block, verdicts, _ = self._entry(height)
        return CommittedTx(block.transactions[index], height, index, verdicts[index])

    def receipt_at(self, height: int, index: int) -> TxReceipt:
        """The receipt of the transaction at one chain position."""
        block, verdicts, errors = self._entry(height)
        tx, valid = block.transactions[index], verdicts[index]
        return TxReceipt(
            tx_id=tx.tx_id,
            block_height=height,
            success=valid,
            return_value=tx.return_value if valid else None,
            events=tx.events if valid else (),
            error=errors[index],
        )

    def receipt(self, tx_id: str) -> TxReceipt | None:
        """The receipt of the copy *tx_id* names (``None`` if unknown)."""
        locator = self._tx_locator.get(tx_id)
        return None if locator is None else self.receipt_at(*locator)

    @property
    def receipts(self) -> Mapping[str, TxReceipt]:
        """Every committed id's receipt, as a read-only view."""
        return _Receipts(self)

    def transactions(self, valid_only: bool = True) -> Iterator[CommittedTx]:
        """All committed transactions, in chain order."""
        for height in range(self.height + 1):
            block, verdicts, _ = self._entry(height)
            for index, tx in enumerate(block.transactions):
                valid = verdicts[index]
                if valid or not valid_only:
                    yield CommittedTx(tx, height, index, valid)

    def transactions_newest_first(self, valid_only: bool = False) -> Iterator[CommittedTx]:
        """Committed transactions in reverse chain order (height desc,
        index-in-block desc), lazily block by block.

        This is the explorer's walk: a consumer that stops after *k*
        results touches at most the blocks holding those results, instead
        of materializing the whole chain the way
        ``reversed(list(self.transactions(...)))`` would.
        """
        for height in range(self.height, 0, -1):
            block, verdicts, _ = self._entry(height)
            for index in range(len(block.transactions) - 1, -1, -1):
                tx = block.transactions[index]
                valid = verdicts[index]
                if valid or not valid_only:
                    yield CommittedTx(tx, height, index, valid)

    def block_validity(self, height: int) -> list[bool]:
        """The per-transaction validity vector for the block at *height*
        (the same vector :meth:`append` recorded for it)."""
        return list(self._entry(height)[1])

    def events(
        self, contract: str | None = None, kind: str | None = None, above: int = 0
    ) -> Iterator[dict[str, Any]]:
        """All events emitted by valid transactions, in chain order,
        optionally filtered, from the blocks at heights ``> above``.

        Each yielded event dict is a copy augmented with ``_tx_id``,
        ``_sender`` and ``_height`` so consumers can attribute it.  The
        read first extends the position lists over the blocks appended
        since the previous read (O(new blocks)), then resolves the
        positions of the asked kind — O(matching events), not O(chain).
        *above* is where a reader that has consumed the chain through
        that height resumes: the position lists are sorted, so the
        resume point is a bisection and what lies below costs nothing.
        """
        for height in range(self._events_through + 1, self.height + 1):
            block, verdicts, _ = self._entry(height)
            for index, tx in enumerate(block.transactions):
                if not verdicts[index]:
                    continue
                for event_index, event in enumerate(tx.events):
                    position = (height, index, event_index)
                    self._event_positions.append(position)
                    self._event_positions_by_kind.setdefault(event.get("kind"), []).append(position)
            self._events_through = height
        positions = self._event_positions if kind is None else self._event_positions_by_kind.get(kind, ())
        for height, index, event_index in positions[bisect_left(positions, (above + 1,)):]:
            tx = self._entry(height)[0].transactions[index]
            if contract is None or tx.contract == contract:
                enriched = dict(tx.events[event_index])
                enriched["_tx_id"] = tx.tx_id
                enriched["_sender"] = tx.sender
                enriched["_height"] = height
                yield enriched

    def total_transactions(self) -> int:
        return len(self._tx_locator)

    def verify_chain(self) -> bool:
        """Full-chain audit: hashes link and every block is internally
        consistent.  Returns True on success, raises on tampering."""
        prev = self.block(0)
        for height in range(1, self.height + 1):
            current = self.block(height)
            current.verify_structure()
            if current.prev_hash != prev.block_hash:
                raise InvalidBlockError(f"chain broken at height {current.height}")
            prev = current
        return True

    def index_dump(self) -> dict[str, Any]:
        """JSON-ready copy of the tx-id lookup, for snapshots."""
        return {"tx_locator": {k: list(v) for k, v in self._tx_locator.items()}}

    def replay_state(self):
        """Rebuild the world state by replaying valid write sets in order.

        This is how a light node bootstraps (or how an auditor checks a
        peer): the committed chain fully determines the state, so the
        replayed :class:`~repro.chain.state.WorldState` must produce the
        same ``state_digest()`` as any honest peer at this height.
        """
        from repro.chain.state import WorldState

        state = WorldState()
        for committed in self.transactions(valid_only=True):
            state.apply_write_set(committed.transaction.write_set)
        return state

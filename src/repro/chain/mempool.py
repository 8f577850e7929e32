"""Pending-transaction pool feeding the ordering service.

FIFO with dedup by transaction id.  The pool also enforces a capacity so
scalability experiments can observe back-pressure instead of unbounded
memory growth.  The members of a group
(:func:`~repro.chain.transaction.create_group`) are one entry: admitted
together or not at all, and never split across two batches.

Transactions removed by :meth:`Mempool.take` stay *reserved* until they
either commit (``remove``) or are explicitly returned (``requeue`` /
``release``).  Without the reservation, a gossip echo of a transaction
already taken into an in-flight proposal re-enters the pool and — under
pipelined consensus, where several proposals are open at once — gets
taken again into a second block at a different height: a double-commit
hazard that cannot occur with one block in flight but is routine at
pipeline depth > 1.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Iterable

from repro.chain.transaction import Transaction, group_run
from repro.errors import ChainError

__all__ = ["Mempool"]


class Mempool:
    """Ordered set of transactions awaiting inclusion in a block."""

    def __init__(self, capacity: int = 100_000):
        self._pending: OrderedDict[str, Transaction] = OrderedDict()
        #: Tx ids handed out by ``take`` whose fate (commit / requeue) is
        #: still open; membership and admission treat them as present.
        self._reserved: set[str] = set()
        self.capacity = capacity
        self.rejected_full = 0
        self.rejected_duplicate = 0

    def add(self, tx: Transaction, *siblings: Transaction) -> bool:
        """Admit a transaction — or, as one entry, the members of a group
        in order; False (nothing admitted) if any is a duplicate or the
        pool has no room for all of them.

        A transaction currently reserved by an in-flight proposal is a
        duplicate — re-admitting it would let it be proposed twice.
        """
        entry = (tx, *siblings)
        if any(t.tx_id in self for t in entry):
            self.rejected_duplicate += 1
            return False
        if len(self._pending) + len(entry) > self.capacity:
            self.rejected_full += 1
            return False
        for member in entry:
            self._pending[member.tx_id] = member
        return True

    def take(self, max_count: int) -> list[Transaction]:
        """Remove and return up to *max_count* transactions, FIFO.

        Taken transactions stay reserved until ``remove`` (committed) or
        ``requeue``/``release`` (proposal died) settles them.  A group is
        one entry: when its members do not all fit in what is left of
        *max_count* the batch ends before it, and it leads the next one.
        """
        if max_count <= 0:
            raise ChainError("max_count must be positive")
        batch: list[Transaction] = []
        while self._pending and len(batch) < max_count:
            head = next(iter(self._pending.values()))
            entry = 1
            if head.group is not None:
                # Members were admitted together and so sit side by side;
                # what a stray commit left of a group goes out one by one.
                size = head.group[2]
                if group_run(list(islice(self._pending.values(), size)), 0) is not None:
                    if len(batch) + size > max_count:
                        break
                    entry = size
            for _ in range(entry):
                tx_id, tx = self._pending.popitem(last=False)
                self._reserved.add(tx_id)
                batch.append(tx)
        return batch

    def requeue(self, txs: Iterable[Transaction]) -> None:
        """Return previously taken transactions to the FRONT of the pool.

        Used when a proposal dies (view change, superseded height): the
        transactions were admitted once and must not be silently dropped,
        so capacity is NOT enforced here — durability outranks the
        back-pressure bound.  Front placement preserves rough FIFO order
        (they were the oldest pending work).
        """
        for tx in reversed(list(txs)):
            self._reserved.discard(tx.tx_id)
            if tx.tx_id in self._pending:
                continue
            self._pending[tx.tx_id] = tx
            self._pending.move_to_end(tx.tx_id, last=False)

    def release(self, tx_ids: Iterable[str]) -> None:
        """Drop reservations without re-admitting (e.g. txs that turned
        out to be committed elsewhere)."""
        for tx_id in tx_ids:
            self._reserved.discard(tx_id)

    def snapshot(self) -> list[Transaction]:
        """The pending transactions, in FIFO order, without removing them."""
        return list(self._pending.values())

    def remove(self, tx_ids: Iterable[str]) -> None:
        """Drop transactions that were committed via someone else's block.

        Accepts any iterable (consensus callers pass generators), and
        consumes it exactly once.  Also settles any open reservation for
        the id — committed is a final state.
        """
        for tx_id in tx_ids:
            self._pending.pop(tx_id, None)
            self._reserved.discard(tx_id)

    def __len__(self) -> int:
        return len(self._pending)

    def __contains__(self, tx_id: str) -> bool:
        """True for pending *or* reserved ids: both mean "this pool has
        already accepted this transaction" for admission purposes."""
        return tx_id in self._pending or tx_id in self._reserved

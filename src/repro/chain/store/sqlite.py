"""``SQLiteStore``: the name ``storage="sqlite"`` still builds.

It is :class:`DurableStore` unchanged — the same write-ahead block log,
the same snapshot files and the same recovery ladder — plus the two
queries the end-to-end harness calls on a store.  Both answer from the
transaction index of the ledger the store serves (``ChainIndex``), the
one place a committed transaction is looked up; nothing here keeps a
copy of it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.chain.store.durable import DurableStore
from repro.errors import ChainError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chain.index import ChainIndex
    from repro.chain.ledger import Ledger

__all__ = ["SQLiteStore"]


class SQLiteStore(DurableStore):
    """A :class:`DurableStore` that answers the harness's store queries
    from the served ledger's index.

    The class exists only because the end-to-end benchmark harness
    (``benchmarks/e2e/``) builds ``storage="sqlite"`` networks and calls
    :meth:`query_transactions` and :meth:`sql_stats` on their stores; it
    goes when the harness switches to ``"durable"`` (ROADMAP 5 (h)).
    """

    _ledger: "Callable[[], Ledger] | None" = None

    def serve(self, ledger: "Callable[[], Ledger]") -> None:
        """Answer from ``ledger()``'s index: a callable, because a restart
        replaces the peer's ledger."""
        self._ledger = ledger

    def _index(self) -> "ChainIndex":
        if self._ledger is None:
            raise ChainError("this store serves no ledger")
        return self._ledger().index

    def query_transactions(
        self,
        contract: str | None = None,
        method: str | None = None,
        sender: str | None = None,
        limit: int = 50,
    ) -> list[dict[str, Any]]:
        """``explorer.find_transactions`` over the served ledger's index:
        the same rows, newest first, every committed occurrence of an id."""
        return self._index().find_rows(contract=contract, method=method, sender=sender,
                                       limit=limit)

    def sql_stats(self) -> dict[str, int]:
        """Row counts: transactions (every committed occurrence), and the
        distinct addresses, contracts and ``contract.method`` pairs."""
        stats = self._index().stats()
        return {
            "txs": stats["transactions"],
            "addresses": stats["addresses"],
            "contracts": stats["contracts"],
            "methods": stats["methods"],
        }

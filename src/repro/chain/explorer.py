"""Chain explorer: human-readable views over blocks and transactions.

The inspection surface a block-explorer UI would sit on: summaries of
the chain head, any block, any transaction, and the event stream — all
plain dicts/strings so they serialize straight into a JSON API or a
terminal table.

Every query function takes an optional ``index``
(:class:`repro.chain.index.ChainIndex`).  When one is supplied and
covers the ledger's height, answers come from its materialized views in
O(log n + k)-class time; otherwise the functions fall back to the
ledger scan.  The two paths are answer-identical by contract — the
scan-vs-index equivalence tests and ``benchmarks/bench_explorer.py``
assert it on randomized chains — so the scan stays available as the
cross-check oracle, not as a second source of truth.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.chain.block import Block
from repro.chain.ledger import Ledger
from repro.chain.state import _isolate
from repro.chain.transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chain.index import ChainIndex

__all__ = ["chain_summary", "describe_block", "describe_transaction", "find_transactions"]


def _index_covers(index: "ChainIndex | None", ledger: Ledger) -> bool:
    """An index only answers for the exact height it has seen."""
    return index is not None and index.height == ledger.height


def chain_summary(ledger: Ledger, index: "ChainIndex | None" = None) -> dict[str, Any]:
    """Head-of-chain overview."""
    head = ledger.head
    if _index_covers(index, ledger):
        total = len(index)
        valid = index.valid_transactions
        contracts = index.contract_counts()
    else:
        # Single scan computing the valid count and the per-contract
        # histogram together (the seed walked the whole chain twice).
        total = 0
        valid = 0
        contracts = {}
        for committed in ledger.transactions(valid_only=False):
            total += 1
            if committed.valid:
                valid += 1
            name = committed.transaction.contract
            contracts[name] = contracts.get(name, 0) + 1
        contracts = dict(sorted(contracts.items()))
    return {
        "height": ledger.height,
        "head_hash": head.block_hash,
        "head_timestamp": head.timestamp,
        "blocks": len(ledger),
        "transactions": total,
        "valid_transactions": valid,
        "invalid_transactions": total - valid,
        "transactions_by_contract": contracts,
    }


def describe_block(block: Block) -> dict[str, Any]:
    """One block's header plus transaction digest lines."""
    return {
        "height": block.height,
        "hash": block.block_hash,
        "prev_hash": block.prev_hash,
        "merkle_root": block.merkle_root,
        "timestamp": block.timestamp,
        "proposer": block.proposer,
        "tx_count": len(block),
        "transactions": [
            f"{tx.tx_id[:12]} {tx.contract}.{tx.method} from {tx.sender[:14]}"
            for tx in block.transactions
        ],
    }


def describe_transaction(ledger: Ledger, tx_id: str) -> dict[str, Any] | None:
    """Full commitment record for one transaction (None if unknown); its
    ``args`` and ``return_value`` are copies, not the committed objects."""
    committed = ledger.get_transaction(tx_id)
    if committed is None:
        return None
    tx: Transaction = committed.transaction
    return {
        "tx_id": tx.tx_id,
        "block_height": committed.block_height,
        "index_in_block": committed.tx_index,
        "valid": committed.valid,
        "sender": tx.sender,
        "contract": tx.contract,
        "method": tx.method,
        "args": _isolate(tx.args),
        "timestamp": tx.timestamp,
        "reads": len(tx.read_set),
        "writes": len(tx.write_set),
        "events": [event.get("kind") for event in tx.events],
        "endorsements": [e.peer_id for e in tx.endorsements],
        "return_value": _isolate(tx.return_value),
    }


def find_transactions(
    ledger: Ledger,
    contract: str | None = None,
    method: str | None = None,
    sender: str | None = None,
    limit: int = 50,
    index: "ChainIndex | None" = None,
) -> list[dict[str, Any]]:
    """Filtered transaction search, newest first.

    With an up-to-date *index* this never touches a block: the interned
    views answer and each row is built once from the index's columns
    (:meth:`ChainIndex.find_rows <repro.chain.index.ChainIndex.find_rows>`).
    The scan fallback walks blocks newest-first and stops at *limit*.
    Both list every committed occurrence of a transaction id, so an id
    committed twice gives two rows.
    """
    if _index_covers(index, ledger):
        return index.find_rows(contract=contract, method=method, sender=sender, limit=limit)
    if limit <= 0:
        return []
    matches = []
    for committed in ledger.transactions_newest_first(valid_only=False):
        tx = committed.transaction
        if contract is not None and tx.contract != contract:
            continue
        if method is not None and tx.method != method:
            continue
        if sender is not None and tx.sender != sender:
            continue
        matches.append(
            {
                "tx_id": tx.tx_id,
                "block_height": committed.block_height,
                "contract": tx.contract,
                "method": tx.method,
                "sender": tx.sender,
                "valid": committed.valid,
            }
        )
        if len(matches) >= limit:
            break
    return matches

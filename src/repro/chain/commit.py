"""The commit path: the one place a block becomes state, ledger record and index rows.

Fabric's *validate* phase, once.  Every transaction of a block is judged
— live: (1) client signature / structure, (2) endorsement policy,
(3) MVCC read-set freshness against the state the earlier transactions of
the same block left behind; on replay: the verdict recorded when the
block was first committed — its write set is applied if it is valid, and
finally the block goes, with its verdicts and error strings, to
``Ledger.append`` and ``ChainIndex.on_commit``.  Receipts are not built
here: a :class:`~repro.chain.transaction.TxReceipt` is a function of what
the ledger now records and is read from it (``Ledger.receipt``), and the
never-downgrade rule for an id committed twice lives where the id is
bound to a position (``Ledger.append``).

Callers add only what is theirs: :meth:`Peer.commit_block
<repro.chain.peer.Peer.commit_block>` (signature prewarm, metrics, trace
span, block store, mempool, listeners) and :meth:`LocalChain._commit
<repro.chain.local.LocalChain._commit>` commit live through
:func:`commit_block`; :class:`~repro.chain.store.durable.DurableStore`
recovery replays through :func:`replay_block` (an in-memory restart keeps
its ledger and only rebuilds state, ``Ledger.replay_state``).  All peers
therefore derive identical state, receipts and index rows from the same
block sequence, whichever way the blocks reached them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.chain.block import Block
from repro.chain.contracts.endorsement import EndorsementPolicy, check_endorsements
from repro.chain.index import ChainIndex
from repro.chain.ledger import Ledger
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.errors import EndorsementError, InvalidBlockError, InvalidTransactionError

__all__ = ["CommitResult", "Verdict", "commit_block", "replay_block"]


@dataclass(frozen=True)
class Verdict:
    """The commit-time judgement of one transaction."""

    valid: bool
    error: str | None = None
    #: The live check that failed: ``"signature"``, ``"endorsement"`` or
    #: ``"mvcc"``.  ``None`` for a valid transaction and on replay.
    failed_check: str | None = None


_VALID = Verdict(True)


@dataclass(frozen=True)
class CommitResult:
    """What committing one block decided, in block order."""

    verdicts: list[Verdict]
    valid_txs: list[Transaction]

    @property
    def validity(self) -> list[bool]:
        return [verdict.valid for verdict in self.verdicts]

    @property
    def errors(self) -> list[str | None]:
        return [verdict.error for verdict in self.verdicts]


def _judge(tx: Transaction, state: WorldState, policy: EndorsementPolicy) -> Verdict:
    try:
        tx.validate_structure()
    except InvalidTransactionError as exc:
        return Verdict(False, str(exc), "signature")
    try:
        check_endorsements(tx, policy)
    except EndorsementError as exc:
        return Verdict(False, str(exc), "endorsement")
    if not state.validate_read_set(tx.read_set):
        return Verdict(False, "MVCC conflict: stale read set", "mvcc")
    return _VALID


def _apply(
    block: Block,
    verdict_of: Callable[[int, Transaction], Verdict],
    ledger: Ledger,
    state: WorldState,
    index: ChainIndex | None,
) -> CommitResult:
    # Every check that can reject the block runs before the first
    # mutation: a block that does not extend this chain must leave state,
    # ledger and index exactly as they were.
    ledger.check_extends(block)
    if index is not None and index.height != ledger.height:
        raise InvalidBlockError(
            f"index at height {index.height} is not at ledger height {ledger.height}"
        )
    verdicts: list[Verdict] = []
    valid_txs: list[Transaction] = []
    for position, tx in enumerate(block.transactions):
        verdict = verdict_of(position, tx)
        verdicts.append(verdict)
        if verdict.valid:
            state.apply_write_set(tx.write_set)
            valid_txs.append(tx)
    result = CommitResult(verdicts=verdicts, valid_txs=valid_txs)
    validity = result.validity
    ledger.append(block, validity, result.errors)
    if index is not None:
        index.on_commit(block, validity)
    return result


def commit_block(
    block: Block,
    policy_for: Callable[[str], EndorsementPolicy],
    *,
    ledger: Ledger,
    state: WorldState,
    index: ChainIndex,
) -> CommitResult:
    """Judge and commit a freshly decided *block*.

    *policy_for* maps a contract name to its endorsement policy.  Raises
    :class:`~repro.errors.InvalidBlockError`, having changed nothing, if
    the block is malformed or does not extend *ledger*'s head.
    """
    return _apply(
        block,
        lambda _, tx: _judge(tx, state, policy_for(tx.contract)),
        ledger, state, index,
    )


def replay_block(
    block: Block,
    validity: list[bool],
    errors: list[str | None],
    *,
    ledger: Ledger,
    state: WorldState,
) -> CommitResult:
    """Re-commit *block* under the verdicts recorded at its first commit.

    Nothing is re-verified except the block's structure and linkage; the
    index is not fed (a restart reindexes the whole recovered chain).
    """
    if not len(validity) == len(errors) == len(block.transactions):
        raise InvalidBlockError("recorded verdicts do not match the block's transactions")
    return _apply(
        block,
        lambda position, _: Verdict(validity[position], errors[position]),
        ledger, state, None,
    )

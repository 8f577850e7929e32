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

What is judged is a *unit* (:func:`~repro.chain.transaction.group_run`):
an untagged transaction on its own, or the members of a group — a
complete run, consecutive and in order, that hashes to the root each of
them signed.  A unit gets one verdict from one ``_judge``, reached before
any of it is applied, so a group's members are all valid or all invalid
with the failing member named; a tagged transaction anywhere else is
invalid.

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
from repro.chain.transaction import Transaction, group_digest, group_run
from repro.errors import EndorsementError, InvalidBlockError, InvalidTransactionError

__all__ = ["CommitResult", "Verdict", "commit_block", "replay_block"]


@dataclass(frozen=True)
class Verdict:
    """The commit-time judgement of one transaction."""

    valid: bool
    error: str | None = None
    #: The live check that failed: ``"signature"``, ``"endorsement"``,
    #: ``"mvcc"`` or — a group member outside its complete group —
    #: ``"incomplete"``.  ``None`` for a valid transaction and on replay.
    failed_check: str | None = None


_VALID = Verdict(True)


@dataclass(frozen=True)
class CommitResult:
    """What committing one block decided, in block order."""

    verdicts: list[Verdict]
    valid_txs: list[Transaction]
    #: One entry per group the block held, in block order: the check it
    #: failed as a whole, ``None`` if it committed (empty on replay).
    group_outcomes: list[str | None]

    @property
    def validity(self) -> list[bool]:
        return [verdict.valid for verdict in self.verdicts]

    @property
    def errors(self) -> list[str | None]:
        return [verdict.error for verdict in self.verdicts]


def _judge(
    unit: tuple[Transaction, ...],
    state: WorldState,
    policy_for: Callable[[str], EndorsementPolicy],
) -> Verdict:
    """One verdict for a unit — a transaction on its own or a complete
    group — reached before any member is applied: every client signature,
    the one endorsement against every member's contract policy, and every
    read set — all of them reads of what lay outside the unit — against
    the state before its first member.  A tagged member's error names its
    group and its place; an untagged transaction's is the bare message."""
    tag = unit[0].group

    def failed(position: int, error: object, check: str) -> Verdict:
        where = f"group {tag[0][:12]} member {position}: " if tag else ""
        return Verdict(False, f"{where}{error}", check)

    for position, tx in enumerate(unit):
        try:
            tx.validate_structure()
        except InvalidTransactionError as exc:
            return failed(position, exc, "signature")
    digest = group_digest([tx.rwset_digest for tx in unit])
    for position, tx in enumerate(unit):
        try:
            check_endorsements(unit[0], policy_for(tx.contract), digest)
        except EndorsementError as exc:
            return failed(position, exc, "endorsement")
    for position, tx in enumerate(unit):
        if not state.validate_read_set(tx.read_set):
            return failed(position, "MVCC conflict: stale read set", "mvcc")
    return _VALID


def _apply(
    block: Block,
    judge: Callable[[int], list[Verdict]],
    ledger: Ledger,
    state: WorldState,
    index: ChainIndex | None,
) -> CommitResult:
    """*judge* answers for the unit that starts at a position — one
    transaction, or every member of a group — before any of it is applied."""
    # Every check that can reject the block runs before the first
    # mutation: a block that does not extend this chain must leave state,
    # ledger and index exactly as they were.
    ledger.check_extends(block)
    if index is not None and index.height != ledger.height:
        raise InvalidBlockError(
            f"index at height {index.height} is not at ledger height {ledger.height}"
        )
    txs = block.transactions
    result = CommitResult(verdicts=[], valid_txs=[], group_outcomes=[])
    while len(result.verdicts) < len(txs):
        start = len(result.verdicts)
        unit = judge(start)
        result.verdicts.extend(unit)
        # A live verdict over a whole run, or over a tagged transaction
        # that begins none; a replayed verdict is neither.
        if len(unit) > 1 or unit[0].failed_check == "incomplete":
            result.group_outcomes.append(unit[0].failed_check)
        for tx, verdict in zip(txs[start:], unit):
            if verdict.valid:
                state.apply_write_set(tx.write_set)
                result.valid_txs.append(tx)
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
    txs = block.transactions

    def judge(start: int) -> list[Verdict]:
        unit = group_run(txs, start)
        if unit is None:
            return [Verdict(False, "group member outside its complete group", "incomplete")]
        return [_judge(unit, state, policy_for)] * len(unit)

    return _apply(block, judge, ledger, state, index)


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
        lambda position: [Verdict(validity[position], errors[position])],
        ledger, state, None,
    )
